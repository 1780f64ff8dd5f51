"""Command-line entry point: ``python -m autoexp SUBCOMMAND ...``."""

import sys

from .cli import main

sys.exit(main())
