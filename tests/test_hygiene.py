"""Source hygiene, checked with the standard library's ast module: no module
of the package imports a name it never uses, and the package's public names
are the ones README lists under "Public API"."""

import ast
import pathlib
import re

import autoexp

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "autoexp"

# kept on purpose: callers reach sync_failure_count through vandercorput too
REEXPORTS = {("vandercorput.py", "sync_failure_count")}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def _used(tree):
    """Every name the module reads; a name used only in a string annotation
    does not count."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    # __init__ imports the public names so that the package exports them
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [(path.name, name) for name in _imported(tree)
                   if name not in used and (path.name, name) not in REEXPORTS]
    assert unused == []


def _readme_api():
    """The names in the list items of README's "Public API" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    items = [ln for ln in section.splitlines() if ln.startswith(("- ", "  "))]
    return re.findall(r"`(\w+)`", "\n".join(items))


def test_public_api_is_the_readme_list():
    listed = _readme_api()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(autoexp.__all__)
