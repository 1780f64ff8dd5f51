"""Source hygiene, checked with the standard library's ast module: no module
of the package imports a name it never uses, no module-level name is left
unread, no module reads an automaton's outputs per state or a histogram's
counts as a tuple, and the package's public names are the ones README lists
under "Public API"."""

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


def _module_level_names(tree):
    """The names a module binds by assignment at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_no_module_level_name_is_unread():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    # a dunder such as __version__ is read by the import system or by users
    unread = [(file, name) for file, tree in trees.items()
              for name in _module_level_names(tree)
              if name not in read and name not in autoexp.__all__
              and not (name.startswith("__") and name.endswith("__"))]
    assert unread == []


def _reads_and_definitions(attr):
    """Where src/autoexp reads an attribute named attr, and the modules that
    define a function of that name."""
    reads, defined = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                reads.append((path.name, node.lineno))
            elif isinstance(node, ast.FunctionDef) and node.name == attr:
                defined.append(path.name)
    return reads, defined


def test_no_module_reads_outputs_per_state():
    # Dfao.outputs builds one tuple entry per state from the output table;
    # the package reads Dfao.values through Dfao.output_index instead
    assert _reads_and_definitions("outputs") == ([], ["automata.py"])


def test_no_module_reads_histogram_counts_as_a_tuple():
    # ValueHistogram.counts builds a tuple of Python ints from the count
    # array; the package reads ValueHistogram.array instead
    assert _reads_and_definitions("counts") == ([], ["congruence.py"])


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
