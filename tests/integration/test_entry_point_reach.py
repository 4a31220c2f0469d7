"""Every module under ``src/repro`` is reachable from an entry point.

The entry points are the two CLIs (``python -m repro`` and
``python -m repro.experiments``), the slow-lane benchmarks
(``benchmarks/``) and the end-to-end benchmark (``perfbench/``).  The
guard follows ``import`` and ``from … import`` statements from those
roots, imports inside functions included, and fails naming each module
none of them reaches: code that only its own tests use does not belong
in ``src/``.  A name imported from a package resolves to the submodule
that defines it; a package ``__init__`` adds no edges of its own, or
importing ``repro.core`` would reach all of ``core``.  A package counts
as reached when anything under it is.
"""

import ast
import functools
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parents[2]


def module_table(root):
    """``{dotted name: path}`` of every module under ``root/src/repro``."""
    src = root / "src"
    table = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        table[".".join(parts)] = path
    return table


@functools.lru_cache(maxsize=None)
def imports(path):
    """``(module, ((name, bound as), ...))`` for every import in a file;
    the names are empty for a plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.module, tuple(
                (alias.name, alias.asname or alias.name) for alias in node.names
            )))
    return tuple(found)


def targets(module, names, table):
    """The modules one import statement reaches."""
    if not names:
        return [module] if module in table else []
    found = []
    for name, _bound in names:
        if f"{module}.{name}" in table:
            found.append(f"{module}.{name}")
        elif module in table:
            found.append(definer(module, name, table))
    return found


def definer(module, name, table):
    """The module defining ``name`` as seen from ``module``, following a
    package's re-exports down to the submodule that defines it."""
    path = table[module]
    if path.name == "__init__.py":
        for source, names in imports(path):
            for original, bound in names:
                if bound == name:
                    found = targets(source, ((original, bound),), table)
                    return found[0] if found else module
    return module


def unreached(root):
    """Dotted names of the modules under ``root/src/repro`` that no
    entry point reaches, sorted."""
    table = module_table(root)
    roots = [
        root / "src" / "repro" / "__main__.py",
        root / "src" / "repro" / "experiments" / "__main__.py",
        *sorted((root / "benchmarks").glob("*.py")),
        *sorted((root / "perfbench").glob("*.py")),
    ]
    reached = {"repro.__main__", "repro.experiments.__main__"}
    stack = list(roots)
    while stack:
        for module, names in imports(stack.pop()):
            for target in targets(module, names, table):
                if target not in reached:
                    reached.add(target)
                    if table[target].name != "__init__.py":
                        stack.append(table[target])
    for module in list(reached):
        while "." in module:
            module = module.rsplit(".", 1)[0]
            reached.add(module)
    return sorted(set(table) - reached)


def test_every_module_is_reached_from_an_entry_point():
    orphans = unreached(ROOT)
    assert not orphans, (
        "modules under src/repro that no CLI, figure or benchmark "
        "imports:\n" + "\n".join(orphans)
    )


def test_a_planted_orphan_is_flagged(tmp_path):
    """An orphan stays flagged even when its package re-exports it."""
    for part in ("src", "benchmarks", "perfbench"):
        shutil.copytree(
            ROOT / part,
            tmp_path / part,
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "out"),
        )
    core = tmp_path / "src" / "repro" / "core"
    (core / "orphan.py").write_text(
        "from repro.core.metrics import as_projection\n\n\n"
        "def orphan():\n    return as_projection\n"
    )
    init = core / "__init__.py"
    init.write_text(
        init.read_text() + "from repro.core.orphan import orphan\n"
    )
    assert unreached(tmp_path) == sorted(unreached(ROOT) + ["repro.core.orphan"])
