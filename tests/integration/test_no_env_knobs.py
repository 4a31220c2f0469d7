"""The library takes no configuration from the environment.

Every behaviour switch of ``repro`` is a constructor parameter or a CLI
flag, so a run is fully described by its call or command line.  This
guard fails when any module under ``src/repro`` reads ``os.environ`` or
``os.getenv``; test and benchmark harnesses (``tests/``,
``benchmarks/``) may still read their own variables.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def env_reads(path: pathlib.Path):
    """``(line, expression)`` of every environment read in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_READERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENV_READERS:
                    yield node.lineno, f"from os import {alias.name}"


def test_no_module_reads_the_environment():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {expr}"
        for path in modules
        for line, expr in env_reads(path)
    ]
    assert not offenders, "environment reads in src/repro:\n" + "\n".join(
        offenders
    )
