"""Product code reads no environment variables.

Regimes selected by environment variables put a second code path
beside the one every test and benchmark exercises.  Alternatives that
serve as oracles live in ``tests/``; knobs a caller needs are explicit
arguments or attributes.  This scan keeps ``src/repro`` free of
``os.environ`` and ``os.getenv`` reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"{path}:{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(f"{path}:{node.lineno}: from os import {alias.name}"
                         for alias in node.names if alias.name in ENV_NAMES)
    return found


def test_src_reads_no_environment_variables() -> None:
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    reads = [read for path in files for read in _env_reads(path)]
    assert reads == []
