"""The package reads no environment variable: its caps and settings are
fixed values in the code, so no outside knob can lift a limit silently."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coinv"
READERS = {"environ", "getenv", "environb", "getenvb"}


def environment_reads(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                f"line {node.lineno}: from os import {a.name}"
                for a in node.names
                if a.name in READERS or a.name == "*"
            )
    return found


def test_guard_sees_each_way_of_reading_the_environment():
    for source in (
        "import os\nos.environ.get('X')",
        "import os\nos.getenv('X')",
        "import os as o\no.environ['X']",
        "from os import environ",
        "from os import getenv as g",
    ):
        assert environment_reads(source), source
    assert not environment_reads("import os\nos.path.join('a', 'b')")


def test_package_reads_no_environment_variable():
    found = [
        f"{path.name} {where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in environment_reads(path.read_text())
    ]
    assert not found
