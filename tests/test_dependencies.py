"""The declared dependencies match what the package imports."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _read_pyproject(text):
    """{table: {key: value text}} of a pyproject.toml, an array's text running over lines
    until its brackets close. A small reader, since tomllib arrived only in Python 3.11."""
    tables, table, key = {}, None, None
    for line in text.splitlines():
        line = line.strip()
        if key is not None:
            tables[table][key] += " " + line
        elif line.startswith("["):
            table = line.strip("[]")
            tables[table] = {}
            continue
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            tables[table][key] = value
        else:
            continue
        value = tables[table][key]
        if value.count("[") == value.count("]"):
            key = None
    return tables


def _name(requirement):
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()


def _third_party_imports():
    found = set()
    for path in sorted((ROOT / "src" / "gatedmem").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found |= {n.split(".")[0] for n in names} - set(sys.stdlib_module_names) - {"gatedmem"}
    return found


def test_package_imports_only_numpy_outside_the_standard_library():
    assert _third_party_imports() == {"numpy"}


def test_pyproject_declares_numpy_only_and_a_test_extra():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    tables = _read_pyproject(text)
    dependencies = ast.literal_eval(tables["project"]["dependencies"])
    extras = {k: ast.literal_eval(v) for k, v in tables["project.optional-dependencies"].items()}
    assert [_name(r) for r in dependencies] == ["numpy"]
    assert set(extras) == {"test"}
    if sys.version_info >= (3, 11):  # the reader agrees with tomllib where tomllib exists
        import tomllib

        project = tomllib.loads(text)["project"]
        assert (dependencies, extras) == (project["dependencies"], project["optional-dependencies"])
