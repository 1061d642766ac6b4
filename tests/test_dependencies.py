"""The declared dependencies match what the package imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gatedmem

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


def test_running_numpy_meets_the_declared_floor():
    import numpy

    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (requirement,) = ast.literal_eval(_read_pyproject(text)["project"]["dependencies"])
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", requirement)
    assert floor, requirement
    running = tuple(int(x) for x in re.match(r"(\d+)\.(\d+)", numpy.__version__).groups())
    assert running >= tuple(map(int, floor.groups()))


def test_importing_the_cli_loads_neither_fractions_nor_decimal():
    # every stage is its own process, and the two modules cost each one about 0.4 MB
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, gatedmem.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_building_a_world_loads_only_the_world_core():
    # perfbench's set-up process is `import gatedmem` and generate_world, and a module it loads
    # is compiled and run in every such process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, gatedmem\n"
        "print(sorted(m for m in sys.modules if m.startswith('gatedmem.')))\n"
        "gatedmem.generate_world(gatedmem.WorldSpec())\n"
        "print(sorted(m for m in sys.modules if m.startswith('gatedmem.')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    after_import, after_world = done.stdout.splitlines()
    assert after_import == "[]"
    loaded = set(ast.literal_eval(after_world))
    assert "gatedmem.worldsim" in loaded
    assert not loaded & {"gatedmem.protocol", "gatedmem.stats", "gatedmem.controller", "gatedmem.cli"}


def test_every_public_name_is_its_defining_module_attribute():
    assert gatedmem.__all__ == sorted(set(gatedmem.__all__))
    assert set(gatedmem.__all__) <= set(dir(gatedmem))
    for name in gatedmem.__all__:
        value = getattr(gatedmem, name)
        assert value.__module__.startswith("gatedmem."), name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_an_unknown_public_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        gatedmem.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from gatedmem import no_such_name  # noqa: F401
