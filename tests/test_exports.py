"""Every public name resolves: the names in each module's __all__ and in the
package's, and a star import of the package in a fresh interpreter, so an
export cannot outlive the code it names.  Every module's syntax is also that
of the oldest Python the package declares."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modunits

MODULES = ["bivar_poly", "divpoly", "qseries", "siegel", "unit_lattice", "curve_series", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module("modunits." + name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_resolves():
    missing = [attr for attr in modunits.__all__ if not hasattr(modunits, attr)]
    assert not missing, missing
    assert len(set(modunits.__all__)) == len(modunits.__all__)


def test_star_import_in_a_fresh_interpreter():
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from modunits import *\n"
        "import modunits\n"
        "missing = [a for a in modunits.__all__ if a not in globals()]\n"
        "assert not missing, missing\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", script, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_sources_parse_at_the_oldest_declared_python():
    # syntax newer than requires-python (such as except*) fails here, not
    # only on an interpreter of that version
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject).group(1))
    sources = sorted((root / "src" / "modunits").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, minor))
