"""The package is pure Python: no compiled sources and no Cython build step."""
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def test_no_compiled_sources_in_package():
    package = ROOT / "src" / "bfeopt"
    assert (package / "__init__.py").is_file()
    compiled = [p for p in package.rglob("*")
                if p.suffix in (".c", ".pyx", ".so")]
    assert compiled == []


def test_build_requires_no_cython():
    with open(ROOT / "pyproject.toml", "rb") as f:
        requires = tomllib.load(f)["build-system"]["requires"]
    assert not [r for r in requires if "cython" in r.lower()]
