"""The other Python versions that pyenv has installed, as pytest parameters:
each one is skipped where it is absent."""

import os
from pathlib import Path

import pytest


def pyenv_interpreter(version):
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = sorted(root.glob(f"{version}.*/bin/python{version}"))
    absent = pytest.mark.skipif(not found, reason=f"no Python {version} under {root}")
    return pytest.param(found[-1] if found else None, id=version, marks=absent)


OTHER_INTERPRETERS = [pyenv_interpreter(version) for version in ("3.10", "3.12", "3.13")]
