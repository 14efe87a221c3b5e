"""Public-API snapshot: surface changes must be deliberate.

``tests/public_api_manifest.json`` is the checked-in record of what
``repro``, ``repro.api``, ``repro.analysis``, ``repro.verify``,
``repro.simulator`` and ``repro.simulator.primitives`` export (the last
two are what protocol and engine authors import).  If this test fails
you either removed something users import (a breaking change -- update
the README's Migration section) or added a new export (fine --
regenerate the manifest and include it in the same commit)::

    PYTHONPATH=src python - <<'EOF'
    import importlib, json
    names = ["repro", "repro.analysis", "repro.api", "repro.simulator",
             "repro.simulator.primitives", "repro.verify"]
    manifest = {name: sorted(importlib.import_module(name).__all__) for name in names}
    with open("tests/public_api_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\\n")
    EOF
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis
import repro.api
import repro.simulator
import repro.simulator.primitives
import repro.verify

MANIFEST_PATH = Path(__file__).parent / "public_api_manifest.json"

#: Every module whose ``__all__`` the manifest pins.
MODULES = (
    repro,
    repro.analysis,
    repro.api,
    repro.simulator,
    repro.simulator.primitives,
    repro.verify,
)


def _manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))


def test_repro_all_matches_manifest():
    manifest = _manifest()
    for module in MODULES:
        assert sorted(module.__all__) == manifest[module.__name__], module.__name__


def test_repro_api_all_matches_manifest():
    """The manifest pins exactly the modules listed here, no stale entry."""
    assert sorted(_manifest()) == sorted(module.__name__ for module in MODULES)


def test_every_export_resolves():
    """``__all__`` must not advertise names that do not exist."""
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} is advertised but missing"


def test_no_duplicate_exports():
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__


def test_distribution_version_is_the_runtime_version():
    """``setup.py`` declares the ``repro.__version__`` every run record stamps."""
    pytest.importorskip("setuptools")
    completed = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=MANIFEST_PATH.parent.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.split()[-1] == repro.__version__
