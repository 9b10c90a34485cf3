"""Every script under scripts/ loads: its module-level imports resolve.

A script is loaded by path and never run, so a public qdist name that is
removed or renamed fails here rather than when the script is next run.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads_without_running(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    assert callable(module.main)
