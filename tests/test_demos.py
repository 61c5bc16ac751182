"""Smoke tests for the narrative scripts under demos/.

Each demo runs as a script in a fresh working directory, so artifacts it
writes land in a temporary directory, and must exit 0. The patch-sweep
demo retrains at full scale for about half a minute; for it the names it
imports from tfa are checked, and each call of one binds to its signature.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfa

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SLOW = "patch_shortcut_sweep.py"


def demo_env():
    """The environment with tfa's source directory first on PYTHONPATH, absolute:
    a relative entry such as ``src`` would not resolve from ``tmp_path``."""
    src = str(Path(tfa.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py") if p.name != SLOW))
def test_demo_runs(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env=demo_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def names_imported_from_tfa(tree) -> list:
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tfa"
        for alias in node.names
    ]


def test_patch_sweep_demo_imports_resolve():
    names = names_imported_from_tfa(ast.parse((DEMOS / SLOW).read_text()))
    assert names
    missing = [n for n in names if not hasattr(tfa, n)]
    assert not missing, f"{SLOW} imports names tfa does not have: {missing}"


def test_patch_sweep_demo_calls_bind_to_their_signatures():
    """Each call of a tfa name passes a positional count and keyword names its signature accepts."""
    tree = ast.parse((DEMOS / SLOW).read_text())
    names = set(names_imported_from_tfa(tree))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names]
    assert {call.func.id for call in calls} >= {"patch_sweep", "generate_synthetic", "TrainConfig", "PatchSpec"}
    for call in calls:
        assert all(not isinstance(a, ast.Starred) for a in call.args) and all(k.arg for k in call.keywords)
        signature = inspect.signature(getattr(tfa, call.func.id))
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as e:
            pytest.fail(f"{SLOW} line {call.lineno}: {call.func.id}{signature}: {e}")
