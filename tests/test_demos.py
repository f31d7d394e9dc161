"""Every narrative script in ``demos/`` runs to completion against ``src``,
and prints what it printed when its digest was taken."""

import functools
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from test_golden import GOLDEN_NUMPY

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, taken under the numpy of the golden digests
DEMO_STDOUT_SHA256 = {
    "01_data_and_regimes.py": "5cb5e2281c34ef5e94d65011159df106c2a7e2e5b001fcac883f84ec467df315",
    "02_expert_models.py": "7f51692e85da77d0438c5a4057cb32bdb71635155d9658ae1cbcf9471b49e28a",
    "03_walk_forward_backtest.py":
        "09ae1a996556560382ceb02bfb4e899ee8afe13a675fd4332b6bcf7c793a7e8d",
}


@functools.lru_cache(maxsize=None)
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """One run of ``demo`` in an empty directory, shared by the tests below."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run(
            [sys.executable, str(demo)], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=300,
        )


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"demo digests were taken under numpy {GOLDEN_NUMPY}, not {np.__version__}",
)
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_stdout_matches_golden_digest(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == (
        DEMO_STDOUT_SHA256[demo.name]
    )
