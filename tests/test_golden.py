"""Golden digests: the criterion-8 backtest's records must not drift by a bit.

Criterion 8 checks that two runs agree with each other; these digests pin
what they agree on, so a refactor or speed-up that shifts every metric fails
here.  A change that alters the numbers on purpose must regenerate the
digests (run the configuration below and ``sha256sum`` the two CSVs) and say
so in CHANGES.md.

Paths in the configuration are relative, so the fingerprint stamped into
each file, and hence the digest, does not depend on the temporary directory.

The bits of float64 matmul and ``exp`` depend on the numpy build, its BLAS
and the CPU kernels they dispatch to.  The digests were taken with the numpy
2.4.6 wheel (OpenBLAS 0.3.31, x86-64 with AVX-512); under another numpy
version the test is skipped rather than compared against foreign bits.
"""

import hashlib

import numpy as np
import pytest

from moecast.cli import main

GOLDEN_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden digests were taken under numpy {GOLDEN_NUMPY}, not {np.__version__}",
)

GOLDEN_CONFIG = "\n".join(
    [
        "data.path = prices.csv",
        "report.dir = reports",
        "synth.stable_firms = 3",
        "synth.volatile_firms = 3",
        "synth.length = 140",
        "train.max_epochs = 8",
        "train.patience = 4",
        "train.hidden_units = 12",
        "horizons = 5,20",
        "holdout.k = 1",
        "seed = 42",
    ]
) + "\n"

GOLDEN_FINGERPRINT = "bdfbb8a51f7a"
GOLDEN_RECORDS_SHA256 = "51d5f6173755ece343c271508c01616f7f269d7001c83b2eafb30fa80d360722"
GOLDEN_PREDICTIONS_SHA256 = "2c65d9f832c20f68a09832d5b59521d1514db93fbe0c1915d6dd408b96b7d72d"


def test_criterion_8_records_match_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(GOLDEN_CONFIG, encoding="utf-8")
    assert main(["--config", "run.cfg", "synth"]) == 0
    assert main(["--config", "run.cfg", "backtest"]) == 0
    reports = tmp_path / "reports"

    def digest(kind: str) -> str:
        path = reports / f"{kind}_{GOLDEN_FINGERPRINT}.csv"
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert digest("records") == GOLDEN_RECORDS_SHA256
    assert digest("predictions") == GOLDEN_PREDICTIONS_SHA256
