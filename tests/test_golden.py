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


GOLDEN_PRICES_SHA256 = "436bde889e3dc5f33d05da7ee9629afa5b0acfb5597dab97118f8d7d031d9572"


def test_synth_prices_match_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(GOLDEN_CONFIG, encoding="utf-8")
    assert main(["--config", "run.cfg", "synth"]) == 0
    assert hashlib.sha256((tmp_path / "prices.csv").read_bytes()).hexdigest() == (
        GOLDEN_PRICES_SHA256
    )


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


GOLDEN_MODELS_SHA256 = "ad897bde4414896820a51b23dd7b743e97762f5000ad77bc3794adc3d632ccc7"

# The golden configuration on the σ branches its digests above do not reach:
# log returns, where a target's σ ends with the target's own return, and the
# threshold rule, under which every firm is labelled against a fixed tau;
# expanding folds all train from index 0.  (extra lines, fingerprint,
# records sha256, predictions sha256)
SIGMA_BRANCH_CASES = [
    (
        "data.mode = log_returns\nvol.policy = threshold\n",
        "0c742df2ad13",
        "f51d0013b33c27a47892ade7e8165fcdc6820d3fad932541fb066033249da71c",
        "e97202f7ceca6bac5e4b481f9c44b4382b4fa417352fd929dbbc1b8a94fc3285",
    ),
    (
        "vol.policy = threshold\nwf.mode = expanding\n",
        "e2e8d88a5111",
        "6539282399d3cb4dc5e72dc971790f2edd26697ee63c55c311775d85833290a0",
        "150dbbbbe6483425d33e0fee187b14bd74125fbdd0e0b3c0a88f2c68f361adde",
    ),
]


def run_backtest_in(tmp_path, monkeypatch, config_text: str):
    """Synthesize and backtest ``config_text`` in ``tmp_path``; return the reports dir."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(config_text, encoding="utf-8")
    assert main(["--config", "run.cfg", "synth"]) == 0
    assert main(["--config", "run.cfg", "backtest"]) == 0
    return tmp_path / "reports"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_8_models_match_golden_digest(tmp_path, monkeypatch):
    reports = run_backtest_in(tmp_path, monkeypatch, GOLDEN_CONFIG)
    assert sha256(reports / f"models_{GOLDEN_FINGERPRINT}.npz") == GOLDEN_MODELS_SHA256


@pytest.mark.parametrize(
    "extra, fingerprint, records_sha256, predictions_sha256",
    SIGMA_BRANCH_CASES,
    ids=["log_returns-threshold", "threshold-expanding"],
)
def test_sigma_branches_match_golden_digests(
    tmp_path, monkeypatch, extra, fingerprint, records_sha256, predictions_sha256
):
    reports = run_backtest_in(tmp_path, monkeypatch, GOLDEN_CONFIG + extra)
    assert sha256(reports / f"records_{fingerprint}.csv") == records_sha256
    assert sha256(reports / f"predictions_{fingerprint}.csv") == predictions_sha256


# The golden configuration with each firm's gradient clipped to norm 0.05.
# The clip fires (the records differ from the unclipped ones), so these pin
# the order in which ``lstm_expert._clipped`` sums the norm.
CLIPPED_EXTRA = "train.clip_norm = 0.05\n"
CLIPPED_FINGERPRINT = "5a2623aa0605"
CLIPPED_RECORDS_SHA256 = "bd68cfdd834ef9c2d8261fbd944d395d83d405ca1be575c117b10cfe3770d3a5"
CLIPPED_PREDICTIONS_SHA256 = "91dbb67412c4f9689dd13de298988829056c88c2d52f3541a8c7fe70e8393e56"


def test_clipped_training_matches_golden_digests(tmp_path, monkeypatch):
    reports = run_backtest_in(tmp_path, monkeypatch, GOLDEN_CONFIG + CLIPPED_EXTRA)
    records = sha256(reports / f"records_{CLIPPED_FINGERPRINT}.csv")
    assert records != GOLDEN_RECORDS_SHA256
    assert records == CLIPPED_RECORDS_SHA256
    assert sha256(reports / f"predictions_{CLIPPED_FINGERPRINT}.csv") == CLIPPED_PREDICTIONS_SHA256


# What ``report`` makes of the golden records: both table files and its
# stdout (the text tables and the paths it wrote).  These pin the order in
# which every cell's mean and deviation are summed.
GOLDEN_TABLES_CSV_SHA256 = "488b2a8947348ce8aaa6c342aeef4dce12d62fcf62e84b30517952c4989a7249"
GOLDEN_TABLES_TXT_SHA256 = "97af79571a8f9e63a6761f9231f97743e132debcd475addd87752e2f772f5be1"
GOLDEN_REPORT_STDOUT_SHA256 = "cb2e833ef20080e6f7ec91e0a44ac379f3620d36f97e37e2048e260a0468a2e0"


def test_report_tables_and_stdout_match_golden_digests(tmp_path, monkeypatch, capsys):
    reports = run_backtest_in(tmp_path, monkeypatch, GOLDEN_CONFIG)
    capsys.readouterr()
    assert main(["--config", "run.cfg", "report"]) == 0
    stdout = capsys.readouterr().out
    assert sha256(reports / f"tables_{GOLDEN_FINGERPRINT}.csv") == GOLDEN_TABLES_CSV_SHA256
    assert sha256(reports / f"tables_{GOLDEN_FINGERPRINT}.txt") == GOLDEN_TABLES_TXT_SHA256
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == GOLDEN_REPORT_STDOUT_SHA256


GOLDEN_TICKERS = ("STB01", "STB02", "STB03", "VOL01", "VOL02", "VOL03")

# The stdout of ``classify`` (each firm's σ, its label and the rule) and of
# ``forecast --horizon 7`` for every ticker, the holdout firms included
# (values, launch window and dates), on the golden configuration, on its log
# returns with the threshold rule, and with the median rule for classify.
# (extra lines, classify stdout sha256, forecast stdout sha256)
STDOUT_CASES = [
    (
        "",
        "b47e65b9ea030edd51023b0bd9efd0e176191170aed3877fc4794e3d97cc7fe3",
        "3976a7e0412ff58d6e89970c997497586bfe589e7d613410c4bce3266cb2a082",
    ),
    (
        "data.mode = log_returns\nvol.policy = threshold\n",
        "b47e65b9ea030edd51023b0bd9efd0e176191170aed3877fc4794e3d97cc7fe3",
        "0b8ce1231b2f11f9f9a4b10988125f68df0ba1df451f9a815e32f51cf839883d",
    ),
    (
        "vol.policy = median\n",
        "cce8e865eb062a68439afed72cc328029ca7a006fae5f027327db581b9bb975d",
        "a8ecb34b2c7e2f697f313ea037908792c985a6f0ff3bdffd61e9421cd3f9fef2",
    ),
]


@pytest.mark.parametrize(
    "extra, classify_sha256, forecast_sha256",
    STDOUT_CASES,
    ids=["golden", "log_returns-threshold", "median"],
)
def test_classify_and_forecast_stdout_match_golden_digests(
    tmp_path, monkeypatch, capsys, extra, classify_sha256, forecast_sha256
):
    run_backtest_in(tmp_path, monkeypatch, GOLDEN_CONFIG + extra)
    capsys.readouterr()
    assert main(["--config", "run.cfg", "classify"]) == 0
    classify_out = capsys.readouterr().out
    for ticker in GOLDEN_TICKERS:
        assert main(["--config", "run.cfg", "forecast", "--ticker", ticker, "--horizon", "7"]) == 0
    forecast_out = capsys.readouterr().out
    assert hashlib.sha256(classify_out.encode("utf-8")).hexdigest() == classify_sha256
    assert hashlib.sha256(forecast_out.encode("utf-8")).hexdigest() == forecast_sha256
