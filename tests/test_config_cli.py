"""Configuration parsing, model persistence, report rendering, and the CLI."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from moecast import cli
from moecast.cli import main
from moecast.config import parse_config, parse_config_text
from moecast.errors import ConfigError, DataError
from moecast.evaluation import (
    HOLDOUT_SPLIT, WALK_FORWARD_SPLIT, HorizonSpec, plan_walk_forward, run_walk_forward,
)
from moecast.lstm_expert import PARAM_FIELDS, predict_lstm
from moecast.market_data import PriceSeries, SyntheticSpec, generate_synthetic, load_csv, write_csv
from moecast.model_store import ModelStore
from moecast.regime import PolicyKind, RegimeLabel
from moecast.reporting import (
    RECORD_COLUMNS, records_from_csv, records_to_csv, render_tables_text, tables_to_csv,
)
from test_evaluation import CELL_KEYS, fast_settings, scored_record, small_policy
from test_golden import GOLDEN_CONFIG


# the manifest entry of a well-formed pooled fit whose LSTM is arrays a0..a9
POOLED_ENTRY = {"lstm": {name: k for k, name in enumerate(PARAM_FIELDS)},
                "linear": [0.0, 0.0, 0.0], "launch_t": 40,
                "training_tickers": ["STB02", "VOL02"], "decision_sigma": None}
FOLD_ENTRY = {"ticker": "STB01", "fold": 0, "linear": [0.0, 0.0, 0.0],
              "scaler": [0.0, 1.0], "sigma": 0.01, "regime": "Stable",
              "launch_t": 40, "window": 1, "mode": "price_levels",
              "lstm": {name: k for k, name in enumerate(PARAM_FIELDS)}}


class TestParseConfig:
    def test_empty_text_gives_published_defaults(self):
        config = parse_config_text("")
        assert config["window.length"] == 10
        assert config["train.learning_rate"] == 0.001
        assert config["train.batch_size"] == 16
        assert config["train.max_epochs"] == 50
        assert config["train.patience"] == 5
        assert config["train.hidden_units"] == 50
        assert config["gate.volatile.w_rnn"] == 0.7
        assert config["gate.stable.w_rnn"] == 0.3
        assert config["horizons"] == (5, 20, 60)
        assert config["wf.init_train"] == 80
        assert config["wf.val_len"] == 20
        assert config["wf.step"] == 20
        assert config["vol.tau"] == 0.025
        assert config["holdout.k"] == 10

    def test_gate_weight_domain_violation(self):
        with pytest.raises(ConfigError, match="gate.volatile.w_rnn"):
            parse_config_text("gate.volatile.w_rnn = 1.5")

    @pytest.mark.parametrize("text", ["1", "1,5", "5, 0", "-2"])
    def test_horizons_below_two_rejected_naming_the_key(self, text):
        with pytest.raises(ConfigError, match=r"key horizons: .* \(comma-separated integers >= 2\)"):
            parse_config_text(f"horizons = {text}")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("window.length = 1.5", "not an integer: '1.5'"),
            ("vol.tau = big", "not a number: 'big'"),
            ("train.clip_norm = none", "not a number: 'none'"),
            ("horizons = 5, x", "not a comma-separated integer list: '5, x'"),
            ("horizons = , ", "horizon list is empty"),
            # one value per domain, so that each domain's wording is pinned
            ("holdout.k = -1", "value '-1' outside domain (integer >= 0)"),
            ("wf.step = 0", "value '0' outside domain (integer >= 1)"),
            ("vol.window = 1", "value '1' outside domain (integer >= 2)"),
            ("train.adam_eps = 0", "value '0' outside domain (real > 0)"),
            ("train.adam_beta2 = 1.0", "value '1.0' outside domain (real in (0, 1))"),
            ("gate.stable.w_rnn = nan", "value 'nan' outside domain (real in [0, 1])"),
            ("train.clip_norm = -2", "value '-2' outside domain (real > 0 or 'off')"),
            ("vol.policy = Median", "value 'Median' outside domain (threshold | median)"),
            ("data.mode = prices",
             "value 'prices' outside domain (price_levels | log_returns)"),
            ("wf.mode = rolling", "value 'rolling' outside domain (sliding | expanding)"),
        ],
    )
    def test_bad_value_rejected_naming_the_key_and_cause(self, line, message):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(line)
        assert str(excinfo.value) == f"<config>: key {key}: {message}"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("wf.bogus = 3")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("seed = 1\nnot a config line")

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text("# comment\n\nseed = 5\n")
        assert config["seed"] == 5

    def test_parse_serialize_parse_fixed_point(self):
        config = parse_config_text(
            "seed = 9\ntrain.learning_rate = 0.002\nhorizons = 3, 7\nvol.policy = median\n"
        )
        once = config.serialize()
        reparsed = parse_config_text(once)
        assert reparsed.values == config.values
        assert reparsed.serialize() == once
        assert reparsed.fingerprint == config.fingerprint

    def test_contextual_policy_defaults(self):
        config = parse_config_text("")
        classify = config.policy_for_classify()
        backtest = config.policy_for_backtest()
        assert classify.kind is PolicyKind.THRESHOLD
        assert classify.vol_window == 30 and classify.tau == 0.025
        assert backtest.kind is PolicyKind.CROSS_SECTIONAL_MEDIAN
        assert backtest.vol_window == 21

    def test_explicit_policy_pins_both_contexts(self):
        config = parse_config_text("vol.policy = threshold\nvol.window = 15\n")
        assert config.policy_for_backtest().kind is PolicyKind.THRESHOLD
        assert config.policy_for_backtest().vol_window == 15
        assert config.policy_for_classify().vol_window == 15

    def test_contextual_defaults_survive_round_trip(self):
        config = parse_config_text("seed = 3")
        round_tripped = parse_config_text(config.serialize())
        assert round_tripped.policy_for_backtest().kind is PolicyKind.CROSS_SECTIONAL_MEDIAN
        assert round_tripped.policy_for_classify().kind is PolicyKind.THRESHOLD

    def test_clip_norm_off_and_numeric(self):
        assert parse_config_text("")["train.clip_norm"] is None
        assert parse_config_text("train.clip_norm = off")["train.clip_norm"] is None
        assert parse_config_text("train.clip_norm = 5.0")["train.clip_norm"] == 5.0

    def test_seed_override_changes_fingerprint(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n", encoding="utf-8")
        base = parse_config(path)
        overridden = parse_config(path, seed_override=7)
        assert overridden["seed"] == 7
        assert overridden.fingerprint != base.fingerprint

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    def test_equivalent_horizon_lists_are_one_configuration(self):
        # HorizonSpec reduces both to (5, 20), so both runs are the same run
        spelled = parse_config_text("horizons = 20,5,5")
        canonical = parse_config_text("horizons = 5,20")
        assert spelled.values == canonical.values
        assert spelled.fingerprint == canonical.fingerprint
        assert HorizonSpec(spelled["horizons"]).horizons == spelled["horizons"] == (5, 20)

    def test_gate_table_resolution(self):
        config = parse_config_text("gate.volatile.w_rnn = 0.8\ngate.stable.w_rnn = 0.2\n")
        table = config.gate_table()
        assert table[RegimeLabel.VOLATILE] == 0.8
        assert table[RegimeLabel.STABLE] == 0.2


@pytest.fixture(scope="module")
def small_result():
    universe = generate_synthetic(SyntheticSpec(n_stable=2, n_volatile=2, length=60), seed=3)
    plan = plan_walk_forward(60, 40, 10, 10)
    settings = fast_settings(horizons=HorizonSpec((3,)))
    return universe, run_walk_forward(universe, plan, small_policy(), settings)


class TestModelStore:
    def test_round_trip_reproduces_predictions_bit_exactly(self, tmp_path, small_result):
        universe, result = small_result
        store = ModelStore("f" * 64, dict(result.models))
        path = tmp_path / "models.npz"
        store.save(path)
        loaded = ModelStore.load(path)
        assert loaded.fingerprint == "f" * 64
        assert set(loaded.fold_models) == set(result.models)
        rng = np.random.default_rng(0)
        for key, original in result.models.items():
            restored = loaded.fold_models[key]
            window = rng.normal(size=original.window)
            assert predict_lstm(restored.lstm, window) == predict_lstm(original.lstm, window)
            assert np.array_equal(restored.lstm.theta, original.lstm.theta)
            assert restored.linear == original.linear
            assert restored.scaler == original.scaler
            assert restored.sigma == original.sigma
            assert restored.regime == original.regime

    def test_save_is_byte_deterministic(self, tmp_path, small_result):
        _, result = small_result
        store = ModelStore("a" * 64, dict(result.models))
        p1, p2 = tmp_path / "m1.npz", tmp_path / "m2.npz"
        store.save(p1)
        store.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRecordsCsv:
    def test_round_trip(self, small_result):
        _, result = small_result
        text = records_to_csv(result.records, "b" * 64, 3)
        back = records_from_csv(text)
        assert sorted(back, key=lambda r: (r.ticker, r.fold_id, r.horizon, r.model)) == sorted(
            result.records, key=lambda r: (r.ticker, r.fold_id, r.horizon, r.model)
        )

    def test_fingerprint_stamp_present(self, small_result):
        _, result = small_result
        text = records_to_csv(result.records, "c" * 64, 11)
        first = text.splitlines()[0]
        assert first == f"# fingerprint={'c' * 64} seed=11"

    def test_tables_render_all_sections(self, small_result):
        _, result = small_result
        text = render_tables_text(list(result.records), "d" * 64, 5)
        assert "stable firms (standardized scale, horizon 1)" in text
        assert "volatile firms (standardized scale, horizon 1)" in text
        assert "raw scale" in text
        assert "Mixture of Experts" in text
        assert "horizon breakdown" in text

    def test_tables_name_a_regime_without_records(self, small_result):
        _, result = small_result
        stable = [r for r in result.records if r.regime is RegimeLabel.STABLE]
        assert stable and len(stable) < len(result.records)
        text = render_tables_text(stable, "d" * 64, 5)
        assert text.count("(no horizon-1 records for Volatile firms)") == 2  # both scales
        assert "(no horizon-1 records for Stable firms)" not in text


@st.composite
def split_cells(draw):
    """Records of up to four cells per split, 1 to 300 members each, shuffled.

    Each cell's ``mase`` is never, sometimes or always ``None``; the metric
    values come from a drawn seed, spread over twelve decades.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slots = []
    for split in (WALK_FORWARD_SPLIT, HOLDOUT_SPLIT):
        sizes = draw(st.lists(st.integers(1, 300), max_size=4))
        for key, size in zip(draw(st.permutations(CELL_KEYS)), sizes):
            missing = draw(st.sampled_from(["never", "sometimes", "always"]))
            for _ in range(size):
                none = missing == "always" or (missing == "sometimes" and rng.random() < 0.5)
                slots.append((split, key, None if none else float(rng.lognormal())))
    return [
        replace(scored_record(key, i, (10.0 ** rng.uniform(-6, 6, size=6)).tolist(), mase),
                split=split)
        for i, (split, key, mase) in enumerate(slots[k] for k in rng.permutation(len(slots)))
    ]


class TestTablesCsvMatchesReference:
    """Directly formatted table rows are the bytes a csv.writer writes."""

    @settings(max_examples=100, deadline=None)
    @given(split_cells())
    @example([])
    def test_equals_the_csv_writer_reference(self, records):
        assert tables_to_csv(records, "e" * 64, 9) == reference.tables_to_csv(records, "e" * 64, 9)

    def test_equals_the_reference_on_a_backtest(self, small_result):
        _, result = small_result
        records = list(result.records)
        assert tables_to_csv(records, "f" * 64, 2) == reference.tables_to_csv(records, "f" * 64, 2)


@pytest.fixture()
def cli_workspace(tmp_path):
    data = tmp_path / "prices.csv"
    reports = tmp_path / "reports"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"data.path = {data}",
                f"report.dir = {reports}",
                "synth.stable_firms = 2",
                "synth.volatile_firms = 2",
                "synth.length = 60",
                "wf.init_train = 40",
                "wf.val_len = 10",
                "wf.step = 10",
                "window.length = 5",
                "train.max_epochs = 2",
                "train.patience = 2",
                "train.batch_size = 8",
                "train.hidden_units = 4",
                "horizons = 3,5",
                "holdout.k = 1",
                "seed = 9",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return cfg, data, reports


class TestCli:
    def test_synth_classify_backtest_report_flow(self, cli_workspace, capsys):
        cfg, data, reports = cli_workspace
        assert main(["--config", str(cfg), "synth"]) == 0
        assert data.exists()
        assert main(["--config", str(cfg), "classify"]) == 0
        table = capsys.readouterr().out
        assert "VOL01" in table and "regime" in table
        assert main(["--config", str(cfg), "backtest"]) == 0
        fp = parse_config(cfg).short_fingerprint
        for kind, suffix in (
            ("config", "cfg"), ("records", "csv"), ("predictions", "csv"), ("models", "npz"),
        ):
            assert (reports / f"{kind}_{fp}.{suffix}").exists()
        assert main(["--config", str(cfg), "report"]) == 0
        out = capsys.readouterr().out
        assert "Mixture of Experts" in out
        assert (reports / f"tables_{fp}.txt").exists()
        assert (reports / f"tables_{fp}.csv").exists()

    def test_forecast_h1_matches_stored_prediction(self, cli_workspace, capsys):
        cfg, data, reports = cli_workspace
        main(["--config", str(cfg), "synth"])
        main(["--config", str(cfg), "backtest"])
        capsys.readouterr()
        config = parse_config(cfg)
        store = ModelStore.load(reports / f"models_{config.short_fingerprint}.npz")
        ticker = sorted({t for t, _ in store.fold_models})[0]
        assert main(["--config", str(cfg), "forecast", "--ticker", ticker, "--horizon", "1"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("1,")][0]
        _, date, _, _, moe_text = line.split(",")
        predictions = (reports / f"predictions_{config.short_fingerprint}.csv").read_text()
        match = [
            row for row in predictions.splitlines()
            if row.startswith(f"{ticker},{date},MoE,")
        ]
        assert len(match) == 1
        stored_predicted = match[0].rsplit(",", 1)[1]
        assert stored_predicted == moe_text

    def test_forecast_holdout_ticker_uses_pooled_experts(self, cli_workspace, capsys):
        cfg, data, reports = cli_workspace
        main(["--config", str(cfg), "synth"])
        main(["--config", str(cfg), "backtest"])
        capsys.readouterr()
        config = parse_config(cfg)
        store = ModelStore.load(reports / f"models_{config.short_fingerprint}.npz")
        universe = load_csv(data)
        holdout = sorted(set(universe) - set(store.pooled.training_tickers))
        assert len(holdout) == 2  # holdout.k = 1: one volatile and one stable firm
        records = records_from_csv(
            (reports / f"records_{config.short_fingerprint}.csv").read_text()
        )
        launch = store.pooled.launch_t
        for ticker in holdout:
            assert main(
                ["--config", str(cfg), "forecast", "--ticker", ticker, "--horizon", "3"]
            ) == 0
            out = capsys.readouterr().out
            assert "pooled experts" in out
            rows = [l.split(",") for l in out.splitlines() if l[:2] in ("1,", "2,", "3,")]
            paths = np.array([[float(v) for v in row[2:]] for row in rows])
            actual = universe[ticker].prices[launch:launch + 3]
            # the forecast replays the path run_holdout scored at horizon 3
            for col, model in enumerate(("Linear", "LSTM", "MoE")):
                (record,) = [
                    r for r in records
                    if r.ticker == ticker and r.horizon == 3 and r.model == model
                ]
                assert f"regime {record.regime.value})" in out
                expected = float(np.abs(paths[:, col] - actual).mean())
                assert record.raw_mae == pytest.approx(expected, rel=1e-9)

    def test_load_of_one_ticker_reads_only_what_its_forecast_uses(
        self, cli_workspace, capsys, monkeypatch
    ):
        cfg, data, reports = cli_workspace
        assert main(["--config", str(cfg), "synth"]) == 0
        assert main(["--config", str(cfg), "backtest"]) == 0
        path = reports / f"models_{parse_config(cfg).short_fingerprint}.npz"
        whole = ModelStore.load(path)
        stored = sorted({t for t, _ in whole.fold_models})
        holdout = sorted(set(load_csv(data)) - set(whole.pooled.training_tickers))
        reads = []
        getitem = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            lambda archive, key: reads.append(key) or getitem(archive, key))

        def same_experts(part, full):
            assert part.lstm.hidden == full.lstm.hidden
            assert part.lstm.theta.tobytes() == full.lstm.theta.tobytes()
            rest = {k: v for k, v in vars(part).items() if k != "lstm"}
            assert rest == {k: v for k, v in vars(full).items() if k != "lstm"}

        for ticker in stored + holdout[:1]:
            reads.clear()
            part = ModelStore.load(path, ticker)
            # the manifest, then one LSTM's ten arrays
            assert reads[0] == "manifest" and len(reads) == 1 + len(PARAM_FIELDS)
            assert part.fingerprint == whole.fingerprint
            folds = whole.folds_for(ticker)
            if folds:
                key = (ticker, folds[-1])
                assert list(part.fold_models) == [key] and part.pooled is None
                same_experts(part.fold_models[key], whole.fold_models[key])
            else:
                assert part.fold_models == {}
                same_experts(part.pooled, whole.pooled)

    def test_forecast_reads_only_its_tickers_rows(self, cli_workspace, capsys, monkeypatch):
        cfg, data, _ = cli_workspace
        assert main(["--config", str(cfg), "synth"]) == 0
        assert main(["--config", str(cfg), "backtest"]) == 0
        tickers = sorted(load_csv(data))

        def forecasts(names):
            capsys.readouterr()
            for ticker in names:
                argv = ["--config", str(cfg), "forecast", "--ticker", ticker, "--horizon", "4"]
                assert main(argv) == 0
            return capsys.readouterr().out

        one_ticker = forecasts(tickers)
        with monkeypatch.context() as whole_file:
            whole_file.setattr(cli, "load_csv", lambda path, ticker=None: load_csv(path))
            assert forecasts(tickers) == one_ticker
        # a malformed row of the last ticker fails only what reads that ticker
        *others, bad = tickers
        before = forecasts(others)
        lines = data.read_text(encoding="utf-8").splitlines()
        data.write_text("\n".join(lines + [f"{bad},2099-01-01,-1.0"]) + "\n", encoding="utf-8")
        assert forecasts(others) == before
        expected = f"error: {data}: line {len(lines) + 1}: non-positive price -1.0 for {bad}\n"
        for argv in (["backtest"], ["forecast", "--ticker", bad, "--horizon", "4"]):
            assert main(["--config", str(cfg), *argv]) == 1
            assert capsys.readouterr().err == expected

    def test_backtest_writes_the_same_bytes_forked_and_in_process(
        self, cli_workspace, capsys, monkeypatch
    ):
        cfg, _, reports = cli_workspace
        main(["--config", str(cfg), "synth"])
        capsys.readouterr()

        def backtest():
            assert main(["--config", str(cfg), "backtest"]) == 0
            return capsys.readouterr().out, {p.name: p.read_bytes() for p in reports.iterdir()}

        forked = backtest()
        # one usable core: the folds and the pooled fit run in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert backtest() == forked
        fp = parse_config(cfg).short_fingerprint
        assert {f"models_{fp}.npz", f"records_{fp}.csv", f"predictions_{fp}.csv"} <= set(forked[1])

    def test_a_closed_stdout_exits_1_without_a_traceback(self, cli_workspace):
        # ``moecast forecast ... | head -n 1``: the reader leaves after one line,
        # long before the forecast's rows fill the pipe
        cfg, _, _ = cli_workspace
        assert main(["--config", str(cfg), "synth"]) == 0
        assert main(["--config", str(cfg), "backtest"]) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "moecast.cli", "--config", str(cfg),
             "forecast", "--ticker", "STB01", "--horizon", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"Exception ignored" not in err
        assert err.count(b"error: ") <= 1

    def test_forecast_without_store_fails(self, cli_workspace, capsys):
        cfg, _, _ = cli_workspace
        code = main(["--config", str(cfg), "forecast", "--ticker", "STB01", "--horizon", "3"])
        assert code == 1
        assert "model store" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case",
        ["horizon_zero", "other_configuration", "no_models_and_no_pool",
         "ticker_missing_from_prices", "series_shorter_than_launch"],
    )
    def test_forecast_error_fails_naming_the_cause(self, cli_workspace, capsys, case):
        cfg, data, reports = cli_workspace
        if case == "no_models_and_no_pool":
            text = cfg.read_text(encoding="utf-8")
            cfg.write_text(text.replace("holdout.k = 1", "holdout.k = 0"), encoding="utf-8")
        assert main(["--config", str(cfg), "synth"]) == 0
        assert main(["--config", str(cfg), "backtest"]) == 0
        fp =parse_config(cfg).short_fingerprint
        store = ModelStore.load(reports / f"models_{fp}.npz")
        ticker, _ = min(store.fold_models)
        horizon = "0" if case == "horizon_zero" else "3"
        if case == "horizon_zero":
            message = "horizon must be >= 1, got 0"
        elif case == "other_configuration":
            # a store written under another seed, under this configuration's file name
            assert main(["--config", str(cfg), "--seed", "10", "backtest"]) == 0
            other = parse_config(cfg, seed_override=10).short_fingerprint
            (reports / f"models_{fp}.npz").write_bytes(
                (reports / f"models_{other}.npz").read_bytes())
            message = ("model store was produced under a different configuration "
                       f"(stored fingerprint {other}, current {fp})")
        elif case == "no_models_and_no_pool":
            assert store.pooled is None
            ticker = "NOPE"
            message = "no stored models for ticker 'NOPE'"
        else:
            universe = load_csv(data)
            if case == "ticker_missing_from_prices":
                del universe[ticker]
                message = f"ticker {ticker!r} missing from {data}"
            else:
                series = universe[ticker]
                launch = store.fold_models[(ticker, max(store.folds_for(ticker)))].launch_t
                universe[ticker] = PriceSeries(
                    ticker, series.dates[:launch - 1], series.prices[:launch - 1])
                message = f"{ticker}: series shorter than the stored launch index"
            write_csv(universe, data)
        before = {p.name: p.read_bytes() for p in reports.iterdir()}
        capsys.readouterr()
        code = main(["--config", str(cfg), "forecast", "--ticker", ticker, "--horizon", horizon])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == before

    @pytest.mark.parametrize("command", ["classify", "backtest", "forecast"])
    @pytest.mark.parametrize(
        "content", [None, b"ticker,date,adj_close\nST\xe9B01,2015-01-02,100.0\n"],
        ids=["missing", "not_utf8"],
    )
    def test_unreadable_prices_fail_naming_the_path(
        self, cli_workspace, capsys, command, content
    ):
        cfg, data, _ = cli_workspace
        args = [command]
        if command == "forecast":  # it reads the prices after a stored backtest's models
            args += ["--ticker", "STB01", "--horizon", "3"]
            assert main(["--config", str(cfg), "synth"]) == 0
            assert main(["--config", str(cfg), "backtest"]) == 0
            data.unlink()
        if content is not None:
            data.write_bytes(content)
        capsys.readouterr()
        assert main(["--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read prices ") and str(data) in err

    @pytest.mark.parametrize("command", ["classify", "backtest"])
    def test_header_only_prices_fail_naming_the_path(self, cli_workspace, capsys, command):
        cfg, data, _ = cli_workspace
        # without a holdout no ranking of the firms stands before the empty universe
        cfg.write_text(cfg.read_text(encoding="utf-8").replace("holdout.k = 1", "holdout.k = 0"),
                       encoding="utf-8")
        data.write_text("ticker,date,adj_close\n", encoding="utf-8")
        assert main(["--config", str(cfg), command]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}: no price rows after the header\n"

    # edits of a stored backtest's own manifest, each giving one field the wrong type
    MANIFEST_EDITS = {
        "fingerprint_not_a_string": lambda m: m.update(fingerprint=5),
        # one of the first ticker's folds, so that its folds no longer sort
        "fold_not_an_int": lambda m: m["entries"][0].update(fold="0"),
        "launch_t_not_an_int": lambda m: [e.update(launch_t=e["launch_t"] + 0.5)
                                          for e in m["entries"]],
        "window_a_bool": lambda m: [e.update(window=True) for e in m["entries"]],
        "sigma_a_string": lambda m: [e.update(sigma=str(e["sigma"])) for e in m["entries"]],
        # a bool is no float: true would read as sigma = 1 and run silently
        "sigma_a_bool": lambda m: [e.update(sigma=True) for e in m["entries"]],
        "scaler_strings": lambda m: [e.update(scaler=[str(v) for v in e["scaler"]])
                                     for e in m["entries"]],
        "linear_strings": lambda m: [e.update(linear=[str(v) for v in e["linear"]])
                                     for e in m["entries"]],
        "decision_sigma_a_string": lambda m: m["pooled"].update(
            decision_sigma=str(m["pooled"]["decision_sigma"])
        ),
        # the first ticker's first fold, whose arrays its forecast does not read
        "first_fold_sigma_a_string": lambda m: m["entries"][0].update(sigma="0.01"),
        "first_fold_member_missing": lambda m: m["entries"][0]["lstm"].update(W_f=10**6),
    }

    @pytest.mark.parametrize(
        "case",
        ["truncated", "not_an_archive", "bare_array", "empty", "no_manifest",
         "two_values_per_step", "unsupported_version", *MANIFEST_EDITS],
    )
    def test_unreadable_model_store_fails_naming_the_path(self, cli_workspace, capsys, case):
        cfg, _, reports = cli_workspace
        reports.mkdir()
        store = reports / f"models_{parse_config(cfg).short_fingerprint}.npz"
        ticker = "STB01"
        if case in self.MANIFEST_EDITS:
            assert main(["--config", str(cfg), "synth"]) == 0
            assert main(["--config", str(cfg), "backtest"]) == 0
            with np.load(store) as archive:
                arrays = dict(archive)
            manifest = json.loads(str(arrays.pop("manifest")))
            self.MANIFEST_EDITS[case](manifest)
            ticker = manifest["entries"][0]["ticker"]
            if case.startswith("first_fold"):
                assert sum(e["ticker"] == ticker for e in manifest["entries"]) > 1
            np.savez(store, manifest=np.array(json.dumps(manifest)), **arrays)
            capsys.readouterr()
        elif case == "unsupported_version":
            np.savez(store, manifest=np.array(json.dumps({"version": 2})))
        elif case == "truncated":
            ModelStore("f" * 64, {}).save(store)
            store.write_bytes(store.read_bytes()[:-30])
        elif case == "not_an_archive":
            store.write_bytes(b"not a model store\n")
        elif case == "bare_array":
            with open(store, "wb") as fh:
                np.save(fh, np.zeros(3))
        elif case == "empty":
            store.write_bytes(b"")
        elif case == "no_manifest":
            np.savez(store, a0=np.zeros(3))
        else:
            # well formed but for an LSTM that reads two values per step:
            # its gates are (H, H + 2)
            shapes = [(3, 5)] * 4 + [(3,)] * 4 + [(1, 3), (1,)]
            entry = {"ticker": "STB01", "fold": 0, "linear": [0.0, 0.0, 0.0],
                     "scaler": [0.0, 1.0], "sigma": 0.01, "regime": "Stable",
                     "launch_t": 40, "window": 5, "mode": "price_levels",
                     "lstm": {name: k for k, name in enumerate(PARAM_FIELDS)}}
            manifest = {"version": 1, "fingerprint": "f" * 64, "pooled": None,
                        "entries": [entry]}
            np.savez(store, manifest=np.array(json.dumps(manifest)),
                     **{f"a{k}": np.zeros(shape) for k, shape in enumerate(shapes)})
        code = main(["--config", str(cfg), "forecast", "--ticker", ticker, "--horizon", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read model store ") and str(store) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        if case == "two_values_per_step":
            assert f"{store}: malformed manifest (FitError: W_f must have shape" in err
        elif case == "unsupported_version":
            assert err.endswith(f"{store}: unsupported version 2\n")
        elif case == "first_fold_member_missing":
            assert f"{store}: malformed manifest (KeyError: 'a1000000 is not a file" in err
        elif case in self.MANIFEST_EDITS:
            assert f"{store}: malformed manifest (TypeError: " in err

    @pytest.mark.parametrize(
        "manifest",
        [
            {"version": 1},
            {"version": 1, "fingerprint": "f" * 64, "pooled": None, "entries": [
                {"ticker": "STB01", "fold": 0, "linear": [0.0, 0.0, 0.0],
                 "scaler": [0.0, 1.0], "sigma": 0.01, "regime": "Stable",
                 "launch_t": 40, "window": 5, "mode": "price_levels"},
            ]},
            [1, 2],
            # a pooled entry that would load but for one field; the archive
            # holds the ten arrays of its hidden-3 LSTM
            {"version": 1, "fingerprint": "f" * 64, "entries": [],
             "pooled": dict(POOLED_ENTRY, training_tickers="STB02VOL02")},
            {"version": 1, "fingerprint": "f" * 64, "entries": [],
             "pooled": dict(POOLED_ENTRY, training_tickers=[1, 2])},
            {"version": 1, "fingerprint": "f" * 64, "entries": [],
             "pooled": dict(POOLED_ENTRY, lstm=dict(POOLED_ENTRY["lstm"], W_f="0"))},
            # well typed, but a forecast would launch before the series starts
            {"version": 1, "fingerprint": "f" * 64, "pooled": None,
             "entries": [dict(FOLD_ENTRY, launch_t=-7)]},
            # a window longer than the values before the launch
            {"version": 1, "fingerprint": "f" * 64, "pooled": None,
             "entries": [dict(FOLD_ENTRY, launch_t=120, window=200)]},
            {"version": 1, "fingerprint": "f" * 64, "entries": [],
             "pooled": dict(POOLED_ENTRY, launch_t=-7)},
        ],
        ids=["no_entries", "entry_without_lstm", "json_list", "training_tickers_a_string",
             "training_tickers_ints", "member_index_a_string", "launch_t_negative",
             "window_past_launch_t", "pooled_launch_t_negative"],
    )
    def test_malformed_manifest_fails_naming_the_path(self, cli_workspace, capsys, manifest):
        cfg, _, reports = cli_workspace
        reports.mkdir()
        store = reports / f"models_{parse_config(cfg).short_fingerprint}.npz"
        shapes = [(3, 4)] * 4 + [(3,)] * 4 + [(1, 3), (1,)]
        np.savez(store, manifest=np.array(json.dumps(manifest)),
                 **{f"a{k}": np.zeros(shape) for k, shape in enumerate(shapes)})
        with pytest.raises(DataError, match="cannot read model store"):
            ModelStore.load(store)
        code = main(["--config", str(cfg), "forecast", "--ticker", "STB01", "--horizon", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read model store ") and str(store) in err

    @pytest.mark.parametrize(
        "row, message",
        [
            (b"STB01,0,walk_forward,Stable,1,LSTM,0.1",
             "error: records line 3: expected 13 fields, got 7\n"),
            (b"STB01,zero,walk_forward,Stable,1,LSTM,0.1,0.2,0.3,0.1,0.2,0.3,",
             "error: records line 3: invalid literal for int() with base 10: 'zero'\n"),
            (b"STB01,0,walk_forward,Calm,1,LSTM,0.1,0.2,0.3,0.1,0.2,0.3,",
             "error: records line 3: 'Calm' is not a valid RegimeLabel\n"),
            (b"STB01,0,walk_forward,Stable,1,LSTM,,0.2,0.3,0.1,0.2,0.3,",
             "error: records line 3: could not convert string to float: ''\n"),
            (b"STB01,0,walkforward,Stable,1,LSTM,0.1,0.2,0.3,0.1,0.2,0.3,",
             "error: records line 3: unknown split 'walkforward'\n"),
            (b"STB01,0,walk_forward,Stable,0,LSTM,0.1,0.2,0.3,0.1,0.2,0.3,",
             "error: records line 3: horizon must be >= 1, got 0\n"),
            (b"\xff\xfe", "error: cannot read records {path}: 'utf-8' codec can't decode"),
        ],
        ids=["seven_fields", "fold_id_zero", "unknown_regime", "blank_mse", "unknown_split",
             "horizon_zero", "not_utf8"],
    )
    def test_malformed_records_fail_naming_the_line(self, cli_workspace, capsys, row, message):
        cfg, _, reports = cli_workspace
        reports.mkdir()
        records = reports / f"records_{parse_config(cfg).short_fingerprint}.csv"
        header = ",".join(RECORD_COLUMNS).encode("utf-8")
        records.write_bytes(b"# fingerprint=f seed=9\n" + header + b"\n" + row + b"\n")
        assert main(["--config", str(cfg), "report"]) == 1
        assert capsys.readouterr().err.startswith(message.format(path=records))

    @pytest.mark.parametrize("command", ["backtest", "report", "forecast"])
    def test_report_dir_naming_a_file_fails_naming_the_path(self, cli_workspace, capsys, command):
        cfg, _, reports = cli_workspace
        args = [command] + (["--ticker", "STB01", "--horizon", "3"] if command == "forecast" else [])
        if command == "backtest":
            assert main(["--config", str(cfg), "synth"]) == 0
        reports.write_text("not a directory\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {reports}: ")

    @pytest.mark.parametrize(
        "command, artifact, message",
        [("forecast", "models_{}.npz", "error: model store {} not found; run backtest first"),
         ("report", "records_{}.csv", "error: no records at {}; run backtest first")],
        ids=["forecast", "report"],
    )
    def test_reading_commands_leave_a_fresh_report_dir_uncreated(
        self, cli_workspace, capsys, command, artifact, message
    ):
        cfg, _, reports = cli_workspace
        args = [command] + (["--ticker", "STB01", "--horizon", "3"] if command == "forecast" else [])
        assert main(["--config", str(cfg), *args]) == 1
        expected = reports / artifact.format(parse_config(cfg).short_fingerprint)
        assert capsys.readouterr().err == message.format(expected) + "\n"
        assert not reports.exists()

    @pytest.mark.parametrize(
        "command, artifact",
        [("backtest", "config_{}.cfg"), ("backtest", "records_{}.csv"),
         ("backtest", "predictions_{}.csv"), ("backtest", "models_{}.npz"),
         ("report", "tables_{}.txt"), ("report", "tables_{}.csv")],
    )
    def test_unwritable_artifact_fails_naming_the_path(self, cli_workspace, capsys, command, artifact):
        cfg, _, reports = cli_workspace
        assert main(["--config", str(cfg), "synth"]) == 0
        if command == "report":
            assert main(["--config", str(cfg), "backtest"]) == 0
        # a directory where the artifact goes cannot be opened for writing
        blocked = reports / artifact.format(parse_config(cfg).short_fingerprint)
        blocked.mkdir(parents=True)
        capsys.readouterr()
        assert main(["--config", str(cfg), command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocked}: ")

    @pytest.mark.parametrize("blocked", ["parent_is_a_file", "target_is_a_directory"])
    def test_unwritable_synth_target_fails_naming_the_path(self, tmp_path, capsys, blocked):
        if blocked == "parent_is_a_file":
            (tmp_path / "data").write_text("", encoding="utf-8")
            target = tmp_path / "data" / "prices.csv"
        else:
            target = tmp_path / "prices.csv"
            target.mkdir()
        assert main(["synth", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")

    def test_backtest_without_data_path_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("", encoding="utf-8")
        assert main(["--config", str(cfg), "backtest"]) == 1
        assert "data.path" in capsys.readouterr().err

    def test_bad_config_value_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gate.volatile.w_rnn = 1.5\n", encoding="utf-8")
        assert main(["--config", str(cfg), "classify"]) == 1
        assert "gate.volatile.w_rnn" in capsys.readouterr().err

    def test_patience_above_max_epochs_fails_before_any_command_runs(self, tmp_path, capsys):
        cfg, data = tmp_path / "short.cfg", tmp_path / "prices.csv"
        cfg.write_text(f"data.path = {data}\ntrain.max_epochs = 3\n", encoding="utf-8")
        assert main(["--config", str(cfg), "synth"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "train.patience: value 5 exceeds train.max_epochs = 3" in err
        assert not data.exists()
        # patience may equal the epoch ceiling
        assert parse_config_text("train.max_epochs = 3\ntrain.patience = 3")["train.patience"] == 3

    @pytest.mark.parametrize(
        "config_text, flags, named",
        [("", ["--seed", "-1"], "--seed"), ("seed = -3\n", [], "key seed")],
        ids=["flag", "key"],
    )
    def test_negative_seed_fails_naming_it(self, tmp_path, capsys, config_text, flags, named):
        cfg, out = tmp_path / "run.cfg", tmp_path / "prices.csv"
        cfg.write_text(config_text, encoding="utf-8")
        assert main(["--config", str(cfg), *flags, "synth", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "integer >= 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_seed_flag_overrides_config(self, cli_workspace, capsys):
        cfg, data, reports = cli_workspace
        main(["--config", str(cfg), "synth"])
        capsys.readouterr()
        assert main(["--config", str(cfg), "--seed", "123", "backtest"]) == 0
        out = capsys.readouterr().out
        config = parse_config(cfg, seed_override=123)
        assert config.short_fingerprint in out


def test_forecast_past_trading_days_skips_weekends(tmp_path, monkeypatch, capsys):
    # the golden universe with its dates remapped to business days: the last
    # close is on Thu 2015-07-16, so the steps past it skip the weekend
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(GOLDEN_CONFIG, encoding="utf-8")
    assert main(["--config", "run.cfg", "synth"]) == 0
    universe = load_csv("prices.csv")
    write_csv(
        {
            t: PriceSeries(t, np.busday_offset(s.dates[0], np.arange(len(s))), s.prices)
            for t, s in universe.items()
        },
        "prices.csv",
    )
    assert main(["--config", "run.cfg", "backtest"]) == 0
    capsys.readouterr()
    assert main(["--config", "run.cfg", "forecast", "--ticker", "STB01", "--horizon", "26"]) == 0
    dates = [
        np.datetime64(line.split(",")[1])
        for line in capsys.readouterr().out.splitlines() if line[:1].isdigit()
    ]
    assert len(dates) == 26
    assert np.is_busday(dates).all()
    assert np.all(np.diff(dates) >= np.timedelta64(1, "D"))
    past = [str(d) for d in dates if d > np.datetime64("2015-07-16")]
    assert past[:4] == ["2015-07-17", "2015-07-20", "2015-07-21", "2015-07-22"]
    assert len(past) == len(set(past))


def test_seed_flag_without_config_is_an_explicit_seed(monkeypatch):
    resolved = []
    monkeypatch.setattr(cli, "cmd_classify", lambda config, args: resolved.append(config) or 0)
    assert main(["--seed", "5", "classify"]) == 0
    (config,) = resolved
    assert config["seed"] == 5
    assert config.fingerprint == parse_config_text("seed = 5").fingerprint
    assert config == parse_config_text("", seed_override=5)


def test_readme_configuration_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration format", 1)[1].split("\n### ", 1)[0]
    rows = dict(re.findall(r"^\| `([\w.]+)` \| ([^|]*) \|", section, flags=re.M))
    defaults = parse_config_text("")
    assert sorted(rows) == sorted(defaults.values)
    serialized = dict(line.split(" = ", 1) for line in defaults.serialize().splitlines())
    # data.path shows "(unset)"; vol.policy and vol.window depend on the command
    for key in sorted(set(rows) - {"data.path", "vol.policy", "vol.window"}):
        assert rows[key].strip() == f"`{serialized[key]}`", key
