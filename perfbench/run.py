#!/usr/bin/env python3
"""Benchmark of moecast's walk-forward backtest, driven from outside the package.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: wf_reference, wf_long_horizon, cli_pipeline (see README.md).
The run repeats whole rounds of the workload until ``--seconds`` have passed,
and at least twice, checking every round's outputs against the benchmark's
own computations.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("wf_reference", "wf_long_horizon", "cli_pipeline")
MIN_ROUNDS = 2
SETUP_PER_ROUND = 2

END_TO_END_UNITS = {
    "setup_s": "s", "backtest_s": "s", "forecast_s": "s", "report_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, or of its largest child, in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Bench:
    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.is_cli = args.workload == "cli_pipeline"
        self.checker_failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_digests: dict | None = None  # per (firm, fold), from the first round
        self.records_digest = ""
        self.moe_h1_mse = float("nan")
        self.spans: list[dict] = []  # exported spans of every traced round

    # -- set-up ----------------------------------------------------------

    def setup_once(self) -> float:
        """Wall time of building the inputs in a fresh interpreter."""
        if self.is_cli:
            session = workloads.new_session(self.work, self.args.seed, "setup")
            seconds, code, _ = workloads.run_cli(session, ["synth"])
        else:
            cmd = [sys.executable, str(HERE / "setup_probe.py"), self.args.workload, str(self.args.seed)]
            start = time.perf_counter()
            code = subprocess.run(cmd, env=workloads.child_env(), timeout=120).returncode
            seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up exited with code {code}")
        return seconds

    # -- rounds ------------------------------------------------------------

    def one_round(self, traced: bool, index: int):
        """Run one round; a traced round also returns the tracer holding its spans."""
        if self.is_cli:
            spans_dir = self.work / f"spans-{index}" if traced else None
            if spans_dir is not None:
                spans_dir.mkdir()
            rnd = workloads.cli_round(self.work, self.args.seed, spans_dir)
            if spans_dir is None:
                return rnd, None
            tracer = tracing.Tracer()
            for path in sorted(spans_dir.glob("spans-*.json"), key=lambda p: int(p.stem[6:])):
                tracer.merge(json.loads(path.read_text(encoding="utf-8")))
            return rnd, tracer
        if not traced:
            return workloads.wf_round(self.args.workload, self.args.seed), None
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
        try:
            rnd = workloads.wf_round(self.args.workload, self.args.seed)
        finally:
            tracer.active = False
            tracer.uninstall()
        return rnd, tracer

    def check_round(self, rnd) -> None:
        """Check one round's outputs and count its operations."""
        checker = checks.Checker()
        backtest_op = ("backtest",)  # a command of cli_pipeline; no single operation in-process
        if rnd.outcome is not None:
            checks.check_backtest(rnd.design, rnd.outcome, checker, backtest_op)
            for k, rows in rnd.reports.items():
                checks.check_report(rnd.outcome.records, rows, checker, ("report", k))
            for (k, ticker), (rows, regime) in rnd.forecasts.items():
                checks.check_forecast(rnd.design, rnd.outcome, ticker, workloads.FORECAST_HORIZON,
                                      rows, regime, checker, ("forecast", (k, ticker)))
            digests = checks.firm_fold_digests(rnd.outcome.records)
            if self.first_digests is None:
                self.first_round(rnd, digests)
            for (ticker, fold_id), digest in digests.items():
                op = checks.ff_op(ticker, fold_id) if fold_id >= 0 else backtest_op
                checker.expect(self.first_digests.get((ticker, fold_id)) == digest, op,
                               f"{ticker} fold {fold_id}: records differ from the first round")
        ops = set(rnd.ops)
        failed = (set(checker.failures) & ops) | rnd.failed_ops
        stray = set(checker.failures) - ops
        if stray:  # a failure no single operation owns fails the whole round
            failed = ops
        for op, messages in checker.failures.items():
            self.checker_failures.extend(f"{op}: {m}" for m in messages[:3])
        self.attempted += len(rnd.ops)
        self.failed += len(failed)

    def first_round(self, rnd, digests) -> None:
        """Keep the first round's digests and quality, and prove the checks on it."""
        self.first_digests = digests
        self.records_digest = checks.records_digest(rnd.outcome.records)
        self.moe_h1_mse = statistics.fmean(
            r["mse"] for r in rnd.outcome.records
            if r["split"] == "walk_forward" and r["model"] == "MoE" and r["horizon"] == 1
        )
        for case, rejected in checks.corruption_selftest(rnd.design, rnd.outcome).items():
            print(f"self-test: corrupted result ({case}) {'rejected' if rejected else 'NOT REJECTED'}")
            if not rejected:
                self.checker_failures.append(f"check accepted a corrupted result: {case}")

    def run(self) -> dict:
        trace = self.args.trace == 1
        if not trace:
            self.setup_once()  # fills __pycache__; not timed
        rounds, traced_layers, traced_s, untraced_s = 0, [], [], []
        setup_s, forecast_s, report_s = [], [], []
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < self.args.seconds:
            if not trace:  # set-ups spread over the run, not bunched at its start
                setup_s += [self.setup_once() for _ in range(SETUP_PER_ROUND)]
            traced = trace and rounds % 2 == 1
            rnd, tracer = self.one_round(traced, rounds)
            self.check_round(rnd)
            rounds += 1
            (traced_s if traced else untraced_s).append(rnd.backtest_s)
            forecast_s += rnd.forecast_s
            report_s += rnd.report_s
            if traced:
                traced_layers.append(tracing.layer_metrics(tracer))
                self.spans.append(tracer.export())
            del rnd, tracer  # hold one round's outputs at a time

        if trace:
            metrics = self.layer_summary(traced_layers, traced_s, untraced_s)
        else:
            # Every timing is the minimum over its samples in the run.  On a
            # shared 2-core host the CPU speed was seen to switch between two
            # levels about 1.45x apart for seconds at a time, on both cores at
            # once; a median reads whichever level the samples landed in, the
            # minimum repeats.
            metrics = {
                "setup_s": min(setup_s),
                "backtest_s": min(untraced_s),
                "forecast_s": min(forecast_s),
                "report_s": min(report_s),
                "peak_rss_mb": peak_rss_mb(children=self.is_cli),
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        for message in self.checker_failures[:20]:
            print(f"check failed: {message}", file=sys.stderr)
        print(f"workload {self.args.workload} seed {self.args.seed}: {rounds} rounds")
        if self.records_digest:
            print(f"records_digest {self.records_digest}")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value!r} {unit}")
        print(f"attempted {self.attempted} failed {self.failed}")
        return {
            "correct": not self.checker_failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }

    def layer_summary(self, traced_layers, traced_s, untraced_s) -> dict:
        metrics = {}
        for name, (kind, _) in tracing.LAYER_METRICS.items():
            values = [layers[name] for layers in traced_layers]
            if kind in tracing.COUNT_KINDS:
                if len(set(values)) != 1:
                    self.checker_failures.append(f"{name} differs between traced rounds: {values}")
                metrics[name] = (values[0], "count")
            else:
                metrics[name] = (min(values), "s")
        metrics["evaluation.moe_h1_mse"] = (self.moe_h1_mse, "z2")
        traced, untraced = min(traced_s), min(untraced_s)
        metrics["tracing.backtest_traced_s"] = (traced, "s")
        metrics["tracing.backtest_untraced_s"] = (untraced, "s")
        metrics["tracing.overhead_ratio"] = (traced / untraced, "ratio")
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "moecast" / "__init__.py").is_file():
        print(f"perfbench: no moecast sources under {ROOT / 'src'}; run it from a checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args, work)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if bench.spans:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracing.write_json(out / f"trace-{args.workload}-seed{args.seed}.json", bench.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
