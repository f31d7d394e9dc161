"""Report rendering: record persistence, regime tables, and plot data.

Every emitted file starts with a ``# fingerprint=... seed=...`` line so any
output can be traced back to the exact resolved configuration that produced
it.  Numbers are written with ``repr`` (records, plot data) or a fixed six
decimals (summary tables), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Mapping, Sequence

from .errors import DataError
from .evaluation import (
    HOLDOUT_SPLIT,
    METRIC_NAMES,
    MODELS,
    WALK_FORWARD_SPLIT,
    CellStats,
    MetricRecord,
    PredictionPoint,
    aggregate_stratified,
    improvement_pct,
)
from .market_data import PriceSeries, WindowMode
from .regime import RegimeLabel

__all__ = [
    "stamp",
    "records_to_csv",
    "records_from_csv",
    "predictions_to_csv",
    "render_tables_text",
    "tables_to_csv",
]

RECORD_COLUMNS = ("ticker", "fold_id", "split", "regime", "horizon", "model") + METRIC_NAMES

DISPLAY_NAMES = {
    "Linear": "Linear Regression",
    "LSTM": "LSTM (RNN)",
    "MoE": "Mixture of Experts",
}

SCALES = (
    ("standardized", "mse", "mae"),
    ("raw", "raw_mse", "raw_mae"),
)


def stamp(fingerprint: str, seed: int) -> str:
    return f"# fingerprint={fingerprint} seed={seed}\n"


def records_to_csv(records: Iterable[MetricRecord], fingerprint: str, seed: int) -> str:
    out = io.StringIO()
    out.write(stamp(fingerprint, seed))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    ordered = sorted(
        records, key=lambda r: (r.split, r.ticker, r.fold_id, r.horizon, r.model)
    )
    for r in ordered:
        metrics = (getattr(r, name) for name in METRIC_NAMES)
        writer.writerow(
            [r.ticker, r.fold_id, r.split, r.regime.value, r.horizon, r.model]
            + ["" if value is None else repr(value) for value in metrics]
        )
    return out.getvalue()


def records_from_csv(text: str) -> list[MetricRecord]:
    """The records of :func:`records_to_csv`'s text; a malformed row is a
    :class:`DataError` naming its 1-based line."""
    lines = enumerate(text.splitlines(), 1)
    numbered = [(k, line) for k, line in lines if not line.startswith("#")]
    reader = csv.reader(line for _, line in numbered)
    header = next(reader, None)
    if header is None or tuple(header) != RECORD_COLUMNS:
        raise DataError(f"record file header mismatch: {header}")
    records = []
    for row in reader:
        line = numbered[reader.line_num - 1][0]
        if len(row) != len(RECORD_COLUMNS):
            raise DataError(f"records line {line}: expected {len(RECORD_COLUMNS)} fields, "
                            f"got {len(row)}")
        try:
            records.append(MetricRecord(
                row[0], int(row[1]), row[2], RegimeLabel(row[3]), int(row[4]), row[5],
                # only mase may be blank: a constant training series has none
                **{name: float(text) if text or name != "mase" else None
                   for name, text in zip(METRIC_NAMES, row[6:])},
            ))
        except ValueError as exc:  # a bad number, an unknown regime, or a record's own check
            raise DataError(f"records line {line}: {exc}") from exc
    return records


def predictions_to_csv(
    predictions: Iterable[PredictionPoint],
    universe: Mapping[str, PriceSeries],
    mode: WindowMode,
    fingerprint: str,
    seed: int,
) -> str:
    """Tidy actual-vs-predicted rows (raw scale), one per model per date."""
    out = io.StringIO()
    out.write(stamp(fingerprint, seed))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["ticker", "date", "model", "actual", "predicted"])
    ordered = sorted(predictions, key=lambda p: (p.ticker, p.t_index, p.model, p.fold_id))
    for p in ordered:
        writer.writerow(
            [p.ticker, str(universe[p.ticker].dates[p.t_index + mode.offset]), p.model,
             repr(p.actual_raw), repr(p.predicted_raw)]
        )
    return out.getvalue()


def _fmt(value: float) -> str:
    return f"{value:.6f}"


_Cells = dict[tuple[RegimeLabel, str, int], dict[str, CellStats]]


def _split_report(records: Iterable[MetricRecord], split: str) -> _Cells:
    return aggregate_stratified(r for r in records if r.split == split)


def _regime_table(report: _Cells, regime: RegimeLabel,
                  mse_key: str, mae_key: str) -> list[str]:
    lines = [f"{'Model':<22}{'MSE':>12}{'MAE':>12}"]
    cells = {}
    for model in MODELS:
        key = (regime, model, 1)
        if key not in report:
            return [f"(no horizon-1 records for {regime.value} firms)"]
        stats = report[key]
        cells[model] = (stats[mse_key], stats[mae_key])
        lines.append(
            f"{DISPLAY_NAMES[model]:<22}{_fmt(stats[mse_key].mean):>12}"
            f"{_fmt(stats[mae_key].mean):>12}"
        )
    best_single_mse = min(cells["Linear"][0].mean, cells["LSTM"][0].mean)
    best_single_mae = min(cells["Linear"][1].mean, cells["LSTM"][1].mean)
    if best_single_mse > 0 and best_single_mae > 0:
        lines.append(
            "MoE vs best single model: "
            f"MSE {improvement_pct(cells['MoE'][0].mean, best_single_mse):+.2f}%, "
            f"MAE {improvement_pct(cells['MoE'][1].mean, best_single_mae):+.2f}%"
        )
    return lines


def _horizon_breakdown(report: _Cells, horizons: list[int],
                       mse_key: str, mae_key: str) -> list[str]:
    lines = [f"{'Regime':<10}{'Model':<22}{'Horizon':>8}{'MSE mean±std':>26}{'MAE mean±std':>26}"]
    for regime in (RegimeLabel.STABLE, RegimeLabel.VOLATILE):
        for model in MODELS:
            for h in horizons:
                key = (regime, model, h)
                if key not in report:
                    continue
                stats = report[key]
                m, a = stats[mse_key], stats[mae_key]
                lines.append(
                    f"{regime.value:<10}{DISPLAY_NAMES[model]:<22}{h:>8}"
                    f"{_fmt(m.mean) + ' ± ' + _fmt(m.std):>26}"
                    f"{_fmt(a.mean) + ' ± ' + _fmt(a.std):>26}"
                )
    return lines


def render_tables_text(records: Sequence[MetricRecord], fingerprint: str, seed: int) -> str:
    """The full plain-text report: per-regime tables, horizon and holdout breakdowns.

    Each split is aggregated once; a table reads the cells it shows from that
    one report, so a regime or horizon cell holds the same records, in the
    same order, as if its subset were aggregated on its own.
    """
    wf = _split_report(records, WALK_FORWARD_SPLIT)
    ho = _split_report(records, HOLDOUT_SPLIT)
    wf_horizons = sorted({h for _, _, h in wf})
    out = [stamp(fingerprint, seed).rstrip("\n"), ""]
    if 1 in wf_horizons:
        for scale, mse_key, mae_key in SCALES:
            for regime in (RegimeLabel.STABLE, RegimeLabel.VOLATILE):
                out.append(f"== Evaluation of models, {regime.value.lower()} firms "
                           f"({scale} scale, horizon 1) ==")
                out.extend(_regime_table(wf, regime, mse_key, mae_key))
                out.append("")
    multi = [h for h in wf_horizons if h > 1]
    if multi:
        out.append("== Walk-forward horizon breakdown (standardized scale) ==")
        out.extend(_horizon_breakdown(wf, multi, "mse", "mae"))
        out.append("")
    if ho:
        out.append("== Holdout stress firms (standardized scale) ==")
        out.extend(_horizon_breakdown(ho, sorted({h for _, _, h in ho}), "mse", "mae"))
        out.append("")
    return "\n".join(out) + "\n"


def tables_to_csv(records: Sequence[MetricRecord], fingerprint: str, seed: int) -> str:
    """Tidy aggregate cells: one row per (split, scale, regime, model, horizon, metric).

    No field can hold a comma, a quote or a newline (each is a fixed name, an
    integer or a float's ``repr``), so rows are formatted without a csv writer.
    """
    rows = [stamp(fingerprint, seed) + "split,scale,regime,model,horizon,metric,mean,std,count"]
    for split in (WALK_FORWARD_SPLIT, HOLDOUT_SPLIT):
        report = _split_report(records, split)
        for key in sorted(report, key=lambda k: (k[0].value, k[1], k[2])):
            cell = f"{key[0].value},{key[1]},{key[2]}"
            for metric, stats in sorted(report[key].items()):
                scale = "raw" if metric.startswith("raw_") else "standardized"
                rows.append(f"{split},{scale},{cell},{metric.removeprefix('raw_')},"
                            f"{stats.mean!r},{stats.std!r},{stats.count}")
    return "\n".join(rows) + "\n"
