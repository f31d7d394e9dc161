#!/usr/bin/env python3
"""A compact walk-forward backtest with stratified reporting.

Runs the full engine on a small synthetic universe: per-fold reclassification
under the cross-sectional median rule, from-scratch expert retraining, single
step and recursive multi-horizon scoring, and the per-regime summary tables.
"""

from moecast import (
    BacktestSettings,
    HorizonSpec,
    RegimePolicy,
    SyntheticSpec,
    TrainConfig,
    generate_synthetic,
    plan_walk_forward,
    render_tables_text,
    run_walk_forward,
)


def main():
    universe = generate_synthetic(SyntheticSpec(n_stable=3, n_volatile=3, length=160), seed=42)
    plan = plan_walk_forward(160, init_train=80, val_len=20, step=20)
    print(f"{len(universe)} firms, {len(plan)} folds "
          f"(validation starts at {[f.val_range.start for f in plan]})")

    settings = BacktestSettings(
        window=10,
        train=TrainConfig(max_epochs=15, patience=5),
        hidden=20,
        horizons=HorizonSpec((5, 20)),
        seed=42,
    )
    result = run_walk_forward(universe, plan, RegimePolicy.median(21), settings)
    print(f"{len(result.records)} metric records, "
          f"{len(result.predictions)} stored single-step predictions\n")

    for fold in plan:
        volatile = sorted(
            ticker for (ticker, fold_id), fm in result.models.items()
            if fold_id == fold.fold_id and fm.regime.value == "Volatile"
        )
        print(f"fold {fold.fold_id}: volatile = {volatile}")
    print()
    print(render_tables_text(list(result.records), fingerprint="demo", seed=42))


if __name__ == "__main__":
    main()
