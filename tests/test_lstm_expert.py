"""LSTM cell, BPTT gradients, Adam, and the early-stopping trainer."""

import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from moecast.errors import FitError
from moecast.lstm_expert import (
    LstmParams,
    TrainConfig,
    _Workspace,
    adam_step,
    backward_bptt,
    forward_batch,
    init_params,
    predict_lstm,
    recurse_lstm,
    train_early_stopping,
)
from moecast import lstm_expert
import reference
from reference import cell_step, loss_mse, sigmoid

PARAM_FIELDS = lstm_expert.PARAM_FIELDS


def batch_mse(params, inputs, targets):
    preds, _ = forward_batch(params, inputs, _Workspace())
    return loss_mse(preds, targets)


def first_adam_step(params, grads, cfg, work):
    """A copy of ``params`` after one Adam step from zero moments, and the moments."""
    stepped = params.with_theta(params.theta.copy())
    moments = (np.zeros_like(params.theta), np.zeros_like(params.theta))
    adam_step(stepped, grads, moments, 1, cfg, work)
    return stepped, moments


def finite_difference_grads(params, inputs, targets, step=1e-5):
    """Central-difference gradient of the batch MSE, one parameter entry at a time."""
    grads = {}
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + step
            up = batch_mse(params, inputs, targets)
            flat[k] = original - step
            down = batch_mse(params, inputs, targets)
            flat[k] = original
            gflat[k] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for name in PARAM_FIELDS:
        a = np.asarray(analytic[name], dtype=float)
        b = np.asarray(numeric[name], dtype=float)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


def poison_init(monkeypatch, seeds, index):
    """Make the trainer's ``init_params(hidden, seeds)`` start with a NaN at ``W_i[index]``."""
    real = lstm_expert.init_params

    def init_params(hidden, seed):
        params = real(hidden, seed)
        if seed == seeds:
            params.W_i[index] = np.nan
        return params

    monkeypatch.setattr(lstm_expert, "init_params", init_params)


class TestGradientOracle:
    def test_bptt_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_params(hidden=4, seed=11)
        inputs = rng.normal(size=(3, 5))
        targets = rng.normal(size=3)
        preds, tape = forward_batch(params, inputs, _Workspace())
        analytic = backward_bptt(params, targets, tape, _Workspace()).arrays()
        numeric = finite_difference_grads(params, inputs, targets)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_error_batch_gives_near_zero_gradients(self):
        params = init_params(hidden=3, seed=2)
        inputs = np.random.default_rng(3).normal(size=(4, 6))
        preds, tape = forward_batch(params, inputs, _Workspace())
        grads = backward_bptt(params, preds.copy(), tape, _Workspace())
        for g in grads.arrays().values():
            assert np.abs(g).max() < 1e-12

    def test_doubling_error_scale_doubles_gradients(self):
        rng = np.random.default_rng(5)
        params = init_params(hidden=3, seed=8)
        inputs = rng.normal(size=(4, 5))
        preds, tape = forward_batch(params, inputs, _Workspace())
        delta = rng.normal(size=4)
        g1 = backward_bptt(params, preds - delta, tape, _Workspace())
        g2 = backward_bptt(params, preds - 2.0 * delta, tape, _Workspace())
        for name in PARAM_FIELDS:
            np.testing.assert_allclose(
                getattr(g2, name), 2.0 * getattr(g1, name), rtol=1e-12, atol=1e-15
            )

    def test_mismatched_tape_rejected(self):
        params = init_params(hidden=3, seed=1)
        _, tape = forward_batch(params, np.zeros((4, 5)), _Workspace())
        with pytest.raises(FitError):
            backward_bptt(params, np.zeros(3), tape, _Workspace())


class TestInitParams:
    def test_same_seed_is_bit_identical(self):
        a = init_params(6, seed=42)
        b = init_params(6, seed=42)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_shapes(self):
        p = init_params(50, seed=0)
        assert p.W_f.shape == (50, 51)
        assert p.W_y.shape == (1, 50)
        assert p.b_y.shape == (1,)
        assert p.hidden == 50

    def test_weights_within_fan_bound_and_biases(self):
        p = init_params(5, seed=3)
        bound_gate = math.sqrt(6.0 / (5 + 6))
        for name in ("W_f", "W_i", "W_C", "W_o"):
            assert np.abs(getattr(p, name)).max() <= bound_gate
        assert np.abs(p.W_y).max() <= math.sqrt(6.0 / (1 + 5))
        assert np.array_equal(p.b_f, np.ones(5))
        for name in ("b_i", "b_C", "b_o"):
            assert np.array_equal(getattr(p, name), np.zeros(5))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(FitError):
            init_params(0, seed=0)

    @pytest.mark.parametrize("seed", [7, (3, 17, 99)], ids=["one firm", "stack"])
    def test_draws_match_an_independent_reference_bit_for_bit(self, seed):
        # each seed draws W_f, W_i, W_C, W_o, then W_y, from its own generator,
        # every matrix from U(-b, b) with b = sqrt(6 / (rows + cols))
        hidden = 5

        def reference(s):
            rng = np.random.default_rng(s)
            draws = [
                rng.uniform(-math.sqrt(6.0 / sum(shape)), math.sqrt(6.0 / sum(shape)), shape)
                for shape in [(hidden, hidden + 1)] * 4 + [(1, hidden)]
            ]
            biases = [np.ones(hidden), np.zeros(3 * hidden)]
            return np.concatenate([d.ravel() for d in draws[:4]] + biases + [draws[4][0], [0.0]])

        if isinstance(seed, tuple):
            expected = np.stack([reference(s) for s in seed])
        else:
            expected = reference(seed)
        assert np.array_equal(init_params(hidden, seed).theta, expected)


class TestLstmParams:
    def test_fields_are_views_of_theta_in_layout_order(self):
        p = init_params(3, seed=1)
        assert p.theta.shape == (4 * 3 * (3 + 1) + 5 * 3 + 1,)
        flat = np.concatenate([getattr(p, name).reshape(-1) for name in PARAM_FIELDS])
        assert np.array_equal(flat, p.theta)
        for name in PARAM_FIELDS:
            assert np.shares_memory(getattr(p, name), p.theta)

    def test_write_through_a_view_changes_theta(self):
        p = init_params(3, seed=1)
        p.W_C[1, 2] = 7.5
        assert p.theta[2 * 3 * 4 + 1 * 4 + 2] == 7.5
        p.b_y[...] = -2.0
        assert p.theta[-1] == -2.0
        p.theta[:] = 0.0
        assert not p.W_f.any()

    def test_from_arrays_rejects_a_wrongly_shaped_array(self):
        good = init_params(3, seed=1).arrays()
        assert np.array_equal(LstmParams.from_arrays(good).theta, init_params(3, seed=1).theta)
        for name in PARAM_FIELDS:
            bad = dict(good)
            bad[name] = np.zeros(good[name].size + 1)
            with pytest.raises(FitError):
                LstmParams.from_arrays(bad)
        with pytest.raises(FitError):
            LstmParams.from_arrays(dict(good, W_f=np.zeros((3, 3))))
        # a consistent set of gates laid out for two values per step
        two_values = dict(good, **{name: np.zeros((3, 5)) for name in PARAM_FIELDS[:4]})
        with pytest.raises(FitError, match=r"\(H, H \+ 1\)"):
            LstmParams.from_arrays(two_values)

    @pytest.mark.parametrize("seed", [1, (1, 2, 3)], ids=["one firm", "stack"])
    def test_pickle_round_trip_keeps_the_views_on_theta(self, seed):
        p = init_params(4, seed=seed)
        data = pickle.dumps(p)
        q = pickle.loads(data)
        assert np.array_equal(q.theta, p.theta)
        assert q.hidden == p.hidden
        for name in PARAM_FIELDS:
            assert np.shares_memory(getattr(q, name), q.theta)
            assert np.array_equal(getattr(q, name), getattr(p, name))
        assert np.shares_memory(q.W_gates, q.theta)
        q.W_f[...] = 0.0  # W_f is theta's first H * (H + 1) entries
        assert not q.theta[..., :4 * 5].any()
        assert p.W_f.all()
        assert len(data) < 2 * p.theta.nbytes

    def test_constructor_rejects_a_theta_of_the_wrong_size(self):
        theta = init_params(3, seed=1).theta
        with pytest.raises(FitError):
            LstmParams(theta[:-1], 3)
        with pytest.raises(FitError):
            LstmParams(theta, 2)


class TestCellStep:
    def zero_params(self, hidden=3, forget_bias=0.0):
        p = init_params(hidden, seed=0)
        for name in PARAM_FIELDS:
            getattr(p, name)[...] = 0.0
        p.b_f[...] = forget_bias
        return p

    def test_zero_everything_gives_zero_hidden(self):
        p = self.zero_params()
        h, C = cell_step(p, np.array([1.7]), np.zeros(3), np.zeros(3))
        assert np.array_equal(h, np.zeros(3))
        assert np.array_equal(C, np.zeros(3))

    def test_forget_bias_alone_cannot_wake_zero_cell(self):
        p = self.zero_params(forget_bias=1.0)
        h, _ = cell_step(p, np.array([0.0]), np.zeros(3), np.zeros(3))
        assert np.array_equal(h, np.zeros(3))

    def test_repeated_calls_bit_identical(self):
        p = init_params(4, seed=9)
        prev = (np.full(4, 0.1), np.full(4, -0.2))
        a = cell_step(p, np.array([0.5]), *prev)
        b = cell_step(p, np.array([0.5]), *prev)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_gate_ranges_on_random_inputs(self):
        rng = np.random.default_rng(0)
        p = init_params(8, seed=4)
        h, C = np.zeros(8), np.zeros(8)
        for _ in range(50):
            h, C = cell_step(p, rng.normal(size=1) * 3.0, h, C)
            assert np.all(np.abs(h) < 1.0)

    def test_shape_mismatch(self):
        p = init_params(3, seed=0)
        with pytest.raises(FitError):
            cell_step(p, np.array([1.0, 2.0]), np.zeros(3), np.zeros(3))


class TestForward:
    def test_zero_params_predict_zero(self):
        p = init_params(4, seed=0)
        for name in PARAM_FIELDS:
            getattr(p, name)[...] = 0.0
        preds, _ = forward_batch(p, np.linspace(-1, 1, 10)[None], _Workspace())
        assert preds[0] == 0.0

    def test_length_one_sequence_matches_manual_cell_step(self):
        p = init_params(4, seed=6)
        x = np.array([0.3])
        h, _ = cell_step(p, x, np.zeros(4), np.zeros(4))
        expected = float(p.W_y[0] @ h + p.b_y[0])
        preds, _ = forward_batch(p, x[None], _Workspace())
        assert preds[0] == pytest.approx(expected, abs=1e-15)

    def test_tape_replay_reproduces_prediction(self):
        p = init_params(5, seed=12)
        window = np.random.default_rng(1).normal(size=9)
        preds, tape = forward_batch(p, window[None], _Workspace())
        last_h = tape[3]  # the tape's h
        replayed = float(last_h[0] @ p.W_y[0] + p.b_y[0])
        assert replayed == preds[0]

    def test_batch_forward_consistent_with_sequence(self):
        p = init_params(5, seed=12)
        windows = np.random.default_rng(2).normal(size=(6, 7))
        preds, _ = forward_batch(p, windows, _Workspace())
        singles = [forward_batch(p, w[None], _Workspace())[0][0] for w in windows]
        # batched matmuls may reorder the reduction, so exact bit equality is
        # not guaranteed between batch sizes
        np.testing.assert_allclose(preds, np.array(singles), rtol=1e-12, atol=1e-15)

    def test_empty_sequence_rejected(self, monkeypatch):
        # the forward pass runs only inside the fit, whose shape checks
        # reject windows of no steps before any step is taken
        def forbidden(*args, **kwargs):
            raise AssertionError("zero-step windows reached the forward pass")

        monkeypatch.setattr(lstm_expert, "forward_batch", forbidden)
        for seeds in ((0,), (0, 1)):
            F = len(seeds)
            with pytest.raises(FitError, match="steps >= 1"):
                train_early_stopping(
                    np.zeros((F, 4, 0)), np.zeros((F, 4)), np.zeros((F, 2, 0)), np.zeros((F, 2)),
                    TrainConfig(max_epochs=1, patience=1), seeds, hidden=3,
                )

    def test_predict_lstm_matches_forward_batch(self):
        p = init_params(4, seed=3)
        window = np.arange(10.0) / 10.0
        assert predict_lstm(p, window) == forward_batch(p, window[None], _Workspace())[0][0]

    def test_predict_lstm_builds_no_tape(self, monkeypatch):
        # a tape keeps nine small arrays per step, megabytes over this
        # window; a tape-free pass holds a few steps' worth at a time
        p = init_params(8, seed=3)
        window = np.random.default_rng(5).normal(size=3000)
        expected = forward_batch(p, window[None], _Workspace())[0][0]

        def peak_bytes(fn) -> int:
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = 200_000
        assert peak_bytes(lambda: forward_batch(p, window[None], _Workspace())) > bound
        assert peak_bytes(lambda: predict_lstm(p, window)) < bound

        def forbidden(*args, **kwargs):
            raise AssertionError("predict_lstm must not build a tape")

        monkeypatch.setattr(lstm_expert, "forward_batch", forbidden)
        assert predict_lstm(p, window) == expected

    def test_predict_lstm_rejects_bad_shapes(self):
        p = init_params(3, seed=0)
        for bad in (np.empty(0), np.zeros((4, 0)), np.float64(1.0)):
            with pytest.raises(FitError):
                predict_lstm(p, bad)
        stack = init_params(3, (1, 2))
        for bad in (np.zeros(5), np.zeros((3, 5)), np.zeros((2, 0))):
            with pytest.raises(FitError):
                predict_lstm(stack, bad)

    @pytest.mark.parametrize("seed", [1, (1, 2)], ids=["one firm", "stack"])
    @pytest.mark.parametrize("width, h", [(4, 9), (6, 2), (1, 3), (3, 1)])
    def test_recursion_feeds_each_prediction_back_bit_for_bit(self, seed, width, h):
        # a window at a time: predict_lstm on the last width values, appended
        p = init_params(5, seed=seed)
        lead = p.theta.shape[:-1]
        windows = np.random.default_rng(width * h).normal(size=lead + (3, width))
        path = recurse_lstm(p, windows, h, lambda m, y: y)
        assert path.shape == lead + (3, h)
        stream = windows
        for m in range(h):
            y = predict_lstm(p, stream[..., -width:])
            assert np.array_equal(path[..., m], y), m
            stream = np.concatenate([stream, y[..., None]], axis=-1)

    def test_recursion_feeds_back_what_feedback_returns(self):
        p = init_params(4, seed=2)
        window = np.array([0.5, -0.25, 1.0])
        seen = []

        def halve(m, y):
            seen.append(m)
            return y / 2

        path = recurse_lstm(p, window[None], 5, halve)
        assert seen == list(range(5))
        stream = list(window)
        for m in range(5):
            assert path[0, m] == predict_lstm(p, np.array(stream[-3:])) / 2
            stream.append(path[0, m])
        assert recurse_lstm(p, window[None], 0, halve).shape == (1, 0)

    def test_recursion_rejects_bad_shapes(self):
        stack = init_params(3, (1, 2))
        for bad in (np.zeros(5), np.zeros((3, 5)), np.zeros((2, 0))):
            with pytest.raises(FitError):
                recurse_lstm(stack, bad, 4, lambda m, y: y)
        with pytest.raises(FitError):
            recurse_lstm(stack, np.zeros((2, 5)), -1, lambda m, y: y)

    @pytest.mark.parametrize("seed", [1, (1, 2)], ids=["one firm", "stack"])
    def test_a_trailing_value_axis_is_rejected(self, seed):
        # a step reads one value, so (batch, steps, 1) is not a batch
        seeds = seed if isinstance(seed, tuple) else (seed,)
        inputs = np.zeros((len(seeds), 4, 5, 1))
        with pytest.raises(FitError):
            train_early_stopping(
                inputs, np.zeros((len(seeds), 4)), inputs[:, :2], np.zeros((len(seeds), 2)),
                TrainConfig(max_epochs=1, patience=1), seeds, hidden=3,
            )


def test_sigmoid_matches_two_branch_reference_bit_for_bit():
    def reference(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(4)
    x = np.concatenate(
        [
            np.linspace(-800.0, 800.0, 4001),
            rng.normal(0.0, 3.0, 5000),
            [0.0, -0.0, np.inf, -np.inf, np.nan],
        ]
    )
    got = sigmoid(x)
    assert np.array_equal(got, reference(x), equal_nan=True)
    # the cell applies one call to the four stacked gate pre-activations,
    # written in place into buffers it holds
    stacked = rng.normal(0.0, 4.0, size=(4, 16, 50))
    got = sigmoid(stacked)
    assert np.array_equal(got, reference(stacked.ravel()).reshape(stacked.shape))
    for k in range(4):
        assert np.array_equal(got[k], sigmoid(stacked[k]))
    work = (np.empty_like(stacked), np.empty_like(stacked))
    assert lstm_expert._sigmoid(stacked, stacked, work) is stacked
    assert np.array_equal(stacked, got)


class TestLossMse:
    def test_perfect_predictions(self):
        assert loss_mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_errors(self):
        assert loss_mse([1.0, -1.0], [0.0, 0.0]) == 1.0

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(4)
        err = rng.normal(size=20)
        base = loss_mse(err, np.zeros(20))
        assert loss_mse(2.0 * err, np.zeros(20)) == pytest.approx(4.0 * base, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(FitError):
            loss_mse([1.0], [1.0, 2.0])


class TestAdam:
    def make(self, hidden=3):
        return init_params(hidden, seed=5), TrainConfig()

    def test_zero_gradient_is_a_noop(self):
        params, cfg = self.make()
        preds, tape = forward_batch(params, np.zeros((2, 4)), _Workspace())
        zero = backward_bptt(params, preds.copy(), tape, _Workspace())
        new_params, _ = first_adam_step(params, zero, cfg, _Workspace())
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(new_params, name), getattr(params, name))

    def test_first_step_has_learning_rate_magnitude(self):
        params, cfg = self.make()
        rng = np.random.default_rng(6)
        inputs = rng.normal(size=(4, 5))
        preds, tape = forward_batch(params, inputs, _Workspace())
        grads = backward_bptt(params, preds + rng.normal(size=4), tape, _Workspace())
        new_params, (m, v) = first_adam_step(params, grads, cfg, _Workspace())
        # the moments, updated in place from zero
        assert np.array_equal(m, (1.0 - cfg.adam_beta1) * grads.theta)
        assert np.array_equal(v, (1.0 - cfg.adam_beta2) * grads.theta * grads.theta)
        for name in PARAM_FIELDS:
            g = getattr(grads, name)
            delta = getattr(new_params, name) - getattr(params, name)
            expected = -cfg.learning_rate * g / (np.abs(g) + cfg.adam_eps)
            np.testing.assert_allclose(delta, expected, rtol=1e-9, atol=1e-18)
            nonzero = np.abs(g) > 1e-6
            assert np.allclose(np.abs(delta[nonzero]), cfg.learning_rate, rtol=1e-3)

    def test_clipping_caps_global_norm_and_changes_training(self):
        params = init_params(4, seed=5)
        rng = np.random.default_rng(6)
        inputs = rng.normal(size=(8, 5)) * 3.0
        preds, tape = forward_batch(params, inputs, _Workspace())
        grads = backward_bptt(params, preds + 5.0, tape, _Workspace())
        norm = float(np.linalg.norm(grads.theta))
        clipped = lstm_expert._clipped(grads, norm / 2.0)
        assert float(np.linalg.norm(clipped.theta)) == pytest.approx(norm / 2.0, rel=1e-12)
        assert lstm_expert._clipped(grads, 2.0 * norm) is grads
        cfg_off = TrainConfig(max_epochs=2, patience=2, batch_size=4)
        cfg_on = TrainConfig(max_epochs=2, patience=2, batch_size=4, clip_norm=1e-3)
        inputs, targets = inputs[None], rng.normal(size=(1, 8)) * 10.0
        off, _ = train_early_stopping(inputs[:, :6], targets[:, :6], inputs[:, 6:], targets[:, 6:],
                                      cfg_off, (3,), hidden=4)
        on, _ = train_early_stopping(inputs[:, :6], targets[:, :6], inputs[:, 6:], targets[:, 6:],
                                     cfg_on, (3,), hidden=4)
        assert any(
            not np.array_equal(getattr(off, name), getattr(on, name))
            for name in PARAM_FIELDS
        )

    def test_identical_seeds_identical_trajectories(self):
        inputs = np.random.default_rng(8).normal(size=(1, 10, 5))
        targets = np.random.default_rng(9).normal(size=(1, 10))
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=4)
        split = (inputs[:, :8], targets[:, :8], inputs[:, 8:], targets[:, 8:], cfg, (21,))
        run1, _ = train_early_stopping(*split, hidden=4)
        run2, _ = train_early_stopping(*split, hidden=4)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(run1, name), getattr(run2, name))


class TestTrainEarlyStopping:
    def test_scripted_worsening_validation_stops_after_patience(self, monkeypatch):
        scripted = iter([1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9])
        snapshots = []

        def fake_val_mae(params, val_inputs, val_targets):
            snapshots.append(params.with_theta(params.theta.copy()))
            return np.array([next(scripted)])

        monkeypatch.setattr(lstm_expert, "_validation_mae", fake_val_mae)
        rng = np.random.default_rng(10)
        inputs = rng.normal(size=(1, 12, 5))
        targets = rng.normal(size=(1, 12))
        cfg = TrainConfig(max_epochs=50, patience=5, batch_size=4)
        best, (history,) = train_early_stopping(
            inputs[:, :10], targets[:, :10], inputs[:, 10:], targets[:, 10:], cfg, (3,), hidden=4
        )
        assert len(history) == 6
        assert [h.epoch for h in history] == [1, 2, 3, 4, 5, 6]
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(best, name), getattr(snapshots[0], name))
        assert all(h.best_val_mae == 1.0 for h in history)

    def test_max_epochs_one_runs_exactly_one_epoch(self):
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(1, 8, 4))
        targets = rng.normal(size=(1, 8))
        cfg = TrainConfig(max_epochs=1, patience=1)
        _, (history,) = train_early_stopping(
            inputs[:, :6], targets[:, :6], inputs[:, 6:], targets[:, 6:], cfg, (0,), hidden=3
        )
        assert len(history) == 1

    def test_best_so_far_is_monotone(self):
        rng = np.random.default_rng(12)
        inputs = rng.normal(size=(1, 20, 5))
        targets = rng.normal(size=(1, 20))
        cfg = TrainConfig(max_epochs=8, patience=8, batch_size=8)
        _, (history,) = train_early_stopping(
            inputs[:, :16], targets[:, :16], inputs[:, 16:], targets[:, 16:], cfg, (1,), hidden=4
        )
        best = [h.best_val_mae for h in history]
        assert best == sorted(best, reverse=True) or all(
            b2 <= b1 for b1, b2 in zip(best, best[1:])
        )

    def test_training_beats_initial_mse_on_noiseless_linear_sequence(self):
        t = np.arange(60, dtype=float)
        values = 0.05 * t - 1.5
        w = 8
        windows = np.stack([values[k:k + w] for k in range(len(values) - w)])
        targets = values[w:]
        cfg = TrainConfig(max_epochs=15, patience=15, batch_size=8)
        initial = init_params(8, seed=7)
        preds0, _ = forward_batch(initial, windows[:40], _Workspace())
        epoch0_mse = loss_mse(preds0, targets[:40])
        params, _ = train_early_stopping(
            windows[None, :40], targets[None, :40], windows[None, 40:], targets[None, 40:],
            cfg, (7,), hidden=8,
        )
        preds, _ = forward_batch(params.firm(0), windows[:40], _Workspace())
        assert loss_mse(preds, targets[:40]) < epoch0_mse

    def test_non_finite_init_raises(self, monkeypatch):
        rng = np.random.default_rng(13)
        inputs = rng.normal(size=(1, 10, 5))
        targets = rng.normal(size=(1, 10))
        poison_init(monkeypatch, (2,), (0, 0, 0))
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=4)
        with pytest.raises(FitError, match="diverged"):
            train_early_stopping(
                inputs[:, :8], targets[:, :8], inputs[:, 8:], targets[:, 8:], cfg, (2,), hidden=4
            )

    def test_no_finite_validation_epoch_raises(self):
        # every update overflows, so no epoch validates finitely and the
        # finite initial parameters must not come back as if trained
        rng = np.random.default_rng(14)
        inputs = rng.normal(size=(1, 10, 5))
        targets = rng.normal(size=(1, 10)) * 1e200
        cfg = TrainConfig(max_epochs=2, patience=2, learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(FitError, match="diverged"):
            train_early_stopping(inputs[:, :8], targets[:, :8], inputs[:, 8:], targets[:, 8:],
                                 cfg, (1,), hidden=4)

    def test_empty_split_rejected(self):
        with pytest.raises(FitError):
            train_early_stopping(
                np.zeros((1, 0, 5)), np.zeros((1, 0)), np.zeros((1, 2, 5)), np.zeros((1, 2)),
                TrainConfig(), (0,), hidden=3,
            )

    @pytest.mark.parametrize(
        "val_x_shape, val_y_shape",
        [((1, 1, 4), (1, 5)), ((1, 5, 3), (1, 5)), ((1, 6, 4), (1, 5))],
        ids=["one input row", "shorter windows", "more input rows"],
    )
    def test_mismatched_validation_split_rejected_naming_both_shapes(
        self, val_x_shape, val_y_shape
    ):
        # the training split is 8 windows of 4 steps
        with pytest.raises(FitError, match=rf"{re.escape(str(val_x_shape))}.*"
                                           rf"{re.escape(str(val_y_shape))}"):
            train_early_stopping(
                np.zeros((1, 8, 4)), np.zeros((1, 8)), np.zeros(val_x_shape), np.zeros(val_y_shape),
                TrainConfig(max_epochs=1, patience=1), (0,), hidden=3,
            )


def stacked_problem():
    """Three firms' windows of phase-shifted sine waves: 18 training samples
    (two full batches of 8 and a trailing batch of 2) and 5 validation ones."""
    noise = np.random.default_rng(1)
    base = np.sin(np.arange(80) / 4.0)
    x = np.stack(
        [np.stack([base[k + o:k + o + 6] for k in range(23)]) for o in (0, 7, 19)]
    ) + noise.normal(0.0, 0.05, size=(3, 23, 6))
    y = 0.9 * x[:, :, -1]
    return x[:, :18], y[:, :18], x[:, 18:], y[:, 18:]


STACK_SEEDS = (3, 17, 99)


class TestStackedFirms:
    def test_params_stack_and_firm_views(self):
        stack = init_params(3, STACK_SEEDS)
        assert stack.theta.shape == (3, 4 * 3 * 4 + 5 * 3 + 1)
        assert stack.W_f.shape == (3, 3, 4) and stack.b_y.shape == (3, 1)
        for k, seed in enumerate(STACK_SEEDS):
            firm = stack.firm(k)
            assert np.array_equal(firm.theta, init_params(3, seed).theta)
            assert np.shares_memory(firm.W_o, stack.theta)
        again = LstmParams(np.stack([stack.firm(k).theta for k in range(3)]), 3)
        assert np.array_equal(again.theta, stack.theta)

    def test_forward_backward_adam_equal_separate_calls(self):
        stack = init_params(5, STACK_SEEDS)
        rng = np.random.default_rng(2)
        inputs, targets = rng.normal(size=(3, 7, 6)), rng.normal(size=(3, 7))
        preds, tape = forward_batch(stack, inputs, _Workspace())
        grads = backward_bptt(stack, targets, tape, _Workspace())
        stepped, _ = first_adam_step(stack, grads, TrainConfig(), _Workspace())
        for k in range(3):
            firm = stack.firm(k)
            p, t = forward_batch(firm, inputs[k], _Workspace())
            g = backward_bptt(firm, targets[k], t, _Workspace())
            s, _ = first_adam_step(firm, g, TrainConfig(), _Workspace())
            assert np.array_equal(preds[k], p)
            assert np.array_equal(grads.theta[k], g.theta)
            assert np.array_equal(stepped.theta[k], s.theta)

    @pytest.mark.parametrize("clip_norm", [None, 0.05], ids=["unclipped", "clipped"])
    def test_stack_equals_separate_fits(self, clip_norm):
        train_x, train_y, val_x, val_y = stacked_problem()
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=30, patience=2,
                          clip_norm=clip_norm)
        stack, histories = train_early_stopping(
            train_x, train_y, val_x, val_y, cfg, STACK_SEEDS, hidden=5
        )
        assert stack.theta.shape[0] == 3 and len(histories) == 3
        for k, seed in enumerate(STACK_SEEDS):
            alone, (history,) = train_early_stopping(
                train_x[k:k + 1], train_y[k:k + 1], val_x[k:k + 1], val_y[k:k + 1], cfg, (seed,),
                hidden=5,
            )
            assert np.array_equal(stack.theta[k], alone.theta[0])
            assert histories[k] == history
        # patience runs out at a different epoch for every firm
        assert len({len(h) for h in histories}) == 3

    @pytest.mark.parametrize("clip_norm", [None, 0.05], ids=["unclipped", "clipped"])
    def test_fit_equals_the_reference_loop_bit_for_bit(self, clip_norm):
        # the reference calls the trainer's step functions on new workspaces,
        # so on fresh arrays, one firm at a time: three firms, a trailing
        # batch of 2, and firms that leave the stack at different epochs
        problem = stacked_problem()
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=30, patience=2,
                          clip_norm=clip_norm)
        stack, histories = train_early_stopping(*problem, cfg, STACK_SEEDS, hidden=5)
        expected, expected_histories = reference.train_early_stopping(
            *problem, cfg, STACK_SEEDS, hidden=5
        )
        assert np.array_equal(stack.theta, expected.theta)
        assert histories == expected_histories
        assert len({len(h) for h in histories}) == 3

    def test_scripted_validation_stops_each_firm_after_its_patience(self, monkeypatch):
        # firm 0 never improves after epoch 1; firm 1 improves until epoch 3;
        # firm 2 improves every epoch and runs to max_epochs
        scripted = {0: [1.0] + [2.0] * 9, 1: [3.0, 2.0, 1.0] + [5.0] * 7,
                    2: [float(10 - e) for e in range(10)]}
        last_epoch = {0: 3, 1: 5, 2: 10}
        snapshots = []

        def fake_val_mae(params, val_inputs, val_targets):
            snapshots.append(params.with_theta(params.theta.copy()))
            epoch = len(snapshots)
            live = [f for f in range(3) if epoch <= last_epoch[f]]
            assert params.theta.shape[0] == val_targets.shape[0] == len(live)
            return np.array([scripted[f][epoch - 1] for f in live])

        monkeypatch.setattr(lstm_expert, "_validation_mae", fake_val_mae)
        train_x, train_y, val_x, val_y = stacked_problem()
        cfg = TrainConfig(max_epochs=10, patience=2, batch_size=8)
        best, histories = train_early_stopping(
            train_x, train_y, val_x, val_y, cfg, STACK_SEEDS, hidden=4
        )
        assert [len(h) for h in histories] == [3, 5, 10]
        assert [s.theta.shape[0] for s in snapshots] == [3] * 3 + [2] * 2 + [1] * 5
        assert np.array_equal(best.theta[0], snapshots[0].theta[0])
        assert np.array_equal(best.theta[1], snapshots[2].theta[1])
        assert np.array_equal(best.theta[2], snapshots[9].theta[0])
        assert [h.best_val_mae for h in histories[1]] == [3.0, 2.0, 1.0, 1.0, 1.0]

    def test_non_finite_init_names_the_firm(self, monkeypatch):
        train_x, train_y, val_x, val_y = stacked_problem()
        poison_init(monkeypatch, STACK_SEEDS, (1, 0, 0))
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=8)
        with pytest.raises(FitError, match="firm 1: the fit diverged") as caught:
            train_early_stopping(train_x, train_y, val_x, val_y, cfg, STACK_SEEDS, hidden=4)
        assert caught.value.firm == 1

    def test_seed_count_must_match_the_stack(self):
        train_x, train_y, val_x, val_y = stacked_problem()
        cfg = TrainConfig(max_epochs=1, patience=1)
        with pytest.raises(FitError):
            train_early_stopping(train_x, train_y, val_x, val_y, cfg, (1, 2), hidden=4)
        with pytest.raises(FitError):
            train_early_stopping(train_x, train_y, val_x, val_y, cfg, (), hidden=4)

    def test_predict_lstm_stacked_windows_equal_single_window_calls(self):
        stack = init_params(6, STACK_SEEDS)
        windows = np.random.default_rng(3).normal(size=(3, 4, 2, 7))
        preds = predict_lstm(stack, windows)
        assert preds.shape == (3, 4, 2)
        for k in range(3):
            for index in np.ndindex(4, 2):
                assert preds[k][index] == predict_lstm(stack.firm(k), windows[k][index])
        # unstacked params broadcast over any leading window axes
        shared = stack.firm(1)
        assert np.array_equal(
            predict_lstm(shared, windows[:, :, 0]),
            np.array([[predict_lstm(shared, w) for w in firm] for firm in windows[:, :, 0]]),
        )
        with pytest.raises(FitError):
            predict_lstm(stack, windows[:2])


class TestBuffers:
    """A pass owns its buffers and a fit its workspace: nothing returned aliases
    a buffer that a later call overwrites."""

    def test_a_fitted_stack_is_unchanged_by_a_later_fit(self):
        problem = stacked_problem()
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=3, patience=3)
        first, _ = train_early_stopping(*problem, cfg, STACK_SEEDS, hidden=4)
        kept = first.theta.copy()
        second, _ = train_early_stopping(*problem, cfg, STACK_SEEDS[::-1], hidden=4)
        assert np.array_equal(first.theta, kept)
        assert not np.shares_memory(first.theta, second.theta)

    def test_stacked_predictions_share_no_memory(self):
        stack = init_params(4, STACK_SEEDS)
        windows = np.random.default_rng(6).normal(size=(3, 5, 7))
        first = predict_lstm(stack, windows)
        kept = first.copy()
        second = predict_lstm(stack, -windows)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    def test_a_kept_tape_is_unchanged_by_a_pass_on_another_workspace(self):
        stack = init_params(4, STACK_SEEDS)
        rng = np.random.default_rng(7)
        inputs, targets = rng.normal(size=(3, 6, 5)), rng.normal(size=(3, 6))
        work, other = _Workspace(), _Workspace()
        preds, tape = forward_batch(stack, inputs, work)
        kept = [a.copy() for a in tape]
        grads = backward_bptt(stack, targets, tape, work).theta.copy()
        _, later = forward_batch(stack, -inputs, other)
        backward_bptt(stack, -targets, later, other)
        for a, b in zip(tape, kept):
            assert np.array_equal(a, b)
        assert np.array_equal(backward_bptt(stack, targets, tape, work).theta, grads)
        assert not any(np.shares_memory(a, b) for a in later for b in tape)

    def test_a_held_workspace_serves_smaller_batches_and_stacks_bit_for_bit(self):
        # the trainer's workspace, reused for a partial batch of a smaller
        # stack, gives what a new workspace gives
        stack = init_params(5, STACK_SEEDS)
        rng = np.random.default_rng(8)
        inputs, targets = rng.normal(size=(3, 8, 6)), rng.normal(size=(3, 8))
        cfg = TrainConfig()
        work = _Workspace()
        for firms, rows in ((slice(None), slice(None)), (slice(1, None), slice(0, 3))):
            params = stack.with_theta(stack.theta[firms].copy())
            x, y = inputs[firms, rows], targets[firms, rows]
            preds, tape = forward_batch(params, x, _Workspace())
            grads = backward_bptt(params, y, tape, _Workspace())
            stepped, moments = first_adam_step(params, grads, cfg, _Workspace())
            held_preds, held_tape = forward_batch(params, x, work)
            held_grads = backward_bptt(params, y, held_tape, work)
            held, held_moments = first_adam_step(params, held_grads, cfg, work)
            assert np.array_equal(held_preds, preds)
            assert np.array_equal(held_grads.theta, grads.theta)
            assert np.array_equal(held.theta, stepped.theta)
            assert all(np.array_equal(a, b) for a, b in zip(held_moments, moments))
