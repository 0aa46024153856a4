"""Kernel tests: frozen oracle values, gradient checks per op, RNG/optimizer
determinism."""

import hashlib
import inspect
import math
import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stackptr
from stackptr import autodiff as ad
from stackptr.autodiff import (
    AdamState,
    ParameterStore,
    Rng,
    Tensor,
    adam_step,
    grad_check,
)
from stackptr.config import TrainConfig

import reference_loss

# Frozen with mpmath (50 digits): softmax([1,2,3]) = exp(x_i)/sum exp(x_j).
SOFTMAX_123 = (0.09003057317038046, 0.24472847105479767, 0.6652409557748219)


def test_all_names_every_public_function_and_class():
    public = {name for name, value in vars(ad).items()
              if not name.startswith("_") and getattr(value, "__module__", None) == ad.__name__
              and (inspect.isfunction(value) or inspect.isclass(value))}
    assert sorted(ad.__all__) == sorted(public)


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        out = ad.softmax_rows(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_frozen_values(self):
        out = ad.softmax_rows(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, SOFTMAX_123, atol=1e-7)

    def test_no_overflow_on_huge_scores(self):
        out = ad.softmax_rows(Tensor([1000.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-9)

    def test_masked_entries_exactly_zero(self):
        out = ad.softmax_rows(Tensor([1.0, -np.inf, 2.0]))
        assert out.data[1] == 0.0
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_fully_masked_is_an_error(self):
        with pytest.raises(ValueError, match="fully masked"):
            ad.log_softmax(Tensor([-np.inf, -np.inf]))

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            ad.log_softmax(Tensor([]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ad.log_softmax(Tensor([0.0, np.nan]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, scores, c):
        a = ad.softmax_rows(Tensor(scores)).data
        b = ad.softmax_rows(Tensor([s + c for s in scores])).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_row_wise_log_softmax_checks_every_row(self):
        good = [0.0, 1.0, -np.inf]
        with pytest.raises(ValueError, match="fully masked"):
            ad.log_softmax(Tensor([good, [-np.inf] * 3, good]))
        with pytest.raises(ValueError, match="finite or -inf"):
            ad.log_softmax(Tensor([good, good, [0.0, np.nan, 1.0]]))

    def test_row_wise_log_softmax_matches_vectors(self):
        m = Rng(4).split("rows").random((3, 5)) * 6 - 3
        m[1, 2] = -np.inf
        rows = ad.log_softmax(Tensor(m)).data
        for k in range(3):
            np.testing.assert_allclose(rows[k], ad.log_softmax(Tensor(m[k])).data,
                                       atol=1e-15)

    def test_log_softmax_consistency(self):
        v = Tensor([0.3, -1.2, 2.0, 0.0])
        np.testing.assert_allclose(np.exp(ad.log_softmax(v).data),
                                   ad.softmax_rows(v).data, atol=1e-12)


class TestSingleUseTape:
    def test_backward_frees_the_tape_and_runs_once(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        hidden = ad.tanh(x)
        loss = ad.sum_all(hidden)
        loss.backward()
        assert hidden.grad is None and hidden._backward is None and hidden._parents == ()
        assert loss._backward is None and loss._parents == ()
        assert loss.grad == 1.0
        np.testing.assert_array_equal(x.grad, 1.0 - np.tanh(np.arange(3.0)) ** 2)
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()

    @pytest.mark.parametrize("op", ["add", "mul", "matmul"])
    def test_one_tensor_as_both_operands(self, op):
        values = Rng(4).random((3, 3)) - 0.5
        upstream = Rng(5).random((3, 3))
        x = Tensor(values, requires_grad=True)
        out = getattr(ad, op)(x, x)
        ad.sum_all(ad.mul(out, Tensor(upstream))).backward()
        want = {"add": 2.0 * upstream,
                "mul": 2.0 * values * upstream,
                "matmul": upstream @ values.T + values.T @ upstream}[op]
        np.testing.assert_allclose(x.grad, want, rtol=1e-13, atol=1e-15)

    def test_pick_feeding_two_ops(self):
        rng = Rng(6)
        values, w = rng.random((4, 3)) - 0.5, rng.random((3, 2)) - 0.5
        u1, u2 = rng.random((3, 2)), rng.random((3, 3))
        index = [2, 0, 2]
        x, wt = Tensor(values, requires_grad=True), Tensor(w, requires_grad=True)
        rows = ad.pick(x, index)
        left = ad.sum_all(ad.mul(ad.matmul(rows, wt), Tensor(u1)))
        right = ad.sum_all(ad.mul(rows, Tensor(u2)))
        ad.add(left, right).backward()
        want = np.zeros((4, 3))
        np.add.at(want, index, u1 @ w.T + u2)
        np.testing.assert_allclose(x.grad, want, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(wt.grad, values[index].T @ u1, rtol=1e-13, atol=1e-15)


class TestAdam:
    def test_leaves_the_gradients_as_they_were(self):
        store = ParameterStore(0)
        store.create("biaffine.w", (4, 3))
        store.create("biaffine.b", (3,), init="embedding")
        store.put("biaffine.s", np.array(0.5))
        rng = Rng(7)
        grads = {name: rng.split(name).random(t.data.shape) - 0.5 for name, t in store.items()}
        before = {name: g.copy() for name, g in grads.items()}
        state = AdamState()
        for _ in range(3):
            adam_step(store, grads, state, 0.01)
        for name, g in grads.items():
            assert g.tobytes() == before[name].tobytes(), name

    def test_zero_gradient_is_noop(self):
        store = ParameterStore(0)
        w = store.create("biaffine.w", (3, 2))
        before = w.data.copy()
        adam_step(store, {"biaffine.w": np.zeros((3, 2))}, AdamState(), 0.01)
        np.testing.assert_array_equal(w.data, before)

    def test_first_step_magnitude(self):
        # w=1, g=1, lr=0.001: bias correction gives m_hat=1, v_hat=1,
        # so the update is lr/(1+eps) and w' ~ 0.999.
        store = ParameterStore(0)
        w = store.put("biaffine.w", np.array([1.0]))
        adam_step(store, {"biaffine.w": np.array([1.0])}, AdamState(), 0.001)
        assert abs(w.data[0] - 0.999) < 1e-9

    def test_shape_mismatch_rejected(self):
        store = ParameterStore(0)
        store.create("biaffine.w", (3, 2))
        with pytest.raises(ValueError, match="gradient shape mismatch"):
            adam_step(store, {"biaffine.w": np.zeros((2, 3))}, AdamState(), 0.01)

    @pytest.mark.parametrize("warm", [False, True], ids=["first-step", "later-step"])
    @pytest.mark.parametrize("bad, message", [
        ({"biaffine.b": np.zeros((2, 3))},
         r"^gradient shape mismatch for biaffine\.b: \(2, 3\) vs \(3, 2\)$"),
        ({}, r"^no gradient for biaffine\.b$"),
    ], ids=["shape", "missing"])
    def test_a_refused_step_writes_nothing(self, bad, message, warm):
        store = ParameterStore(0)
        store.create("biaffine.a", (4,), init="embedding")
        store.create("biaffine.b", (3, 2))
        state = AdamState()
        if warm:
            adam_step(store, {"biaffine.a": np.ones(4), "biaffine.b": np.ones((3, 2))},
                      state, 0.01)
        before = {name: t.data.copy() for name, t in store.items()}
        moments = [{name: a.copy() for name, a in d.items()} for d in (state.m, state.v)]
        count = state.step_count
        with pytest.raises(ValueError, match=message):
            adam_step(store, {"biaffine.a": np.ones(4), **bad}, state, 0.01)
        assert state.step_count == count
        for name, t in store.items():
            assert t.data.tobytes() == before[name].tobytes(), name
        for now, then in zip((state.m, state.v), moments):
            assert now.keys() == then.keys()
            assert all(now[name].tobytes() == then[name].tobytes() for name in now)

    def test_step_count_increments(self):
        store = ParameterStore(0)
        store.create("biaffine.w", (2,), init="embedding")
        state = AdamState()
        for expected in (1, 2, 3):
            adam_step(store, {"biaffine.w": np.ones(2)}, state, 0.01)
            assert state.step_count == expected

    def test_deterministic(self):
        results = []
        for _ in range(2):
            store = ParameterStore(5)
            store.create("biaffine.w", (4, 4))
            state = AdamState()
            g = Rng(9).random((4, 4))
            for _ in range(10):
                adam_step(store, {"biaffine.w": g}, state, 0.003)
            results.append(store["biaffine.w"].data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_updates_in_place_as_the_copying_form(self):
        # The parameter array stays the same object, and every step gives
        # the bits of the expression that built a new array.
        store = ParameterStore(5)
        w = store.create("biaffine.w", (4, 3))
        array = w.data
        want = w.data.copy()
        m, v = np.zeros_like(want), np.zeros_like(want)
        state = AdamState()
        rng = Rng(9)
        for t in range(1, 11):
            g = rng.split(f"g{t}").random((4, 3)) - 0.5
            adam_step(store, {"biaffine.w": g}, state, 0.003)
            m = state.beta1 * m + (1.0 - state.beta1) * g
            v = state.beta2 * v + (1.0 - state.beta2) * g * g
            m_hat = m / (1.0 - state.beta1 ** t)
            v_hat = v / (1.0 - state.beta2 ** t)
            want = want - 0.003 * m_hat / (np.sqrt(v_hat) + state.epsilon)
            assert w.data is array
            np.testing.assert_array_equal(w.data, want)


def _whole_tensor_adam(p, g, m, v, state, learning_rate):
    """The per-tensor update as it ran before row blocks: each tensor in
    one piece, through two scratch arrays of its own shape."""
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    a, b = np.empty_like(m), np.empty_like(m)
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=a)
    v *= state.beta2
    v += np.multiply(np.multiply(g, 1.0 - state.beta2, out=a), g, out=a)
    np.multiply(np.divide(m, bc1, out=a), learning_rate, out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), state.epsilon, out=b)
    p -= np.divide(a, b, out=a)


class TestAdamRowBlocks:
    # (shape, gradient order). At the module's block size: one piece;
    # several blocks with a ragged last one (2340 rows of 7 per block, 27 rows
    # of 600); a row longer than a block. A block of 4 splits nearly all.
    CASES = [((), "C"), ((7,), "C"), ((5, 3), "C"), ((5, 3), "F"),
             ((3000, 7), "C"), ((3000, 7), "F"), ((40, 30, 20), "C"),
             ((40, 30, 20), "F"), ((2, 20000), "C"), ((2, 20000), "F")]

    @pytest.mark.parametrize("block", [ad.ADAM_BLOCK, 4])
    @pytest.mark.parametrize("shape, order", CASES)
    def test_bits_equal_the_whole_tensor_update(self, shape, order, block, monkeypatch):
        monkeypatch.setattr(ad, "ADAM_BLOCK", block)
        store = ParameterStore(3)
        w = store.create("w", shape, init="embedding")
        want = w.data.copy()
        state, oracle = AdamState(), AdamState()
        m, v = np.zeros(shape), np.zeros(shape)
        rng = Rng(4)
        for step in range(1, 4):
            g = np.asarray(rng.split(f"g{step}").random(shape) - 0.5, order=order)
            adam_step(store, {"w": g}, state, 0.003)
            oracle.step_count += 1
            _whole_tensor_adam(want, g, m, v, oracle, 0.003)
            assert w.data.tobytes() == want.tobytes(), step
            assert state.m["w"].tobytes() == m.tobytes()
            assert state.v["w"].tobytes() == v.tobytes()

    def test_a_transposed_parameter_is_updated_in_place(self):
        store = ParameterStore(3)
        base = Rng(5).random((3, 7000))
        w = store.put("w", np.zeros((7000, 3)))
        w.data = base.T                       # Fortran-ordered view, 6 row blocks
        assert not w.data.flags.c_contiguous and w.data.size > ad.ADAM_BLOCK
        want = base.T.copy()
        m, v = np.zeros_like(want), np.zeros_like(want)
        state, oracle = AdamState(), AdamState()
        g = Rng(6).random((7000, 3)) - 0.5
        adam_step(store, {"w": g}, state, 0.01)
        oracle.step_count += 1
        _whole_tensor_adam(want, g, m, v, oracle, 0.01)
        assert w.data.base is base
        np.testing.assert_array_equal(base.T, want)


class TestDropout:
    def test_inference_mode_is_identity(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert ad.dropout(t, 0.5, None) is t
        assert ad.split_each(None, "p_in") is None

    def test_zero_rate_is_identity(self):
        t = Tensor(np.ones(4))
        assert ad.dropout(t, 0.0, [Rng(0)] * 4) is t

    def test_monte_carlo_expectation(self):
        # Inverted scaling keeps E[output] == input: 1e5 trials within 1%.
        rng = Rng(123).split("dropout-mc")
        trials, width = 100_000, 4
        t = Tensor(np.ones((1, trials, width)))
        mean = ad.dropout(t, 0.5, [rng]).data[0].mean(axis=0)
        assert np.all(np.abs(mean - 1.0) < 0.01)

    def test_wrong_stream_count_rejected(self):
        t = Tensor(np.ones((2, 3)))
        for rngs in ([Rng(0)], [Rng(0)] * 3, [Rng(0), None]):
            with pytest.raises(ValueError, match="one Rng per batch row"):
                ad.dropout(t, 0.5, rngs)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor([1.0]), 1.0, [Rng(0)])

    def test_split_draw_equals_alternating_draws(self):
        # What lets one (steps, a+b) mask draw stand in for per-step pairs.
        joint = ad.dropout_mask((5, 7), 0.5, Rng(8).split("p_out"))
        stream = Rng(8).split("p_out")
        for k in range(5):
            np.testing.assert_array_equal(joint[k, :3], ad.dropout_mask(3, 0.5, stream))
            np.testing.assert_array_equal(joint[k, 3:], ad.dropout_mask(4, 0.5, stream))


class TestGradCheck:
    def test_quadratic(self):
        store = ParameterStore(0)
        store.put("biaffine.w", np.array([3.0]))

        def loss(params):
            w = params["biaffine.w"]
            return ad.sum_all(ad.mul(w, w))

        errs = grad_check(loss, store, epsilon=1e-5)
        assert errs["biaffine.w"] < 1e-8

    def test_constant_function(self):
        store = ParameterStore(0)
        store.put("biaffine.w", np.array([2.0]))
        errs = grad_check(lambda p: Tensor(7.0), store, epsilon=1e-5)
        assert errs["biaffine.w"] == 0.0

    def test_epsilon_range_enforced(self):
        store = ParameterStore(0)
        store.put("biaffine.w", np.array([1.0]))
        with pytest.raises(ValueError):
            grad_check(lambda p: Tensor(0.0), store, epsilon=1e-2)

    def test_non_finite_objective(self):
        store = ParameterStore(0)
        store.put("biaffine.w", np.array([1.0]))
        with pytest.raises(ValueError, match="non-finite objective"):
            grad_check(lambda p: Tensor(float("nan")), store, epsilon=1e-5)


def _op_gradients(build, shapes, seed=0, tol=1e-4):
    """grad_check an op: `build` maps parameter tensors to an output tensor,
    reduced to a scalar against fixed random weights."""
    store = ParameterStore(seed)
    for i, shape in enumerate(shapes):
        store.create(f"biaffine.p{i}", shape, init="embedding")
    mix = Rng(seed).split("mix")

    def loss(params):
        out = build(*[params[f"biaffine.p{i}"] for i in range(len(shapes))])
        if out.data.ndim == 0:
            return out
        weights = Tensor(mix.split(str(out.data.shape)).random(out.data.shape) + 0.1)
        return ad.sum_all(ad.mul(out, weights))

    errs = grad_check(loss, store, epsilon=1e-5)
    worst = max(errs.values())
    assert worst < tol, f"max rel err {worst}"


LSTM_CASES = ["plain", "h_mask", "in_mask", "reverse", "reverse_one",
              "bi_masks", "bi_reverse", "bi_one"]


def _lstm_case(case, steps):
    """(directions, batch, in_mask, h_mask, reverse) of a named lstm_sequence
    case, over (B, T, 3) input and h = 4. A batch of three sequences with one
    mask row each, or of one. "reverse" runs the three backward over mixed
    lengths, one of them 1, with both masks; "reverse_one" runs one sequence
    backward. The "bi" cases run two directions in one call, with both
    masks: forward and fully backward, both backward over mixed lengths, and
    forward and backward over one sequence."""
    dirs, batch, use_in, use_h, reverse = {
        "plain": (1, 3, False, False, None),
        "h_mask": (1, 3, False, True, None),
        "in_mask": (1, 3, True, False, None),
        "reverse": (1, 3, True, True, [[steps, 1, min(3, steps)]]),
        "reverse_one": (1, 1, False, False, [[steps]]),
        "bi_masks": (2, 3, True, True, [[0] * 3, [steps] * 3]),
        "bi_reverse": (2, 3, True, True, [[1, steps, min(2, steps)],
                                          [steps, 1, min(3, steps)]]),
        "bi_one": (2, 1, True, True, [[0], [steps]]),
    }[case]
    in_mask = ad.dropout_mask((dirs, batch, 3), 0.5, Rng(3).split("in")) if use_in else None
    h_mask = ad.dropout_mask((dirs, batch, 4), 0.5, Rng(3).split("h")) if use_h else None
    return dirs, batch, in_mask, h_mask, reverse


def _lstm_gradients(case, steps):
    dirs, batch, in_mask, h_mask, reverse = _lstm_case(case, steps)

    def build(x, *w):
        triples = [w[3 * k:3 * k + 3] for k in range(dirs)]
        return ad.lstm_sequence(x, triples, in_mask, h_mask, reverse)

    _op_gradients(build, [(batch, steps, 3)] + [(16, 3), (16, 4), (16,)] * dirs)


class TestOpGradients:
    """Every composite op the model touches, checked at eps=1e-5 / 1e-4."""

    def test_add_broadcast(self):
        _op_gradients(lambda a, b: ad.add(a, b), [(3, 4), (4,)])
        _op_gradients(lambda a, b: ad.add(a, b), [(2, 3, 4), (4,)])
        _op_gradients(lambda a, b: ad.add(a, b), [(2, 3, 1), ()])

    def test_mul(self):
        _op_gradients(lambda a, b: ad.mul(a, b), [(3, 4), (3, 4)])

    def test_scale_neg(self):
        _op_gradients(lambda a: ad.scale(a, -2.5), [(5,)])

    def test_matmul_mat_mat(self):
        _op_gradients(lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)])
        _op_gradients(lambda a, b: ad.matmul(a, b), [(2, 3, 4), (4, 5)])   # a stack

    # The vector forms belong to the per-step oracle, whose loss relies on them.
    def test_matmul_mat_vec(self):
        _op_gradients(lambda a, b: reference_loss.matmul(a, b), [(3, 4), (4,)])

    def test_matmul_vec_mat(self):
        _op_gradients(lambda a, b: reference_loss.matmul(a, b), [(4,), (4, 3)])

    def test_matmul_vec_vec(self):
        _op_gradients(lambda a, b: reference_loss.matmul(a, b), [(4,), (4,)])

    def test_matmul_batched(self):
        _op_gradients(lambda a, b: ad.matmul(a, b), [(3, 2, 4), (3, 4, 5)])

    def test_stack_times_matrix_is_the_flat_product_bit_for_bit(self):
        # An affine layer on a (3, 4, 5) stack against the same layer written
        # with explicit reshapes to (12, 5) rows: same values, same gradients.
        rng = Rng(8).split("flat")
        values = [rng.random(shape) - 0.5 for shape in [(3, 4, 5), (6, 5), (6,)]]
        weights = rng.random((3, 4, 6))

        def run(flat):
            x, w, b = (Tensor(v, requires_grad=True) for v in values)
            if flat:
                rows = ad.matmul(ad.reshape(x, (12, 5)), ad.transpose(w))
                out = ad.reshape(ad.add(rows, b), (3, 4, 6))
            else:
                out = ad.add(ad.matmul(x, ad.transpose(w)), b)
            ad.sum_all(ad.mul(out, Tensor(weights))).backward()
            return out.data, x.grad, w.grad, b.grad

        for stacked, flat in zip(run(False), run(True)):
            np.testing.assert_array_equal(stacked, flat)

    def test_transpose(self):
        _op_gradients(lambda a: ad.transpose(a), [(3, 5)])

    def test_transpose_stack_swaps_last_two(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(ad.transpose(Tensor(a)).data, a.transpose(0, 2, 1))
        _op_gradients(lambda a: ad.transpose(a), [(2, 3, 4)])

    @pytest.mark.parametrize("axes", [(1, 0, 2), (2, 0, 1), (1, 2, 0)])
    def test_transpose_permutation(self, axes):
        _op_gradients(lambda a: ad.transpose(a, axes), [(2, 3, 4)])

    def test_concat_axis0(self):
        _op_gradients(lambda a, b: ad.concat([a, b], axis=0), [(2, 3), (4, 3)])

    def test_concat_axis1(self):
        _op_gradients(lambda a, b: ad.concat([a, b], axis=1), [(2, 3), (2, 2)])

    def test_stack_and_row(self):
        _op_gradients(lambda a, b: reference_loss.stack_rows([reference_loss.row(a, 1), b]),
                      [(3, 4), (4,)])

    def test_gather_rows_with_repeats(self):
        _op_gradients(lambda a: ad.pick(a, [0, 2, 2, 1]), [(3, 4)])

    def test_slice_and_pick(self):
        _op_gradients(lambda a: ad.add(reference_loss.slice1d(a, 1, 4),
                                       reference_loss.stack_rows([ad.pick(a, 0)] * 3)), [(6,)])

    def test_sigmoid_tanh_elu(self):
        _op_gradients(
            lambda a: ad.sum_all(ad.add(reference_loss.sigmoid(a),
                                        ad.add(ad.tanh(a), ad.elu(a)))), [(4, 3)])

    def test_softmax(self):
        _op_gradients(lambda a: ad.softmax_rows(a), [(6,)])

    def test_log_softmax(self):
        _op_gradients(lambda a: ad.log_softmax(a), [(6,)])

    def test_softmax_rows(self):
        _op_gradients(lambda a: ad.softmax_rows(a), [(4, 5)])

    def test_softmax_rows_last_axis_of_a_stack(self):
        _op_gradients(lambda a: ad.softmax_rows(a), [(2, 3, 4)])
        m = Rng(5).split("stack").random((2, 3, 4))
        stacked = ad.softmax_rows(Tensor(m)).data
        for b in range(2):
            np.testing.assert_array_equal(stacked[b], ad.softmax_rows(Tensor(m[b])).data)

    def test_mask_fill(self):
        mask = np.array([True, False, True, True])
        _op_gradients(lambda a: ad.softmax_rows(ad.mask_fill(a, mask)), [(4,)])

    def test_im2col(self):
        _op_gradients(lambda a: reference_loss.im2col_rows(a, 3), [(5, 2)])

    def test_max_over_rows(self):
        _op_gradients(lambda a: reference_loss.max_over_rows(a), [(5, 4)])

    def test_reshape(self):
        _op_gradients(lambda a: ad.reshape(a, (2, 6)), [(3, 4)])

    def test_max_over_windows(self):
        real = np.array([[True, True, False], [True, False, False]])
        _op_gradients(lambda a: ad.max_over_windows(a, real), [(2, 3, 4)])

    def test_max_over_windows_masks_and_breaks_ties_first(self):
        m = Tensor(np.array([[[1.0, 2.0], [1.0, 5.0], [9.0, 9.0]],
                             [[0.0, -1.0], [-2.0, 7.0], [3.0, 3.0]]]),
                   requires_grad=True)
        real = np.array([[True, True, False], [True, False, False]])
        out = ad.max_over_windows(m, real)
        np.testing.assert_array_equal(out.data, [[1.0, 5.0], [0.0, -1.0]])
        out.backward()
        want = np.zeros((2, 3, 2))
        want[0, 0, 0] = want[0, 1, 1] = want[1, 0, 0] = want[1, 0, 1] = 1.0
        np.testing.assert_array_equal(m.grad, want)

    def test_bilinear_vec(self):
        _op_gradients(lambda l, w, r: ad.bilinear_vec(l, w, r),
                      [(1, 3), (4, 3, 5), (1, 5)])

    def test_lstm_cell(self):
        # The per-step cell of the reference loss, whose gradients it relies on.
        def build(x, h, c, w_ih, w_hh, b):
            h2, c2 = reference_loss.lstm_cell(x, h, c, w_ih, w_hh, b)
            return ad.add(h2, c2)

        _op_gradients(build, [(3,), (4,), (4,), (16, 3), (16, 4), (16,)])

    def test_pick_entries(self):
        rows, cols = np.array([0, 2, 2, 1]), np.array([1, 0, 0, 3])
        _op_gradients(lambda a: ad.pick(a, (rows, cols)), [(3, 4)])

    def test_log_softmax_rows(self):
        mask = np.array([[True, False, True], [True, True, True]])
        _op_gradients(lambda a: ad.pick(ad.log_softmax(ad.mask_fill(a, mask)),
                                        np.nonzero(mask)), [(2, 3)])

    def test_bilinear_rows(self):
        _op_gradients(lambda l, w, r: ad.bilinear_vec(l, w, r),
                      [(4, 3), (2, 3, 5), (4, 5)])

    # The ids False and True name the unmasked and the recurrent-masked case.
    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("case", [pytest.param("plain", id="False"),
                                      pytest.param("h_mask", id="True"),
                                      "in_mask", "reverse", "reverse_one",
                                      "bi_masks", "bi_reverse", "bi_one"])
    def test_lstm_sequence(self, steps, case):
        _lstm_gradients(case, steps)

    def test_dropout_gradient_with_fixed_mask(self):
        # Same rng seeds per evaluation -> the mask is constant, so central
        # differences see a deterministic function. One stream per row.
        def build(a):
            return ad.dropout(a, 0.4, [Rng(77).split(f"fixed{b}") for b in range(6)])

        _op_gradients(build, [(6, 3)])

    def test_shared_subexpression_accumulates(self):
        _op_gradients(lambda a: ad.mul(ad.tanh(a), ad.elu(a)), [(7,)])


class TestLstmSequence:
    def test_matches_chained_cells(self):
        rng = Rng(12).split("chain")
        x = rng.random((5, 3)) - 0.5
        w_ih, w_hh, b = (Tensor(rng.random(shape) - 0.5)
                         for shape in [(16, 3), (16, 4), (16,)])
        h_mask = ad.dropout_mask(4, 0.3, rng.split("mask"))
        h, c = Tensor(np.zeros(4)), Tensor(np.zeros(4))
        chained = []
        for t in range(5):
            h, c = reference_loss.lstm_cell(Tensor(x[t]), ad.mul(h, Tensor(h_mask)), c,
                                            w_ih, w_hh, b)
            chained.append(h.data)
        fused = ad.lstm_sequence(Tensor(x[None]), [(w_ih, w_hh, b)],
                                 h_mask=h_mask[None, None]).data[0]
        np.testing.assert_allclose(fused, np.array(chained), atol=1e-15)

    def test_batch_rows_match_one_sequence_at_a_time(self):
        # Each sequence of a batch matches a run of it alone: forward, and,
        # reversed over its first reverse[k] rows, a run on its masked rows
        # flipped there, whose states are flipped back.
        rng = Rng(13).split("batch")
        x = rng.random((3, 4, 5)) - 0.5
        w_ih, w_hh, b = (Tensor(rng.random(shape) - 0.5)
                         for shape in [(16, 5), (16, 4), (16,)])
        in_mask = ad.dropout_mask((3, 5), 0.3, rng.split("in"))
        h_mask = ad.dropout_mask((3, 4), 0.3, rng.split("mask"))
        reverse = np.array([4, 1, 3])
        weights = [(w_ih, w_hh, b)]
        batched = ad.lstm_sequence(Tensor(x), weights, h_mask=h_mask[None]).data
        flipped = ad.lstm_sequence(Tensor(x), weights, in_mask[None], h_mask[None],
                                   reverse[None]).data

        def flip(rows, n):
            return np.concatenate([rows[:n][::-1], rows[n:]])

        for k in range(3):
            one = ad.lstm_sequence(Tensor(x[k:k + 1]), weights,
                                   h_mask=h_mask[None, k:k + 1]).data[0]
            np.testing.assert_allclose(batched[k], one, atol=1e-15)
            alone = ad.lstm_sequence(Tensor(flip(x[k] * in_mask[k], reverse[k])[None]),
                                     weights, h_mask=h_mask[None, k:k + 1]).data[0]
            np.testing.assert_allclose(flipped[k], flip(alone, reverse[k]), atol=1e-15)

    def test_two_directions_match_two_one_direction_calls_bit_for_bit(self):
        # One call over two directions gives the states, dx and all six
        # weight gradients of two one-direction calls side by side. The
        # comparison is on the bits, so even -0.0 against 0.0 would fail.
        rng = Rng(14).split("two")
        x = rng.random((3, 4, 5)) - 0.5
        triples = [[rng.random(shape) - 0.5 for shape in [(16, 5), (16, 4), (16,)]]
                   for _ in range(2)]
        in_mask = ad.dropout_mask((2, 3, 5), 0.3, rng.split("in"))
        h_mask = ad.dropout_mask((2, 3, 4), 0.3, rng.split("h"))
        reverse = np.array([[0, 0, 0], [4, 1, 3]])
        upstream = Tensor(rng.random((3, 4, 8)))

        def run(one_call):
            xt = Tensor(x, requires_grad=True)
            ws = [tuple(Tensor(a, requires_grad=True) for a in triple) for triple in triples]
            if one_call:
                out = ad.lstm_sequence(xt, ws, in_mask, h_mask, reverse)
            else:
                out = ad.concat([ad.lstm_sequence(xt, [ws[k]], in_mask[k:k + 1],
                                                  h_mask[k:k + 1], reverse[k:k + 1])
                                 for k in range(2)], axis=2)
            ad.sum_all(ad.mul(out, upstream)).backward()
            return [out.data, xt.grad] + [w.grad for triple in ws for w in triple]

        for both, apart in zip(run(True), run(False)):
            np.testing.assert_array_equal(both.view(np.uint64), apart.view(np.uint64))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ad.lstm_sequence(Tensor(np.zeros((1, 0, 3))), [(Tensor(np.zeros((16, 3))),
                             Tensor(np.zeros((16, 4))), Tensor(np.zeros(16)))])

    def test_saturated_gates_raise_no_warning(self):
        # exp(800) overflows a float; the sigmoid gates are exactly 0 at -800
        # and 1 at +800, and other inputs keep the bits of 1 / (1 + exp(-z)).
        z = np.repeat([[-800.0], [800.0]], 8, axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            act, _, _, _ = ad.lstm_gates(z, np.ones((2, 2)))
        np.testing.assert_array_equal(act, [[0, 0, 0, 0, -1, -1, 0, 0],
                                            [1, 1, 1, 1, 1, 1, 1, 1]])
        z = np.concatenate([np.linspace(-709.0, 709.0, 20_001), [np.inf, np.nan]])
        np.testing.assert_array_equal(ad._sigmoid(z), 1.0 / (1.0 + np.exp(-z)))


def _force_gate(monkeypatch, open_, shut_by="size"):
    """Open the worker gate at any size and CPU count, or shut it: by size
    (every job below its minimum), or by CPU count (one CPU, every size
    past its minimum, so a one-direction LSTM still runs its halves)."""
    one_cpu = not open_ and shut_by == "cpus"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if one_cpu else {0, 1},
                        raising=False)
    for name in ("WORKER_MIN_WHH", "WORKER_MIN_PARAMS", "WORKER_MIN_SPLIT"):
        monkeypatch.setattr(ad, name, 0 if open_ or one_cpu else 1 << 62)


def _handed_to_worker(monkeypatch):
    """Record the thread that ran each job :func:`autodiff._in_parallel`
    handed over."""
    seen = set()
    real = ad._in_parallel

    def in_parallel(pool, here, there):
        real(pool, here, lambda: seen.add(threading.get_ident()) or there())

    monkeypatch.setattr(ad, "_in_parallel", in_parallel)
    return seen


def _threads_running(monkeypatch, name):
    """Record the thread of every call of the module function ``name``."""
    seen = set()
    real = getattr(ad, name)

    def recorded(*args):
        seen.add(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(ad, name, recorded)
    return seen


@pytest.mark.parametrize("rows", [1, 2, 3, 8, 64], ids=lambda rows: f"B={rows}")
def test_halves_of_a_decoder_product_are_its_columns_bit_for_bit(rows):
    # A full-size one-direction lstm_sequence runs each product in two halves
    # of its output. It keeps the one product's bits only because this BLAS
    # build computes a block of output columns (or gate rows) as it does
    # inside the whole product; at the (16, 4) test dims, at h = 256, or cut
    # in quarters at B = 2, it did not. A failure names the product and shape
    # that broke.
    h, d = TrainConfig().decoder_dim, 2 * TrainConfig().d_h
    rng = Rng(31).split(str(rows))
    w_ih, w_hh = rng.split("ih").random((4 * h, d)) - 0.5, rng.split("hh").random((4 * h, h)) - 0.5
    x, hs, dz = (rng.split(name).random(shape) - 0.5
                 for name, shape in [("x", (rows, d)), ("h", (rows, h)), ("dz", (rows, 4 * h))])
    products = {     # name: (product of an output slice, output width, output axis)
        f"input ({rows}, {d}) @ W_ih.T ({d}, {4 * h})": (lambda c: x @ w_ih[c].T, 4 * h, 1),
        f"recurrent ({rows}, {h}) @ W_hh.T ({h}, {4 * h})": (lambda c: hs @ w_hh[c].T, 4 * h, 1),
        f"BPTT dh ({rows}, {4 * h}) @ W_hh ({4 * h}, {h})": (lambda c: dz @ w_hh[:, c], h, 1),
        f"d_ih ({4 * h}, {rows}) @ ({rows}, {d})": (lambda c: dz[:, c].T @ x, 4 * h, 0),
        f"d_hh ({4 * h}, {rows}) @ ({rows}, {h})": (lambda c: dz[:, c].T @ hs, 4 * h, 0),
        f"dx ({rows}, {4 * h}) @ W_ih ({4 * h}, {d})": (lambda c: dz @ w_ih[:, c], d, 1),
    }
    for name, (product, n, axis) in products.items():
        halves = np.concatenate([product(slice(n // 2)), product(slice(n // 2, n))], axis=axis)
        assert halves.tobytes() == product(slice(None)).tobytes(), \
            f"{name}: its two halves differ from the one product in this BLAS build"


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_a_full_size_decoder_call_keeps_the_one_products_bits(batch, monkeypatch):
    # The whole op at decoder dims, three steps: its halves (on the worker
    # where there are two CPUs) against one product each, outputs and every
    # gradient. Gate dims stay below the split's minimum.
    h, d = TrainConfig().decoder_dim, 2 * TrainConfig().d_h
    gate_decoder = TrainConfig(d_h=32).decoder_dim      # the release gate's TRANSFER dims
    assert 4 * gate_decoder ** 2 < ad.WORKER_MIN_SPLIT <= 4 * h * h
    rng = Rng(32).split(str(batch))
    x = rng.random((batch, 3, d)) - 0.5
    triple = [rng.split(str(shape)).random(shape) * 0.1 - 0.05
              for shape in [(4 * h, d), (4 * h, h), (4 * h,)]]
    h_mask = ad.dropout_mask((1, batch, h), 0.3, rng.split("mask"))
    upstream = Tensor(rng.random((batch, 3, h)) - 0.5)

    def run():
        xt = Tensor(x, requires_grad=True)
        ws = tuple(Tensor(a, requires_grad=True) for a in triple)
        out = ad.lstm_sequence(xt, [ws], h_mask=h_mask)
        ad.sum_all(ad.mul(out, upstream)).backward()
        return [out.data, xt.grad] + [w.grad for w in ws]

    split = run()
    monkeypatch.setattr(ad, "WORKER_MIN_SPLIT", 1 << 62)
    for got, want in zip(split, run(), strict=True):
        assert got.tobytes() == want.tobytes()


class TestWorker:
    """The worker thread's halves, with the gate forced open at tiny dims,
    give the inline path's bits."""

    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("case", LSTM_CASES)
    def test_lstm_sequence_keeps_its_bits(self, case, steps, monkeypatch):
        # Shut by CPU count, a one-direction call still runs its products in
        # halves, one after the other: the worker must give their bits.
        dirs, batch, in_mask, h_mask, reverse = _lstm_case(case, steps)
        rng = Rng(21).split(case)
        x = rng.random((batch, steps, 3)) - 0.5
        triples = [[rng.random(shape) - 0.5 for shape in [(16, 3), (16, 4), (16,)]]
                   for _ in range(dirs)]
        upstream = Tensor(rng.random((batch, steps, 4 * dirs)))

        def run():
            xt = Tensor(x, requires_grad=True)
            ws = [tuple(Tensor(a, requires_grad=True) for a in triple) for triple in triples]
            out = ad.lstm_sequence(xt, ws, in_mask, h_mask, reverse)
            ad.sum_all(ad.mul(out, upstream)).backward()
            return [out.data, xt.grad] + [w.grad for triple in ws for w in triple]

        _force_gate(monkeypatch, False, shut_by="cpus")
        inline = run()
        _force_gate(monkeypatch, True)
        threads = _threads_running(monkeypatch, "lstm_gates")
        handed = _handed_to_worker(monkeypatch)
        for threaded, want in zip(run(), inline):
            assert threaded.tobytes() == want.tobytes()
        assert len(threads) == dirs     # a second direction ran on the worker
        # Work went to the worker: a direction, or one direction's halves.
        assert handed and threading.get_ident() not in handed

    @pytest.mark.parametrize("case", ["bi_masks", "bi_reverse", "bi_one"])
    def test_lstm_sequence_passes_grad_check(self, case, monkeypatch):
        _force_gate(monkeypatch, True)
        threads = _threads_running(monkeypatch, "lstm_gates")
        _lstm_gradients(case, 4)
        assert len(threads) == 2

    @pytest.mark.parametrize("case", ["h_mask", "reverse"])
    def test_one_direction_halves_pass_grad_check(self, case, monkeypatch):
        _force_gate(monkeypatch, True)
        handed = _handed_to_worker(monkeypatch)
        _lstm_gradients(case, 4)
        assert handed and threading.get_ident() not in handed

    def test_adam_step_keeps_its_bits(self, monkeypatch):
        # Tensors in one piece, in row blocks, with a row longer than a block,
        # C- and Fortran-ordered gradients, and a scalar.
        shapes = [((3000, 7), "C"), ((40, 30, 20), "F"), ((2, 20000), "C"), ((5, 3), "F"),
                  ((7,), "C"), ((), "C")]

        def run():
            store = ParameterStore(3)
            for k, (shape, _) in enumerate(shapes):
                store.create(f"w{k}", shape, init="embedding")
            state, rng = AdamState(), Rng(4)
            for step in range(3):
                grads = {f"w{k}": np.asarray(rng.split(f"g{step}.{k}").random(shape) - 0.5,
                                             order=order)
                         for k, (shape, order) in enumerate(shapes)}
                adam_step(store, grads, state, 0.003)
            return [a for d in ({n: t.data for n, t in store.items()}, state.m, state.v)
                    for a in d.values()]

        _force_gate(monkeypatch, False)
        inline = run()
        _force_gate(monkeypatch, True)
        threads = _threads_running(monkeypatch, "_adam_update")
        for threaded, want in zip(run(), inline, strict=True):
            assert threaded.tobytes() == want.tobytes()
        assert len(threads) == 2

    @pytest.mark.parametrize("peak", [1.0, 1e200], ids=["squares", "overflowing-squares"])
    def test_clip_gradients_keeps_its_bits(self, peak, monkeypatch):
        # Over the limit, so the gradients are scaled too; at 1e200 the sum of
        # squares overflows and the norm is computed again, scaled.
        shapes = [((3000, 7), "C"), ((40, 30, 20), "F"), ((5, 3), "F"), ((7,), "C"), ((), "C")]

        def run():
            rng = Rng(8)
            grads = {f"g{k}": np.asarray(peak * (rng.split(str(k)).random(shape) - 0.5),
                                         order=order)
                     for k, (shape, order) in enumerate(shapes)}
            return ad.clip_gradients(grads, 0.5), list(grads.values())

        _force_gate(monkeypatch, False)
        norm, inline = run()
        _force_gate(monkeypatch, True)
        calls = []
        real = ad._in_parallel
        monkeypatch.setattr(ad, "_in_parallel", lambda *args: calls.append(1) or real(*args))
        threaded_norm, threaded = run()
        assert threaded_norm == norm > 0.5 and math.isfinite(norm)
        for got, want in zip(threaded, inline, strict=True):
            assert got.tobytes() == want.tobytes()
        assert len(calls) == 2          # the sums of squares and the scaling

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_in_either_half_is_raised_here_once_both_stopped(self, failing,
                                                                      monkeypatch):
        class Failure(Exception):
            pass

        main, steps_run = threading.get_ident(), []
        real = ad.lstm_gates

        def gates(z, c):
            here = threading.get_ident() == main
            if here == (failing == "caller"):
                raise Failure(f"in the {failing}'s direction")
            time.sleep(0.01)            # the other half is still running at the failure
            steps_run.append(here)
            return real(z, c)

        _force_gate(monkeypatch, True)
        monkeypatch.setattr(ad, "lstm_gates", gates)
        dirs, batch, in_mask, h_mask, reverse = _lstm_case("bi_reverse", 4)
        rng = Rng(22)
        weights = [tuple(Tensor(rng.split(f"{k}{shape}").random(shape) - 0.5)
                         for shape in [(16, 3), (16, 4), (16,)]) for k in range(dirs)]
        with pytest.raises(Failure, match=f"in the {failing}'s direction"):
            ad.lstm_sequence(Tensor(rng.random((batch, 4, 3))), weights, in_mask, h_mask,
                             reverse)
        # The other half ran its direction's four steps before the raise.
        assert steps_run == [failing == "worker"] * 4

    def test_the_callers_errstate_holds_in_the_workers_half(self, monkeypatch):
        # Largest first to the emptier half: "big" stays here, "small" goes to
        # the worker, and its squared gradient overflows there.
        _force_gate(monkeypatch, True)
        halves = {}
        real = ad._adam_update

        def update(jobs, *constants):
            halves[threading.get_ident()] = [p.size for p, *_ in jobs]
            real(jobs, *constants)

        monkeypatch.setattr(ad, "_adam_update", update)
        store = ParameterStore(0)
        store.create("big", (100,), init="embedding")
        store.create("small", (50,), init="embedding")
        grads = {"big": np.ones(100), "small": np.full(50, 1e200)}
        state = AdamState()
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                adam_step(store, grads, state, 0.01)
        assert state.m == state.v == {}     # no moments half written
        assert halves.pop(threading.get_ident()) == [100]
        assert list(halves.values()) == [[50]]
        with np.errstate(over="ignore"):
            adam_step(store, grads, AdamState(), 0.01)


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_a_worker_of_its_own(self, monkeypatch):
        # The parent's thread does not exist in the child: work queued to its
        # executor there would never run.
        _force_gate(monkeypatch, True)
        pool = ad.worker(1, 1)
        assert pool.submit(int, "7").result(timeout=10) == 7
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                child = ad.worker(1, 1)
                code = 0 if child is not pool and child.submit(int, "7").result(10) == 7 else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert ad.worker(1, 1) is pool


class TestRng:
    def test_split_is_stable(self):
        a = Rng(3).split("stream").random(5)
        b = Rng(3).split("stream").random(5)
        np.testing.assert_array_equal(a, b)

    def test_split_names_independent(self):
        a = Rng(3).split("one").random(5)
        b = Rng(3).split("two").random(5)
        assert not np.array_equal(a, b)

    def test_nested_splits(self):
        a = Rng(1).split("x").split("y").random(3)
        b = Rng(1).split("x").split("y").random(3)
        c = Rng(1).split("y").split("x").random(3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_fails_at_construction(self):
        # Not at the first draw, which may come much later or never.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            Rng(-1)


def _spawn_key_generator(seed: int, names: list[str]) -> np.random.Generator:
    """The oracle stream: numpy's own ``SeedSequence(entropy=seed,
    spawn_key=...)``, keyed by the first four little-endian words of each
    name's SHA-256 along the split path."""
    key = ()
    for name in names:
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        key += tuple(int.from_bytes(digest[k:k + 4], "little") for k in range(0, 16, 4))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed,
                                                                       spawn_key=key)))


@given(seed=st.integers(0, 2**64 - 1), names=st.lists(st.text(max_size=6), max_size=6))
@example(seed=0, names=[])
@example(seed=2**32 - 1, names=["epoch0"])
@example(seed=2**32 + 5, names=["epoch0", "drop3", "s1", "p_out"])
@example(seed=2**70 + 3, names=["a", "b", "c", "d", "e", "f"])
@settings(max_examples=200, deadline=None)
def test_rng_draws_equal_the_spawn_key_oracle(seed, names):
    rng = Rng(seed)
    for name in names:
        rng = rng.split(name)
    want = _spawn_key_generator(seed, names)
    np.testing.assert_array_equal(rng.random((2, 3)), want.random((2, 3)))
    np.testing.assert_array_equal(rng.uniform(-0.5, 2.0, 4), want.uniform(-0.5, 2.0, 4))
    np.testing.assert_array_equal(rng.permutation(7), want.permutation(7))
    assert rng.integers(0, 1000) == int(want.integers(0, 1000))


class TestParameterStore:
    def test_same_seed_bitwise_identical(self):
        stores = []
        for _ in range(2):
            s = ParameterStore(11)
            s.create("encoder.a", (4, 6))
            s.create("encoder.b", (3,), init="zeros")
            s.create("embeddings.c", (5, 2), init="embedding")
            stores.append(s)
        for name in stores[0].names():
            np.testing.assert_array_equal(stores[0][name].data, stores[1][name].data)

    def test_values_keyed_by_name_not_order(self):
        s1 = ParameterStore(11)
        a1 = s1.create("encoder.a", (4, 6))
        s1.create("encoder.b", (6, 2))
        s2 = ParameterStore(11)
        s2.create("encoder.b", (6, 2))
        a2 = s2.create("encoder.a", (4, 6))
        np.testing.assert_array_equal(a1.data, a2.data)

    def test_duplicate_name_rejected(self):
        s = ParameterStore(0)
        s.create("encoder.a", (2, 2))
        with pytest.raises(ValueError, match="duplicate"):
            s.create("encoder.a", (2, 2))

    def test_glorot_bound(self):
        s = ParameterStore(0)
        w = s.create("encoder.w", (30, 20))
        bound = math.sqrt(6.0 / 50)
        assert np.max(np.abs(w.data)) <= bound

    def test_embedding_bound(self):
        s = ParameterStore(0)
        w = s.create("embeddings.w", (40, 8), init="embedding")
        assert np.max(np.abs(w.data)) <= 0.05

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError, match="unknown init"):
            ParameterStore(0).create("encoder.w", (2, 2), init="he")


class TestClipping:
    def test_norm_over_limit_scaled(self):
        a, b = np.array([3.0, 0.0]), np.array([[4.0]])
        grads = {"a": a, "b": b}
        assert ad.clip_gradients(grads, 1.0) == 5.0
        assert grads["a"] is a and grads["b"] is b
        np.testing.assert_array_equal(a, [3.0 * 0.2, 0.0])
        np.testing.assert_array_equal(b, [[4.0 * 0.2]])

    def test_infinite_norm_leaves_gradients_unscaled(self):
        # Scaling by max_norm / inf = 0 would turn the infinite entry into
        # NaN (with numpy's "invalid value" warning, an error under Tier-1)
        # and zero every finite gradient.
        a, b = np.array([3.0, np.inf]), np.array([[4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ad.clip_gradients({"a": a, "b": b}, 1.0) == math.inf
        np.testing.assert_array_equal(a, [3.0, np.inf])
        np.testing.assert_array_equal(b, [[4.0]])

    def test_norm_under_limit_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        assert ad.clip_gradients(grads, 5.0) == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(1, 9), min_size=1, max_size=3),
                              st.sampled_from("CF"), st.integers(0, 2**32 - 1),
                              st.integers(-60, 60)),
                    min_size=1, max_size=4))
    def test_norm_keeps_the_bits_of_summing_each_square(self, specs):
        # The old expression, (g * g).sum() per tensor, on C- and
        # Fortran-ordered gradients of mixed magnitudes: the scratch sums
        # must follow each gradient's own memory order to keep its bits.
        grads = {}
        for k, (shape, order, seed, exponent) in enumerate(specs):
            values = np.random.default_rng(seed).standard_normal(shape) * 2.0 ** exponent
            grads[f"g{k}"] = np.asarray(values, order=order)
        total = 0.0
        for g in grads.values():
            total += float((g * g).sum())
        assert ad.clip_gradients(grads, math.inf) == math.sqrt(total)

    def test_a_sum_of_squares_that_overflows_gives_a_finite_norm(self):
        # 1e200 squared overflows; every entry is finite, and so is the norm.
        grads = {"a": np.array([1e200, 1.0]), "b": np.array([[3e199], [-4e199]])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ad.clip_gradients({"a": np.array([1e200, 1.0])}, 5.0) == 1e200
            norm = ad.clip_gradients(grads, 5.0)
        assert norm == pytest.approx(math.hypot(1e200, 1.0, 3e199, 4e199), rel=1e-15)
        assert math.sqrt(sum(float((g * g).sum()) for g in grads.values())) \
            == pytest.approx(5.0, rel=1e-15)


@pytest.mark.parametrize("module", [stackptr, ad], ids=["stackptr", "autodiff"])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
