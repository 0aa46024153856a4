"""Minimal reverse-mode differentiation kernel.

Everything the parser trains with lives here: a float64 tensor type that
records a tape of backward closures, the handful of operations the model is
built from (products of a matrix or stack of rows with a weight matrix or
of two equal-size stacks of matrices, axis permutation, elementwise ops,
softmax over the last axis, concatenation, masked max-over-time pooling, a
fused LSTM over a (B, T, d) batch of sequences, all of its directions in one
loop, each forward or reversed, whose gate arithmetic decoding shares,
dropout with one random stream per row), a named parameter store with
deterministic initialization, the Adam optimizer, and a finite-difference
gradient checker.

Ops take whole batches, so one training batch records one tape whose size
does not depend on the batch size. :func:`matmul` runs a stack times a
weight matrix on the stack flattened to (rows, d), so callers pass their
(B, T, d) stacks as they are.

A tape runs once (:meth:`Tensor.backward` frees each node once its closure
has run), an array an op built for one parent becomes that parent's first
gradient without a copy, and :func:`adam_step` streams each tensor through
two scratch arrays in cache-sized blocks of rows.

Full-size work also uses a second CPU. :func:`worker` is the package's one
gate for it: the process must be allowed two CPUs and the job must reach
a measured size (:data:`WORKER_MIN_WHH` recurrent weights,
:data:`WORKER_MIN_PARAMS` parameters), or no thread starts (and
``concurrent.futures`` is not imported). Past the gate, :func:`adam_step`
updates half of the parameters (whole tensors, balanced by element count)
on the worker thread, :func:`clip_gradients` squares and scales half of
them there, and a two-direction :func:`lstm_sequence` runs its second
direction there: input product and step loop forward, BPTT loop and
weight-gradient products backward, while every gradient is still added on
the calling thread in the inline order. A job on the worker is plain numpy
with the operations, operands and shapes the inline path gives it, so no
bit depends on which thread ran it or on the gate.

A one-direction :func:`lstm_sequence` (the decoder) has no second
direction to give away. From :data:`WORKER_MIN_SPLIT` recurrent weights up
it runs every product in two halves of its output columns, and the second
half goes to the worker where the gate allows; a process on one CPU runs
both halves in turn. The halves are the op's shape at that size whatever
the CPU count, so the gate moves no bit. That the two halves give the
columns of the one product bit for bit is a property of the BLAS build:
this package's OpenBLAS has it at the full-size decoder (h = 512), which
tests/test_autodiff.py checks, but not at every width past the minimum.

Determinism contract: all randomness flows through :class:`Rng` (Philox
counter RNG, children derived from SHA-256 of a name), parameter values
depend only on the store seed and the parameter name, and all arithmetic is
64-bit. Two stores built with the same seed and construction sequence are
bitwise identical.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

__all__ = [
    "Tensor",
    "Rng",
    "ParameterStore",
    "AdamState",
    "adam_step",
    "grad_check",
    "add",
    "mul",
    "log_softmax",
    "softmax_rows",
    "matmul",
    "transpose",
    "concat",
    "reshape",
    "pick",
    "sum_all",
    "scale",
    "tanh",
    "elu",
    "max_over_windows",
    "dropout",
    "mask_fill",
    "bilinear_vec",
    "lstm_gates",
    "lstm_sequence",
    "dropout_mask",
    "dropout_masks",
    "split_each",
    "clip_gradients",
    "worker",
    "submit",
]

NEG_INF = float("-inf")
ADAM_BLOCK = 1 << 14    # elements per adam_step block: 16K-64K ran fastest, 4K and 256K slower
# Smallest jobs that :func:`worker` hands to a second thread. A handoff costs
# tens of microseconds, and a thread's Python runs only while the other's
# numpy has released the interpreter lock (numpy keeps it through an op on a
# few hundred elements), so small jobs run slower threaded. Measured on 2 CPUs
# with BLAS on one thread:
# - recurrent products, by W_hh elements. The BiLSTM with its second
#   direction threaded (forward plus backward, B = 2, T = 41) took 1.24x as
#   long at 64K (d_h = 128), 0.67x at 131K (d_h = 181) and 0.64x at the
#   full-size 262K; 2.1x at the gate's 4K (B = 6, T = 5). Decoding's
#   next-step product took 2-6% longer at 16K-37K, as long at 64K-100K, and
#   14-23% less from 147K up to the full-size 1M.
# - one-direction LSTMs, by W_hh elements, split by output columns with the
#   second half threaded (:func:`lstm_sequence`; forward plus backward, two
#   handoffs a step). At B = 2, T = 41 they took 2.6x as long at 16K (h = 64),
#   1.9x at 64K, 1.15x at 131K, 0.98x at 262K, 0.79x at 524K and 0.64x at
#   the full-size decoder's 1M; at B = 6, T = 9, 0.94x at 131K and 0.80x at
#   262K. Both halves inline, one CPU, took 1.03x (B = 2) to 1.08x (B = 32)
#   as long as the one product at 1M.
# - per-tensor work over all parameters, by parameter elements (43 tensors).
#   Adam took 1.7x as long threaded at the gate's 86K, 1.01-1.07x at 338K,
#   0.99x at 526K, 0.88-0.90x at 756K, 0.76x at 1.3M and 0.74-0.77x at the
#   full-size 5.4M-6.3M. Clipping's sums of squares, lighter per element,
#   took 2.7x as long at 86K, 1.07-1.15x at 526K-756K, 0.89x at 1.3M and
#   0.67x at 5.3M.
WORKER_MIN_WHH = 1 << 17
WORKER_MIN_SPLIT = 1 << 18
WORKER_MIN_PARAMS = 1 << 20


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """A float64 array plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self) -> None:
        """Run reverse-mode accumulation from this (seed gradient = ones), once:
        each node drops its gradient (but the root), closure and parents when
        its closure has run, and leaves (parameters) keep their gradients."""
        if self._backward is None and self.grad is not None:
            raise RuntimeError("backward() on a consumed tape: build the loss again")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None
            node._backward, node._parents = None, ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` to ``t``'s gradient. A first gradient is a copy of ``g``:
    one backward may hand the same array, or views of it, to several parents,
    and a later ``+=`` would reach them all. ``fresh`` marks an array the op
    built for ``t`` alone, which is handed over as it is."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = g if fresh else np.array(g, dtype=np.float64)
        else:
            t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``. The extra leading
    axes are summed as one axis of rows, as for a product run flat."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.reshape((-1,) + g.shape[extra:]).sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Worker thread
# ---------------------------------------------------------------------------


_pool: tuple[int, Executor] | None = None     # (pid of its process, the executor)


def worker(size: int, minimum: int) -> Executor | None:
    """The package's one worker thread, for a job of ``size`` against its
    kind's measured ``minimum`` (:data:`WORKER_MIN_WHH`,
    :data:`WORKER_MIN_PARAMS`); None where it would not pay: below that
    minimum, or where the process may run on one CPU only.

    The thread starts at the first call past the gate and is shared from
    then on. A forked child gets one of its own: the parent's thread does not
    exist there, and work queued to its executor would never run. Jobs on it
    run plain numpy only, never a :class:`Tensor`: the benchmark's tracer
    and the tape are single-threaded.
    """
    global _pool
    if (size < minimum or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return None
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="stackptr"))
    return _pool[1]


def submit(pool: Executor, fn: Callable, *args) -> Future:
    """``fn(*args)`` on ``pool``, run in a copy of the caller's context, so
    that the caller's ``np.errstate`` (a context variable) holds there too."""
    return pool.submit(contextvars.copy_context().run, fn, *args)


def _in_parallel(pool: Executor, here: Callable[[], None], there: Callable[[], None]) -> None:
    """Run ``there`` on ``pool`` while ``here`` runs on this thread. An error
    in either is raised here, and only once both have stopped, so neither
    half still writes to arrays the caller shares with it."""
    future = submit(pool, there)
    try:
        here()
    finally:
        future.exception()          # waits for the worker's half; raises nothing
    future.result()


def _by_halves(sizes: Sequence[int], job: Callable[[list[int]], None]) -> None:
    """``job`` over the tensor indices of ``sizes`` (their element counts):
    in one call, in index order, or where :func:`worker` allows it for their
    sum, in two halves of about equal count, whole tensors, largest first to
    the smaller half, the second half on the worker."""
    pool = worker(sum(sizes), WORKER_MIN_PARAMS)
    if pool is None:
        job(list(range(len(sizes))))
        return
    halves: tuple[list[int], list[int]] = ([], [])
    load = [0, 0]
    for k in sorted(range(len(sizes)), key=lambda k: -sizes[k]):
        side = 0 if load[0] <= load[1] else 1
        halves[side].append(k)
        load[side] += sizes[k]
    _in_parallel(pool, lambda: job(halves[0]), lambda: job(halves[1]))


# ---------------------------------------------------------------------------
# Elementwise and linear algebra
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: np.ndarray) -> None:
        _accum(a, g * c)

    return _node(a.data * c, (a,), backward)


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of ``a`` (..., k) with a matrix ``b`` (k, n) -> (..., n), or
    the batched product of two stacks (B, m, k) @ (B, k, n) -> (B, m, n).

    A stack times a matrix runs as one (rows, k) @ (k, n) product: numpy is
    much slower on a stacked (T, B, k) @ (k, n) product than on the same
    rows as one matrix.
    """
    if b.data.ndim == 2:
        rows = a.data.reshape(-1, a.data.shape[-1])

        def backward(g: np.ndarray) -> None:
            g_rows = g.reshape(-1, g.shape[-1])
            _accum(a, (g_rows @ b.data.T).reshape(a.data.shape), fresh=True)
            _accum(b, rows.T @ g_rows, fresh=True)

        out_data = (rows @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])
        return _node(out_data, (a, b), backward)

    def backward(g: np.ndarray) -> None:
        _accum(a, g @ _swap_last(b.data), fresh=True)
        _accum(b, _swap_last(a.data) @ g, fresh=True)

    return _node(a.data @ b.data, (a, b), backward)


def transpose(m: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute the axes of ``m``; by default swap the last two (the
    transpose of a matrix, or of every matrix in a stack)."""
    if axes is None:
        axes = tuple(range(m.data.ndim - 2)) + (m.data.ndim - 1, m.data.ndim - 2)

    def backward(g: np.ndarray) -> None:
        _accum(m, g.transpose(np.argsort(axes)))

    return _node(m.data.transpose(axes), (m,), backward)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            _accum(p, g[tuple(sl)])

    return _node(out_data, parts, backward)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same entries in C order under a new shape."""
    def backward(g: np.ndarray) -> None:
        _accum(t, g.reshape(t.data.shape))

    return _node(t.data.reshape(shape), (t,), backward)


def pick(v: Tensor, index) -> Tensor:
    """Select entries by numpy index: one int gives a scalar tensor, an
    index array or list gives those rows (repeats allowed), and a tuple of
    index arrays (one per axis) gives the vector of those entries."""
    def backward(g: np.ndarray) -> None:
        if v.requires_grad:
            gv = np.zeros_like(v.data)
            np.add.at(gv, index, g)
            _accum(v, gv, fresh=True)

    return _node(np.asarray(v.data[index]), (v,), backward)


def sum_all(t: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        _accum(t, np.full_like(t.data, float(g)))

    return _node(np.asarray(t.data.sum()), (t,), backward)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Below z = -709.78, exp(-z) overflows to inf and the sigmoid is exactly 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def tanh(t: Tensor) -> Tensor:
    out_data = np.tanh(t.data)

    def backward(g: np.ndarray) -> None:
        _accum(t, g * (1.0 - out_data * out_data))

    return _node(out_data, (t,), backward)


def elu(t: Tensor) -> Tensor:
    neg_part = np.exp(np.minimum(t.data, 0.0)) - 1.0
    out_data = np.where(t.data > 0.0, t.data, neg_part)

    def backward(g: np.ndarray) -> None:
        _accum(t, g * np.where(t.data > 0.0, 1.0, neg_part + 1.0))

    return _node(out_data, (t,), backward)


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------


def _check_softmax_input(values: np.ndarray) -> None:
    """Reject a score vector, or a matrix with any row, that has no
    probability mass to spread or holds NaN/+inf."""
    if values.size == 0:
        raise ValueError("softmax of an empty score vector")
    if np.isneginf(values).all(axis=-1).any():
        raise ValueError("fully masked distribution")
    finite_or_masked = np.isfinite(values) | np.isneginf(values)
    if not finite_or_masked.all():
        raise ValueError("softmax scores must be finite or -inf")


def log_softmax(scores: Tensor) -> Tensor:
    """Log-softmax over the last axis: of a score vector, or of every row
    of a matrix or stack of matrices."""
    v = scores.data
    _check_softmax_input(v)
    shifted = v - v.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - log_z

    def backward(g: np.ndarray) -> None:
        _accum(scores, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _node(out_data, (scores,), backward)


def softmax_rows(m: Tensor) -> Tensor:
    """Softmax over the last axis (used for attention probabilities)."""
    v = m.data
    shifted = v - v.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * probs).sum(axis=-1, keepdims=True)
        _accum(m, probs * (g - dot))

    return _node(probs, (m,), backward)


def mask_fill(scores: Tensor, legal: np.ndarray) -> Tensor:
    """Replace entries where ``legal`` is False with -inf."""
    legal = np.asarray(legal, dtype=bool)
    out_data = np.where(legal, scores.data, NEG_INF)

    def backward(g: np.ndarray) -> None:
        _accum(scores, np.where(legal, g, 0.0))

    return _node(out_data, (scores,), backward)


# ---------------------------------------------------------------------------
# Pooling, dropout
# ---------------------------------------------------------------------------


def max_over_windows(m: Tensor, real: np.ndarray) -> Tensor:
    """Max-over-time pooling of many sequences at once: (B, W, F) -> (B, F).

    ``real`` (B, W) marks each sequence's windows, at least one per
    sequence; the others never win. Ties go to the first window.
    """
    arg = np.where(real[:, :, None], m.data, NEG_INF).argmax(axis=1)
    rows, cols = np.indices(arg.shape)
    out_data = m.data[rows, arg, cols]

    def backward(g: np.ndarray) -> None:
        if m.requires_grad:
            gm = np.zeros_like(m.data)
            gm[rows, arg, cols] = g
            _accum(m, gm)

    return _node(out_data, (m,), backward)


def dropout_mask(shape: tuple[int, ...] | int, rate: float, rng: "Rng") -> np.ndarray:
    """Inverted-dropout factors: 1/(1-rate) where kept, 0 where dropped.

    Draws ``rng.random(shape)``; Philox streams are contiguous, so one
    (k, a+b) draw split by columns equals k alternating draws of a and b.
    """
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout_masks(shape: tuple[int, ...] | int, rate: float,
                  rngs: Sequence["Rng"]) -> np.ndarray:
    """One :func:`dropout_mask` of ``shape`` per stream, stacked: (B, *shape)."""
    return np.stack([dropout_mask(shape, rate, rng) for rng in rngs])


def dropout(t: Tensor, rate: float, rngs: Sequence["Rng"] | None) -> Tensor:
    """Inverted dropout of a batch, kept entries scaled by 1/(1-rate); the
    identity without streams (evaluation). Row b of the leading axis draws its
    mask from ``rngs[b]``, so each sequence keeps its own stream in any batch."""
    if rngs is None or rate == 0.0:
        return t
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1): {rate}")
    if None in rngs or len(rngs) != t.data.shape[0]:
        raise ValueError("dropout needs one Rng per batch row")
    factor = dropout_masks(t.data.shape[1:], rate, rngs)
    out_data = t.data * factor

    def backward(g: np.ndarray) -> None:
        _accum(t, g * factor)

    return _node(out_data, (t,), backward)


def bilinear_vec(left: Tensor, weight: Tensor, right: Tensor) -> Tensor:
    """Per-slice bilinear form of k paired rows: out[j, l] = left[j] .
    weight[l] . right[j].

    ``left`` is (k, d_left), ``weight`` (L, d_left, d_right) and ``right``
    (k, d_right); the output is (k, L). Every product is a batched matmul
    over L.
    """
    through = left.data @ weight.data                  # (L, k, d_right)
    out_data = (through * right.data).sum(axis=-1).T   # (k, L)

    def backward(g: np.ndarray) -> None:
        g_t = g.T[:, :, None]                          # (L, k, 1)
        if left.requires_grad:
            back = right.data @ weight.data.transpose(0, 2, 1)   # (L, k, d_left)
            _accum(left, (back * g_t).sum(axis=0))
        if weight.requires_grad:
            _accum(weight, (left.data * g_t).transpose(0, 2, 1) @ right.data)
        if right.requires_grad:
            _accum(right, (through * g_t).sum(axis=0))

    return _node(out_data, (left, weight, right), backward)


def lstm_gates(z: np.ndarray, c: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gate arithmetic of one LSTM step, for one sequence or a batch.

    ``z`` holds the pre-activations (..., 4h) in gate order i, f, g, o and
    ``c`` the incoming cell state (..., h). Returns the gate activations,
    the new cell state, its tanh and the new hidden state. Training
    (:func:`lstm_sequence`) and greedy decoding share this one definition.
    """
    hidden = c.shape[-1]
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    act = _sigmoid(z)
    act[..., g_] = np.tanh(z[..., g_])
    c_next = act[..., f_] * c + act[..., i_] * act[..., g_]
    tanh_c = np.tanh(c_next)
    return act, c_next, tanh_c, act[..., o_] * tanh_c


def lstm_sequence(x: Tensor, weights: Sequence[tuple[Tensor, Tensor, Tensor]],
                  in_mask: np.ndarray | None = None, h_mask: np.ndarray | None = None,
                  reverse: np.ndarray | None = None) -> Tensor:
    """LSTM in D directions, one (W_ih, W_hh, b) triple of ``weights`` each,
    over the row sequences of a batch ``x`` (B, T, d), each from a zero state;
    returns the hidden states (B, T, D*h) in row order, direction by direction.

    ``in_mask`` (D, B, d) and ``h_mask`` (D, B, h) multiply each sequence's
    input rows and recurrent input (variational dropout: one mask per sequence
    and direction). ``reverse`` (D, B) runs sequence b of direction k backward
    over its first ``reverse[k, b]`` rows, then forward over the rest; 0, or no
    ``reverse``, runs it forward. The batch runs time-major, one :func:`lstm_gates`
    call per step for all directions, and each direction keeps its own
    (T*B, d) @ (d, 4h) input and (B, h) @ (h, 4h) step products. The op is one
    tape node, its backward hand-written BPTT in one loop with (4h, T*B) @ (T*B, .)
    weight gradients (the fused recurrent layer of Appleyard et al. 2016).

    Where :func:`worker` allows it for a W_hh of that size, the second half
    of the directions runs on the worker thread, forward and backward, with
    the first half's products, step loop and gate arithmetic as they are; the
    gates are elementwise, so each direction keeps its bits. Gradients are
    added on the calling thread, direction by direction as inline.

    One direction with at least :data:`WORKER_MIN_SPLIT` W_hh elements runs
    each product in two halves instead: the input product plus bias and each
    step's recurrent product in gate columns [0, 2h) and [2h, 4h), each BPTT
    step's (B, 4h) @ W_hh in columns [0, h/2) and [h/2, h), the weight
    gradients in gate rows and ``dx`` in input columns. The second half runs
    on the worker where there is one, else after the first. The split
    follows W_hh's size alone (cutting products finer, or at tiny sizes,
    changed bits), and :func:`lstm_gates`, the BPTT elementwise work, the
    bias gradient and every gradient's addition stay on the calling thread.
    """
    batch, steps, width = x.data.shape
    if steps == 0:
        raise ValueError("LSTM over an empty sequence")
    dirs, hidden = len(weights), weights[0][1].data.shape[1]
    w_ih, w_hh, bias = ([triple[j].data for triple in weights] for j in range(3))
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    # Step t of direction k reads row flip[k, t, b] of sequence b. A mirror
    # map is its own inverse, so flip also maps states and gradients back.
    ends = np.broadcast_to(0 if reverse is None else reverse, (dirs, batch))[:, None]
    t_, lanes = np.arange(steps)[:, None], np.arange(batch)
    flip = np.where(t_ < ends, ends - 1 - t_, t_)
    xs = x.data[lanes, flip]                             # (D, T, B, d) step rows
    if in_mask is not None:
        xs *= in_mask[:, None]
    # Each step's activations i, f, g, o overwrite its input pre-activations.
    gates = np.empty((dirs, steps, batch, 4 * hidden))
    states = np.zeros((dirs, steps + 1, batch, hidden))  # states[:, t] is step t's incoming h
    cells = np.zeros((steps + 1, dirs, batch, hidden))   # cells[t] is step t's incoming c
    tanh_c = np.empty((steps, dirs, batch, hidden))
    # One direction at full size splits its products by output columns
    # instead: the split follows W_hh's size alone, so the CPU count only
    # decides whether the second half runs on the worker or after the first.
    halves = dirs == 1 and w_hh[0].size >= WORKER_MIN_SPLIT
    pool = worker(w_hh[0].size, WORKER_MIN_SPLIT if dirs == 1 else WORKER_MIN_WHH)

    def by_direction(job: Callable[[slice], None]) -> None:
        """``job`` over every direction: in one call, or in two halves, the
        second on the worker."""
        if pool is None or halves:      # one direction splits its products instead
            job(slice(None))
        else:
            _in_parallel(pool, lambda: job(slice(dirs // 2)),
                         lambda: job(slice(dirs // 2, None)))

    def by_columns(job: Callable[..., None], *widths: int) -> None:
        """``job`` with one slice of output columns per width: all of them,
        or where the call splits, the first and then the second halves, the
        second on the worker where there is one."""
        if not halves:
            job(*[slice(None)] * len(widths))
            return
        first = [slice(n // 2) for n in widths]
        second = [slice(n // 2, n) for n in widths]
        if pool is None:
            job(*first)
            job(*second)
        else:
            _in_parallel(pool, lambda: job(*first), lambda: job(*second))

    def forward(ks: slice) -> None:
        for k in range(dirs)[ks]:
            rows, z_rows = xs[k].reshape(-1, width), gates[k].reshape(-1, 4 * hidden)
            by_columns(lambda c: np.add(rows @ w_ih[k][c].T, bias[k][c], out=z_rows[:, c]),
                       4 * hidden)
        z_, h_, c_, tanh_c_ = gates[ks], states[ks], cells[:, ks], tanh_c[:, ks]
        mask = None if h_mask is None else h_mask[ks]
        for t in range(steps):
            h_in = h_[:, t] if mask is None else h_[:, t] * mask
            for z, h, w in zip(z_[:, t], h_in, w_hh[ks]):
                if halves:
                    by_columns(lambda c: np.add(z[:, c], h @ w[c].T, out=z[:, c]), 4 * hidden)
                else:
                    z += h @ w.T
            z_[:, t], c_[t + 1], tanh_c_[t], h_[:, t + 1] = lstm_gates(z_[:, t], c_[t])

    by_direction(forward)

    def backward(g: np.ndarray) -> None:
        g = g.reshape(batch, steps, dirs, hidden)[lanes, flip.transpose(1, 0, 2),
                                                  np.arange(dirs)[:, None]]
        dz = np.empty((dirs, steps, batch, 4 * hidden))
        wanted = [[t.requires_grad for t in triple] for triple in weights]
        x_wanted = x.requires_grad
        grads: list[tuple[np.ndarray | None, ...]] = [()] * dirs   # W_ih, W_hh, b, x

        def bptt(ks: slice) -> None:
            dz_, dy, z_, c_, tanh_c_ = dz[ks], g[:, ks], gates[ks], cells[:, ks], tanh_c[:, ks]
            mask = None if h_mask is None else h_mask[ks]
            dh_next, dc_next = np.zeros((2, len(dz_), batch, hidden))
            for t in range(steps - 1, -1, -1):
                i, f, gg, o = (z_[:, t, ..., gate] for gate in (i_, f_, g_, o_))
                dh = dy[t] + dh_next
                dc = dc_next + dh * o * (1.0 - tanh_c_[t] * tanh_c_[t])
                dz_[:, t, :, i_] = dc * gg * i * (1.0 - i)
                dz_[:, t, :, f_] = dc * c_[t] * f * (1.0 - f)
                dz_[:, t, :, g_] = dc * i * (1.0 - gg * gg)
                dz_[:, t, :, o_] = dh * tanh_c_[t] * o * (1.0 - o)
                dc_next = dc * f
                if t:
                    for d, out, w in zip(dz_[:, t], dh_next, w_hh[ks]):
                        if halves:
                            by_columns(lambda c: np.matmul(d, w[:, c], out=out[:, c]), hidden)
                        else:
                            np.matmul(d, w, out=out)
                    if mask is not None:
                        dh_next *= mask
            for k in range(dirs)[ks]:
                dz_rows = dz[k].reshape(-1, 4 * hidden)
                rows = xs[k].reshape(-1, width)
                h_in = states[k, :-1] if h_mask is None else states[k, :-1] * h_mask[k]
                h_rows = h_in.reshape(-1, hidden)
                d_ih = np.empty((4 * hidden, width)) if wanted[k][0] else None
                d_hh = np.empty((4 * hidden, hidden)) if wanted[k][1] else None
                dx = np.empty((steps * batch, width)) if x_wanted else None

                def products(c: slice, cx: slice) -> None:
                    # Gate rows c of the weight gradients, input columns cx of dx.
                    if d_ih is not None:
                        np.matmul(dz_rows[:, c].T, rows, out=d_ih[c])
                    if d_hh is not None:
                        np.matmul(dz_rows[:, c].T, h_rows, out=d_hh[c])
                    if dx is not None:
                        np.matmul(dz_rows, w_ih[k][:, cx], out=dx[:, cx])

                by_columns(products, 4 * hidden, width)
                d_b = dz_rows.sum(axis=0) if wanted[k][2] else None
                if dx is not None:
                    dx = dx.reshape(steps, batch, width)
                    dx = (dx if in_mask is None else dx * in_mask[k])[flip[k].T, lanes[:, None]]
                grads[k] = d_ih, d_hh, d_b, dx

        by_direction(bptt)
        for triple, parts in zip(weights, grads):
            for param, grad in zip((*triple, x), parts):
                if grad is not None:
                    _accum(param, grad, fresh=True)

    out = states[np.arange(dirs), flip.transpose(2, 1, 0) + 1, lanes[:, None, None]]
    return _node(out.reshape(batch, steps, -1), (x, *[w for ws in weights for w in ws]), backward)


# ---------------------------------------------------------------------------
# Random numbers
# ---------------------------------------------------------------------------


class Rng:
    """Seedable, splittable random source.

    Backed by numpy's Philox counter generator. ``split(name)`` derives an
    independent child stream keyed by the SHA-256 of the name, so a value
    drawn for e.g. parameter "encoder.attn.Wm" depends only on the seed and
    that name, never on draw order.

    A stream is its entropy words: the seed's uint32 words, zero-padded to
    four, then the first four words of each name's digest along the split
    path. That is the pool numpy assembles for ``SeedSequence(entropy=seed,
    spawn_key=<digest words>)``, so the draws are those of that generator.
    Splitting only appends words; the generator is built on the first draw,
    so streams that are split and never drawn from cost almost nothing.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"Rng seed must be >= 0, got {self.seed}")
        words = [(self.seed >> k) & 0xFFFFFFFF for k in range(0, self.seed.bit_length(), 32)]
        self._entropy = np.array(words + [0] * (4 - len(words)), dtype=np.uint32)
        self._gen: np.random.Generator | None = None

    def split(self, name: str) -> "Rng":
        child = Rng.__new__(Rng)
        child.seed = self.seed
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        child._entropy = np.concatenate((self._entropy, np.frombuffer(digest, "<u4", 4)))
        child._gen = None
        return child

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(self._entropy)))
        return self._gen

    def random(self, shape: tuple[int, ...] | int | None = None) -> np.ndarray:
        return self._generator().random(shape)

    def uniform(self, low: float, high: float, shape: tuple[int, ...] | int) -> np.ndarray:
        return self._generator().uniform(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)

    def integers(self, low: int, high: int) -> int:
        return int(self._generator().integers(low, high))


def split_each(rngs: Sequence[Rng] | None, name: str) -> list[Rng] | None:
    """The child stream ``name`` of each of ``rngs`` (one per row); None stays None."""
    return None if rngs is None else [rng.split(name) for rng in rngs]


# ---------------------------------------------------------------------------
# Parameter store
# ---------------------------------------------------------------------------


class ParameterStore:
    """Ordered map of hierarchical names to trainable tensors."""

    def __init__(self, rng_seed: int):
        self.rng_seed = int(rng_seed)
        self._entries: dict[str, Tensor] = {}
        self._rng = Rng(self.rng_seed)

    def create(self, name: str, shape: tuple[int, ...], init: str = "glorot") -> Tensor:
        """Create and register a parameter.

        ``init`` is one of "glorot" (uniform +-sqrt(6/(fan_in+fan_out))),
        "zeros" (biases), or "embedding" (uniform +-0.05). Values depend only
        on (rng_seed, name).
        """
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        rng = self._rng.split(name)
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "embedding":
            data = rng.uniform(-0.05, 0.05, shape)
        elif init == "glorot":
            fan_out, fan_in = shape[-2], shape[-1]
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-bound, bound, shape)
        else:
            raise ValueError(f"unknown init scheme: {init}")
        t = Tensor(data, requires_grad=True)
        self._entries[name] = t
        return t

    def put(self, name: str, values: np.ndarray) -> Tensor:
        """Register a parameter with explicit values (checkpoint load, surgery),
        copied into a new float64 array: the store never aliases the caller's buffer."""
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
        self._entries[name] = t
        return t

    def constants(self) -> "ParameterStore":
        """The same values as constant tensors, shared rather than copied.
        Operations on constants record no tape, so forward passes that
        nothing differentiates (parsing) read parameters through this."""
        frozen = ParameterStore(self.rng_seed)
        frozen._entries = {name: Tensor(t.data) for name, t in self._entries.items()}
        return frozen

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def zero_grads(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Current gradients, with zeros for parameters untouched by the tape."""
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._entries.items()
        }


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter Adam moments plus the shared step counter."""

    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: ParameterStore, grads: dict[str, np.ndarray],
              state: AdamState, learning_rate: float) -> None:
    """Standard Adam update with bias correction, of every parameter in
    place; ``grads`` holds one gradient per parameter and is only read. A
    tensor over :data:`ADAM_BLOCK` elements runs in cache-sized blocks of
    whole leading-axis rows (views in any layout, so the update writes
    through); each element sees the same operations in the same order
    whatever the blocks. Every gradient is checked before anything is
    written, so a refused step leaves parameters and state as they were.

    Where :func:`worker` allows it for the parameter count, the worker
    updates half of the tensors (about half the elements) while this thread
    updates the others, each half through its own two scratch arrays. New
    moments are zeroed block by block as the update reaches them, by the
    thread that updates them."""
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be positive: {learning_rate}")
    for name, param in params.items():
        if name not in grads:
            raise ValueError(f"no gradient for {name}")
        if grads[name].shape != param.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}: "
                             f"{grads[name].shape} vs {param.data.shape}")
    state.step_count += 1
    t = state.step_count
    constants = (state.beta1, state.beta2, state.epsilon, 1.0 - state.beta1 ** t,
                 1.0 - state.beta2 ** t, learning_rate)
    jobs, fresh = [], {}
    for name, param in params.items():
        if name in state.m:
            jobs.append((param.data, grads[name], state.m[name], state.v[name], False))
        else:
            fresh[name] = m, v = np.empty_like(param.data), np.empty_like(param.data)
            jobs.append((param.data, grads[name], m, v, True))
    _by_halves([job[0].size for job in jobs],
               lambda part: _adam_update([jobs[k] for k in part], *constants))
    # New moments join the state once the update has written all of them.
    for name, (m, v) in fresh.items():
        state.m[name], state.v[name] = m, v


def _adam_update(jobs: Sequence[tuple], beta1: float, beta2: float, eps: float,
                 bc1: float, bc2: float, learning_rate: float) -> None:
    """Adam on each (parameter, gradient, m, v, fresh moments) of ``jobs``,
    in place, in plain numpy (it may run on the worker), through two scratch
    arrays."""
    c1, c2 = 1.0 - beta1, 1.0 - beta2
    scratch_a, scratch_b = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for p, g, m, v, fresh in jobs:
        if p.size <= ADAM_BLOCK:
            blocks = ((p, g, m, v),)
        else:
            row = p.size // len(p)
            rows = max(1, ADAM_BLOCK // row)        # one row per block if a row is longer
            if row > len(scratch_a):
                scratch_a, scratch_b = np.empty(row), np.empty(row)
            blocks = ((p[i:i + rows], g[i:i + rows], m[i:i + rows], v[i:i + rows])
                      for i in range(0, len(p), rows))
        for pb, gb, mb, vb in blocks:
            a = scratch_a[:pb.size].reshape(pb.shape)
            b = scratch_b[:pb.size].reshape(pb.shape)
            if fresh:
                mb[...] = 0.0
                vb[...] = 0.0
            mb *= beta1
            mb += np.multiply(gb, c1, out=a)
            vb *= beta2
            vb += np.multiply(np.multiply(gb, c2, out=a), gb, out=a)
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), in the two scratch arrays
            np.multiply(np.divide(mb, bc1, out=a), learning_rate, out=a)
            np.add(np.sqrt(np.divide(vb, bc2, out=b), out=b), eps, out=b)
            pb -= np.divide(a, b, out=a)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so that their global norm is at most
    ``max_norm``; return the norm before clipping. A norm that is not finite
    leaves the gradients as they are: it is the caller's to refuse. Where
    :func:`worker` allows it, as for :func:`adam_step`, the worker squares
    and scales half of the tensors."""
    arrays = list(grads.values())
    sizes = [g.size for g in arrays]
    sums = [0.0] * len(arrays)

    def square_sums(part: list[int]) -> None:
        # Each tensor is squared into one scratch array, reused across the
        # part's tensors, in the gradient's own memory order, so each sum
        # keeps the bits of (g * g).sum().
        scratch = np.empty(max((sizes[k] for k in part), default=0))
        with np.errstate(over="ignore"):
            for k in part:
                flat = arrays[k].ravel(order="K")
                sums[k] = float(np.square(flat, out=scratch[:flat.size]).sum())

    _by_halves(sizes, square_sums)
    # Added in tensor order, in a plain loop: from Python 3.12, sum()
    # compensates float sums, which would change the bits.
    total = 0.0
    for part in sums:
        total += part
    norm = math.sqrt(total) if total != math.inf else _scaled_norm(arrays)
    if math.isfinite(norm) and norm > max_norm > 0:
        factor = max_norm / norm

        def scale(part: list[int]) -> None:
            for k in part:
                arrays[k] *= factor

        _by_halves(sizes, scale)
    return norm


def _scaled_norm(arrays: Sequence[np.ndarray]) -> float:
    """The global norm of gradients whose sum of squares overflows: each
    tensor is scaled by its largest magnitude before it is squared, and the
    partial sums are combined as LAPACK's dnrm2 combines them. It is infinite
    only when some entry is, or when the norm itself exceeds the float range."""
    scale, ssq = 0.0, 1.0
    scratch = np.empty(max(g.size for g in arrays))
    for g in arrays:
        flat, part = g.ravel(order="K"), scratch[:g.size]
        peak = float(np.abs(flat, out=part).max(initial=0.0))
        if not math.isfinite(peak):
            return peak
        if peak == 0.0:
            continue
        np.divide(flat, peak, out=part)
        squares = float(np.square(part, out=part).sum())
        if peak > scale:
            scale, ssq = peak, squares + ssq * (scale / peak) ** 2
        else:
            ssq += squares * (peak / scale) ** 2
    return scale * math.sqrt(ssq)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def grad_check(loss_fn: Callable[[ParameterStore], Tensor],
               params: ParameterStore,
               epsilon: float = 1e-5,
               names: Iterable[str] | None = None) -> dict[str, float]:
    """Compare analytic gradients against central differences.

    Returns, per parameter tensor, the worst relative error
    |analytic - numeric| / max(1, |analytic|, |numeric|) over its scalars.
    ``names`` restricts the sweep (default: every parameter).
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon out of range [1e-7, 1e-3]: {epsilon}")

    def evaluate() -> float:
        value = float(loss_fn(params).data)
        if not math.isfinite(value):
            raise ValueError("non-finite objective")
        return value

    params.zero_grads()
    loss = loss_fn(params)
    if not math.isfinite(float(loss.data)):
        raise ValueError("non-finite objective")
    loss.backward()
    analytic = params.gradients()
    params.zero_grads()

    sweep = params.names() if names is None else list(names)
    worst: dict[str, float] = {}
    for name in sweep:
        flat = params[name].data.reshape(-1)
        ga = analytic[name].reshape(-1)
        err = 0.0
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            f_plus = evaluate()
            flat[i] = original - epsilon
            f_minus = evaluate()
            flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            rel = abs(ga[i] - numeric) / max(1.0, abs(ga[i]), abs(numeric))
            err = max(err, rel)
        worst[name] = err
    return worst
