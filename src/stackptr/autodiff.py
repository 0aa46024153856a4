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

Determinism contract: all randomness flows through :class:`Rng` (Philox
counter RNG, children derived from SHA-256 of a name), parameter values
depend only on the store seed and the parameter name, and all arithmetic is
64-bit. Two stores built with the same seed and construction sequence are
bitwise identical.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

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
]

NEG_INF = float("-inf")
ADAM_BLOCK = 1 << 14    # elements per adam_step block: 16K-64K ran fastest, 4K and 256K slower


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
    """
    batch, steps, width = x.data.shape
    if steps == 0:
        raise ValueError("LSTM over an empty sequence")
    dirs, hidden = len(weights), weights[0][1].data.shape[1]
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
    for rows, z, (w_ih, _, bias) in zip(xs, gates, weights):
        np.add(rows.reshape(-1, width) @ w_ih.data.T, bias.data, out=z.reshape(-1, 4 * hidden))
    states = np.zeros((dirs, steps + 1, batch, hidden))  # states[:, t] is step t's incoming h
    cells = np.zeros((steps + 1, dirs, batch, hidden))   # cells[t] is step t's incoming c
    tanh_c = np.empty((steps, dirs, batch, hidden))
    for t in range(steps):
        h_in = states[:, t] if h_mask is None else states[:, t] * h_mask
        for z, h, (_, w_hh, _) in zip(gates[:, t], h_in, weights):
            z += h @ w_hh.data.T
        gates[:, t], cells[t + 1], tanh_c[t], states[:, t + 1] = lstm_gates(gates[:, t], cells[t])

    def backward(g: np.ndarray) -> None:
        g = g.reshape(batch, steps, dirs, hidden)[lanes, flip.transpose(1, 0, 2),
                                                  np.arange(dirs)[:, None]]
        dz = np.empty((dirs, steps, batch, 4 * hidden))
        dh_next, dc_next = np.zeros((2, dirs, batch, hidden))
        for t in range(steps - 1, -1, -1):
            i, f, gg, o = (gates[:, t, ..., gate] for gate in (i_, f_, g_, o_))
            dh = g[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
            dz[:, t, :, i_] = dc * gg * i * (1.0 - i)
            dz[:, t, :, f_] = dc * cells[t] * f * (1.0 - f)
            dz[:, t, :, g_] = dc * i * (1.0 - gg * gg)
            dz[:, t, :, o_] = dh * tanh_c[t] * o * (1.0 - o)
            dc_next = dc * f
            if t:
                for d, out, (_, w_hh, _) in zip(dz[:, t], dh_next, weights):
                    np.matmul(d, w_hh.data, out=out)
                if h_mask is not None:
                    dh_next *= h_mask
        for k, (w_ih, w_hh, bias) in enumerate(weights):
            dz_rows = dz[k].reshape(-1, 4 * hidden)
            if w_ih.requires_grad:
                _accum(w_ih, dz_rows.T @ xs[k].reshape(-1, width), fresh=True)
            if w_hh.requires_grad:
                h_in = states[k, :-1] if h_mask is None else states[k, :-1] * h_mask[k]
                _accum(w_hh, dz_rows.T @ h_in.reshape(-1, hidden), fresh=True)
            if bias.requires_grad:
                _accum(bias, dz_rows.sum(axis=0))
            if x.requires_grad:
                dx = (dz_rows @ w_ih.data).reshape(steps, batch, width)
                _accum(x, (dx if in_mask is None else dx * in_mask[k])[flip[k].T, lanes[:, None]],
                       fresh=True)

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
    through), all through two scratch arrays allocated once per call; each
    element sees the same operations in the same order whatever the blocks."""
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be positive: {learning_rate}")
    state.step_count += 1
    t = state.step_count
    beta1, beta2, eps = state.beta1, state.beta2, state.epsilon
    c1, c2 = 1.0 - beta1, 1.0 - beta2
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    scratch_a, scratch_b = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for name, param in params.items():
        p, g = param.data, grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}: {g.shape} vs {p.shape}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
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
    leaves the gradients as they are: it is the caller's to refuse."""
    # Each tensor is squared into one scratch array, reused across tensors,
    # in the gradient's own memory order, so each sum keeps the bits of
    # (g * g).sum(). A plain loop: from Python 3.12, sum() compensates float
    # sums, which would change the bits.
    scratch = np.empty(max((g.size for g in grads.values()), default=0))
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads.values():
            flat = g.ravel(order="K")
            total += float(np.square(flat, out=scratch[:flat.size]).sum())
    norm = math.sqrt(total) if total != math.inf else _scaled_norm(grads, scratch)
    if math.isfinite(norm) and norm > max_norm > 0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


def _scaled_norm(grads: dict[str, np.ndarray], scratch: np.ndarray) -> float:
    """The global norm of gradients whose sum of squares overflows: each
    tensor is scaled by its largest magnitude before it is squared, and the
    partial sums are combined as LAPACK's dnrm2 combines them. It is infinite
    only when some entry is, or when the norm itself exceeds the float range."""
    scale, ssq = 0.0, 1.0
    for g in grads.values():
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
