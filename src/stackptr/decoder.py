"""Top-down pointer decoder: transition system, legality, biaffine scoring.

The machine starts with ROOT alone on its stack. At every step it
"points" from the stack top t to a position p:

* p == t  pops t (its subtree is finished);
* p != t  attaches p to t (new arc t -> p) and pushes p.

A run over an n-token sentence always takes exactly 2n+1 steps: each real
token is pushed once (n arc steps) and every position including ROOT is
popped once (n+1 self-points). The stack emptying is the terminal state.

A token is pushed exactly when it is attached to the top, so the stack is
always the head chain from the top: popping t makes ``heads[t]`` the new
top, and popping ROOT leaves -1, its head. A machine is therefore fully
described by its head vector and its top, and a batch of machines by a
(B, N+1) heads matrix and a (B,) vector of tops; no stack is kept.
:func:`step` makes one machine's move on its head row in O(1).

Legality has two flavors. In ``decode`` mode the self-point on ROOT is
forbidden while tokens remain unattached, since popping ROOT then would
strand them. In ``likelihood`` mode the self-point is always part of the
normalizer — training scores the pop option even where the executor would
refuse it — so probabilities over legal actions stay comparable across
steps. The two masks are identical everywhere else. Neither limits the
number of tokens attached to ROOT. One rule computes legality for a batch
of machines from their heads and tops (:func:`legal_masks`).

Under teacher forcing the gold path fixes every step's stack top, legality
mask and target in advance. Every length-n path has 2n+1 steps, so
:func:`gold_plan` plans a batch of same-length trees at once, with no loop
over steps: a path names each token at its attach step, whose top is the
token's head, and at its pop step, whose top is the token, and all masks
come from one :func:`legal_masks` call over the heads at every step. The
training objective of the whole batch is then one computation over score
stacks (:func:`path_log_likelihood`): :func:`biaffine_score` turns the
(B, T, d) decoder rows of T steps into their (B, T, n+1) score rows, and
greedy decoding scores its one step per sentence as T = 1.

Greedy search (:func:`decode_greedy`) runs a batch of sentences in
lockstep, longest first, so the unfinished ones are a leading block: each
step asks one batched scorer for the block's scores, given its tops, and
computes all its masks with one :func:`legal_masks` call; the heads and
label ids of all the machines are two (B, N+1) matrices, and the parses
are read off them. The moves still go through
:func:`step`, once per sentence per step, where two array assignments
over the block would do: the traced runs of ``benchmark/run.py`` check
that a parse makes exactly 2n+1 ``step`` calls per sentence, and the loop
stays until that count comes from a counter in the package (ROADMAP
item 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .treebank import DependencyTree

def legal_masks(heads: np.ndarray, tops: np.ndarray, mode: str = "decode") -> np.ndarray:
    """Boolean (B, N+1) masks over pointer targets for B machines at once.

    ``heads`` is (B, N+1), row b the head vector of machine b (-1 where
    unattached; positions past a machine's own n hold any other value and are
    never legal), and ``tops`` the (B,) stack tops. No machine may be terminal.
    """
    if mode not in ("decode", "likelihood"):
        raise ValueError(f"unknown legality mode: {mode!r}")
    # A token is pushed exactly when it is attached, so the unattached
    # tokens are the ones still open to point at; ROOT's -1 is not a target.
    mask = heads == -1
    mask[:, 0] = False
    # Self-point: always available off ROOT; on ROOT only once everything is
    # attached (decode) or unconditionally in the likelihood normalizer.
    mask[np.arange(len(tops)), tops] = (mode == "likelihood") | (tops != 0) | ~mask.any(axis=1)
    return mask


def step(heads: np.ndarray, top: int, target: int) -> int:
    """Move one machine, given its head row and stack top; return the new top.

    An attach (``target != top``) writes ``heads[target] = top`` and makes
    ``target`` the top. A pop returns ``heads[top]``, the position below the
    top on the stack: -1 once ROOT pops, which ends the run. The move is not
    checked: callers pick it from :func:`legal_masks`.
    """
    if target == top:
        return int(heads[top])
    heads[target] = top
    return target


def _child_key(order: str, head: int):
    if order == "inside_out":
        return lambda c: (abs(c - head), c)
    if order == "left2right":
        return lambda c: c
    if order == "right2left":
        return lambda c: -c
    raise ValueError(f"unknown child_order: {order!r}")


def gold_path(tree: DependencyTree, child_order: str = "inside_out") -> list[int]:
    """Canonical action sequence producing ``tree``.

    Depth-first from ROOT, each visit closed by a self-point; a head's
    children are emitted nearest-first ("inside_out", ties to the left) or in
    strict linear order ("left2right" / "right2left").
    """
    children: dict[int, list[int]] = {}
    for i in range(1, len(tree) + 1):
        children.setdefault(tree.heads[i], []).append(i)
    targets: list[int] = []
    stack = [0]   # node k >= 0 opens k's visit, ~k closes it: no recursion
    while stack:
        node = stack.pop()
        if node < 0:
            targets.append(~node)
            continue
        if node:
            targets.append(node)
        stack.append(~node)
        stack.extend(sorted(children.get(node, []), key=_child_key(child_order, node),
                            reverse=True))      # first child on top (keys are distinct)
    return targets


@dataclass(frozen=True)
class GoldPlan:
    """What teacher forcing fixes in advance for each of the 2n+1 steps of
    each of B gold paths.

    ``tops[b, k]`` is the stack top at step k of path b, ``targets[b, k]``
    the gold pointer target, both (B, 2n+1), and ``legal[b, k]`` the
    likelihood-mode legality mask over 0..n, (B, 2n+1, n+1).
    """

    tops: np.ndarray
    targets: np.ndarray
    legal: np.ndarray

    @property
    def arc_steps(self) -> np.ndarray:
        """Boolean (B, 2n+1): the steps that attach a token (target != top)."""
        return self.targets != self.tops


def gold_plan(trees: Sequence[DependencyTree], child_order: str = "inside_out") -> GoldPlan:
    """The canonical gold paths of a batch of trees of one length n, with the
    stack top and likelihood legality of every step.

    A gold path names each token twice, when it is attached and when it is
    popped, and ROOT once, at its final pop, so a stable sort of each row of
    targets lists ROOT's step and then each token's attach and pop steps. An
    attach step's top is the token's head and a pop step's top the token
    itself. Token p is unattached up to and including its attach step, so
    the heads of every step of every tree are one (B, 2n+1, n+1) expression,
    and their masks one :func:`legal_masks` call.
    """
    lengths = sorted({len(tree) for tree in trees})
    if len(lengths) != 1:     # every gold path must have the same 2n+1 steps
        raise ValueError(f"a batch needs sentences of one length, got {lengths}")
    targets = np.array([gold_path(tree, child_order) for tree in trees], dtype=np.intp)
    heads = np.array([tree.heads for tree in trees], dtype=np.intp)
    attach = np.argsort(targets, axis=1, kind="stable")[:, 1::2]   # (B, n): token p at p-1
    tops = targets.copy()
    tops[np.arange(len(trees))[:, None], attach] = heads[:, 1:]
    # ROOT, never attached, counts as attached before step 0: its head is -1.
    attached = np.arange(targets.shape[1])[:, None] > np.insert(attach, 0, -1, axis=1)[:, None]
    legal = legal_masks(np.where(attached, heads[:, None], -1).reshape(-1, heads.shape[1]),
                        tops.reshape(-1), mode="likelihood")
    return GoldPlan(tops=tops, targets=targets, legal=legal.reshape(attached.shape))


# ---------------------------------------------------------------------------
# Biaffine scoring
# ---------------------------------------------------------------------------


def biaffine_score(decoder_rows: Tensor, encoder_mat: Tensor, weight: Tensor,
                   w_dec: Tensor, w_enc: Tensor, bias: Tensor) -> Tensor:
    """score[t, i] = d_t'Ue_i + w_dec.d_t + w_enc.e_i + b, for every decoder
    row d_t and every candidate row e_i.

    ``decoder_rows`` is (T, d_dec) and ``encoder_mat`` (n+1, d_enc), or
    both are stacks of B sentences, (B, T, d_dec) and (B, n+1, d_enc);
    ``weight`` is (d_dec, d_enc). The output is the raw (T, n+1) matrix, or
    (B, T, n+1).
    """
    # Row t of `through` is U'd_t + w_enc, so one product with the encoder
    # rows gives both e-dependent terms.
    through = ad.add(ad.matmul(decoder_rows, weight), w_enc)
    dec_term = ad.add(ad.matmul(decoder_rows, ad.reshape(w_dec, (-1, 1))), bias)
    return ad.add(ad.matmul(through, ad.transpose(encoder_mat)), dec_term)


def create_decoder_params(store: ad.ParameterStore, decoder_dim: int) -> None:
    """Single-layer unidirectional LSTM; input = encoder state of stack top."""
    store.create("decoder.lstm.W_ih", (4 * decoder_dim, decoder_dim))
    store.create("decoder.lstm.W_hh", (4 * decoder_dim, decoder_dim))
    store.create("decoder.lstm.b", (4 * decoder_dim,), init="zeros")


def create_biaffine_params(store: ad.ParameterStore, encoder_dim: int,
                           arc_mlp_dim: int, label_mlp_dim: int,
                           label_count: int) -> None:
    """Register the arc and label scoring heads (the "biaffine." namespace).

    Vectors and biases get small-uniform values rather than zeros: the
    dec-side linear term and the scalar bias shift all arc scores equally,
    so their gradients vanish and zeros would persist — a reinitialized
    head must be distinguishable from a retained one.
    """
    store.create("biaffine.arc.dec.W", (arc_mlp_dim, encoder_dim))
    store.create("biaffine.arc.dec.b", (arc_mlp_dim,), init="embedding")
    store.create("biaffine.arc.enc.W", (arc_mlp_dim, encoder_dim))
    store.create("biaffine.arc.enc.b", (arc_mlp_dim,), init="embedding")
    store.create("biaffine.arc.U", (arc_mlp_dim, arc_mlp_dim))
    store.create("biaffine.arc.w_dec", (arc_mlp_dim,), init="embedding")
    store.create("biaffine.arc.w_enc", (arc_mlp_dim,), init="embedding")
    store.create("biaffine.arc.b", (), init="embedding")
    store.create("biaffine.label.dec.W", (label_mlp_dim, encoder_dim))
    store.create("biaffine.label.dec.b", (label_mlp_dim,), init="embedding")
    store.create("biaffine.label.enc.W", (label_mlp_dim, encoder_dim))
    store.create("biaffine.label.enc.b", (label_mlp_dim,), init="embedding")
    store.create("biaffine.label.U", (label_count, label_mlp_dim, label_mlp_dim))
    store.create("biaffine.label.w_dec", (label_count, label_mlp_dim))
    store.create("biaffine.label.w_enc", (label_count, label_mlp_dim))
    store.create("biaffine.label.b", (label_count,), init="embedding")


# ---------------------------------------------------------------------------
# Whole-path likelihood, and lockstep greedy search generic over the scorers
# ---------------------------------------------------------------------------


def path_log_likelihood(plan: GoldPlan, arc_scores: Tensor, label_scores: Tensor,
                        gold_labels: np.ndarray) -> Tensor:
    """Sum of log P(action) + log P(label) along every gold path of ``plan``.

    ``arc_scores`` holds the raw (unmasked) scores over 0..n of every step,
    (B, 2n+1, n+1). ``label_scores`` holds the label scores of the B*n arc
    steps, tree by tree in path order, (B*n, labels), and ``gold_labels``
    the gold label id of each of those steps, (B*n,).
    """
    if arc_scores.shape != plan.legal.shape:
        raise ValueError(f"arc scorer returned {arc_scores.shape}, "
                         f"expected {plan.legal.shape}")
    rows = int(plan.arc_steps.sum())
    if label_scores.shape[0] != rows or len(gold_labels) != rows:
        raise ValueError(f"label scorer returned {label_scores.shape} for "
                         f"{len(gold_labels)} gold labels, expected {rows} rows")
    arc_logp = ad.log_softmax(ad.mask_fill(arc_scores, plan.legal))
    label_logp = ad.log_softmax(label_scores)
    return ad.add(
        ad.sum_all(ad.pick(arc_logp, tuple(np.indices(plan.targets.shape)) + (plan.targets,))),
        ad.sum_all(ad.pick(label_logp, (np.arange(rows), gold_labels))),
    )


ArcScorer = Callable[[np.ndarray], np.ndarray]
LabelScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def decode_greedy(lengths: Sequence[int], arc_scorer: ArcScorer,
                  label_scorer: LabelScorer) -> list[tuple[list[int], list[int]]]:
    """Greedy argmax decoding of a batch of sentences in lockstep.

    Returns (heads, label id per real token) for each of ``lengths``, in
    order. The sentences come longest first (increasing lengths are
    refused), so the unfinished ones are always the first k. Each step makes
    one ``arc_scorer(tops)`` call with their k stack tops; it returns their
    raw scores over positions 0..N, an array (k, N+1) with N = max(lengths),
    whose entries past a sentence's own n are never chosen. Then one
    ``label_scorer(rows, children)`` call for the sentences whose move
    attaches a token, given their batch indices (ascending), returns their
    (len(rows), labels) label scores from the same step's decoder output.

    Ties break toward the lowest position index. The transition system
    guarantees that a sentence of n tokens ends in exactly 2n+1 steps.
    """
    sizes = np.array(lengths)
    if (np.diff(sizes) > 0).any():
        raise ValueError(f"decoding needs sentences longest first, got lengths {list(lengths)}")
    # The heads past a sentence's own n are filled with 0 so that they are
    # never legal.
    heads = np.where(np.arange(sizes.max() + 1) <= sizes[:, None], -1, 0)
    label_ids = np.full_like(heads, -1)
    tops = np.zeros(len(lengths), dtype=np.intp)
    k = len(lengths)
    while k:
        active = tops[:k]
        raw = arc_scorer(active)
        legal = legal_masks(heads[:k], active, mode="decode")
        if not np.isfinite(raw[legal]).all():
            raise ValueError("non-finite arc scores during decoding")
        targets = np.where(legal, raw, -np.inf).argmax(axis=1)
        attach = np.flatnonzero(targets != active)
        if len(attach):
            label_ids[attach, targets[attach]] = label_scorer(
                attach, targets[attach]).argmax(axis=1)
        # One `step` per sentence per move (see the module docstring).
        for b, (top, target) in enumerate(zip(active.tolist(), targets.tolist())):
            tops[b] = step(heads[b], top, target)
        k = np.count_nonzero(tops[:k] != -1)             # popping ROOT ends a run
    assert (heads[:, 1:] != -1).all(), "a run ended with a token unattached"
    return [(heads[b, :n + 1].tolist(), label_ids[b, 1:n + 1].tolist())
            for b, n in enumerate(lengths)]
