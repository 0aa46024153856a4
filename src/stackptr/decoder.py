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
mask and target in advance (:func:`gold_plan`): the tops follow the tree's
head chain, and the 2n+1 masks come from one :func:`legal_masks` call over
the heads at every step. The plans of a batch of same-length trees stack
into one (:func:`stack_plans`), since every length-n path has 2n+1 steps,
so the training objective of the whole batch is one computation over score
stacks (:func:`path_log_likelihood`): :func:`biaffine_score` turns the
(B, T, d) decoder rows of T steps into their (B, T, n+1) score rows, and
greedy decoding scores its one step per sentence as T = 1.

Greedy search (:func:`decode_greedy`) runs a batch of sentences of any
lengths in lockstep: each step asks one batched scorer for the scores of
every unfinished sentence, given their tops, and computes all their masks
with one :func:`legal_masks` call; the heads and label ids of all the
machines are two (B, N+1) matrices, and the parses are read off them. The
moves still go through :func:`step`, once per sentence per step, where
two array assignments over the batch would do: the traced runs of
``benchmark/run.py`` check that a parse makes exactly 2n+1 ``step`` calls
per sentence, and the loop stays until that count comes from a counter in
the package (ROADMAP item 2).
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

    def visit(node: int) -> None:
        for child in sorted(children.get(node, []), key=_child_key(child_order, node)):
            targets.append(child)
            visit(child)
        targets.append(node)

    visit(0)
    return targets


@dataclass(frozen=True)
class GoldPlan:
    """What teacher forcing fixes in advance for each of the 2n+1 steps.

    ``tops[k]`` is the stack top at step k, ``targets[k]`` the gold pointer
    target, and ``legal[k]`` the likelihood-mode legality mask over 0..n.
    A stacked plan (:func:`stack_plans`) has a leading batch axis on each.
    """

    tops: np.ndarray
    targets: np.ndarray
    legal: np.ndarray

    @property
    def arc_steps(self) -> np.ndarray:
        """Boolean (..., 2n+1): the steps that attach a token (target != top)."""
        return self.targets != self.tops


def gold_plan(tree: DependencyTree, child_order: str = "inside_out") -> GoldPlan:
    """The canonical gold path with the stack top and likelihood legality of
    every step.

    The tops come from following the path along the tree's head chain: a
    pop makes the popped token's head the top. Token p is unattached up to
    and including the step that attaches it, so the heads of all 2n+1 steps
    are one (2n+1, n+1) expression, and their masks one :func:`legal_masks`
    call.
    """
    targets = gold_path(tree, child_order=child_order)
    top, tops = 0, []
    for target in targets:
        tops.append(top)
        top = tree.heads[top] if target == top else target
    assert top == -1
    tops_arr = np.array(tops, dtype=np.intp)
    targets_arr = np.array(targets, dtype=np.intp)
    arc_steps = np.flatnonzero(targets_arr != tops_arr)
    attach_step = np.full(len(tree) + 1, -1)
    attach_step[targets_arr[arc_steps]] = arc_steps
    heads = np.where(np.arange(len(targets))[:, None] > attach_step, tree.heads, -1)
    return GoldPlan(tops=tops_arr, targets=targets_arr,
                    legal=legal_masks(heads, tops_arr, mode="likelihood"))


def stack_plans(plans: Sequence[GoldPlan]) -> GoldPlan:
    """The plans of same-length trees as one plan with a leading batch axis."""
    return GoldPlan(tops=np.stack([p.tops for p in plans]),
                    targets=np.stack([p.targets for p in plans]),
                    legal=np.stack([p.legal for p in plans]))


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
    (B, T, n+1). The weight products run on all decoder rows as one matrix.
    """
    lead = decoder_rows.shape[:-1]
    flat = ad.reshape(decoder_rows, (-1, decoder_rows.shape[-1]))
    # Row t of `through` is U'd_t + w_enc, so one product with the encoder
    # rows gives both e-dependent terms.
    through = ad.reshape(ad.add(ad.matmul(flat, weight), w_enc), lead + (-1,))
    dec_term = ad.reshape(ad.add(ad.matmul(flat, ad.reshape(w_dec, (-1, 1))), bias),
                          lead + (1,))
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
                        label_ids, label_count: int) -> Tensor:
    """Sum of log P(action) + log P(label) along a gold path, or along every
    path of a stacked plan.

    ``arc_scores`` holds the raw (unmasked) scores over 0..n of every step,
    (2n+1, n+1), or (B, 2n+1, n+1) for a stack; ``label_scores`` the label
    scores of the arc steps, sentence by sentence in path order,
    (B*n, label_count). ``label_ids`` is the gold label id per token, (n,)
    or (B, n).
    """
    if arc_scores.shape != plan.legal.shape:
        raise ValueError(f"arc scorer returned {arc_scores.shape}, "
                         f"expected {plan.legal.shape}")
    # Every path attaches each of its n tokens once, so the children of
    # each sentence's arc steps fill one row of this (..., n) array.
    children = plan.targets[plan.arc_steps].reshape(plan.targets.shape[:-1] + (-1,))
    if label_scores.shape != (children.size, label_count):
        raise ValueError(
            f"label scorer returned {label_scores.shape}, "
            f"expected ({children.size}, {label_count})"
        )
    arc_logp = ad.log_softmax(ad.mask_fill(arc_scores, plan.legal))
    label_logp = ad.log_softmax(label_scores)
    gold_labels = np.take_along_axis(np.asarray(label_ids, dtype=np.intp),
                                     children - 1, axis=-1).reshape(-1)
    return ad.add(
        ad.sum_all(ad.pick(arc_logp, tuple(np.indices(plan.targets.shape)) + (plan.targets,))),
        ad.sum_all(ad.pick(label_logp, (np.arange(children.size), gold_labels))),
    )


ArcScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]
LabelScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def decode_greedy(lengths: Sequence[int], arc_scorer: ArcScorer,
                  label_scorer: LabelScorer) -> list[tuple[list[int], list[int]]]:
    """Greedy argmax decoding of a batch of sentences, in lockstep.

    Returns (heads, label id per real token) for each of ``lengths``, in
    order. Each step makes one ``arc_scorer(rows, tops)`` call for the
    unfinished sentences, given their batch indices (ascending) and stack
    tops; it returns their raw scores over positions 0..N, an array
    (len(rows), N+1) with N = max(lengths), whose entries past a sentence's
    own n are never chosen. Then one ``label_scorer(rows, children)`` call
    for the sentences whose move attaches a token returns their (k, labels)
    label scores from the same step's decoder output.

    Ties break toward the lowest position index. The transition system
    guarantees that a sentence of n tokens ends in exactly 2n+1 steps.
    """
    # The heads past a sentence's own n are filled with 0 so that they are
    # never legal.
    sizes = np.array(lengths)
    heads = np.where(np.arange(sizes.max() + 1) <= sizes[:, None], -1, 0)
    label_ids = np.full_like(heads, -1)
    tops = np.zeros(len(lengths), dtype=np.intp)
    rows = np.arange(len(lengths))
    while len(rows):
        active = tops[rows]
        raw = arc_scorer(rows, active)
        legal = legal_masks(heads[rows], active, mode="decode")
        if not np.isfinite(raw[legal]).all():
            raise ValueError("non-finite arc scores during decoding")
        targets = np.where(legal, raw, -np.inf).argmax(axis=1)
        attach = np.flatnonzero(targets != active)
        if len(attach):
            label_ids[rows[attach], targets[attach]] = label_scorer(
                rows[attach], targets[attach]).argmax(axis=1)
        # One `step` per sentence per move (see the module docstring).
        for b, top, target in zip(rows.tolist(), active.tolist(), targets.tolist()):
            tops[b] = step(heads[b], top, target)
        rows = rows[tops[rows] != -1]                    # popping ROOT ends a run
    assert (heads[:, 1:] != -1).all(), "a run ended with a token unattached"
    return [(heads[b, :n + 1].tolist(), label_ids[b, 1:n + 1].tolist())
            for b, n in enumerate(lengths)]
