"""The whole-path training loss and greedy parsing against the per-step
reference in ``reference_loss.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackptr.autodiff import Rng
from stackptr.config import CHILD_ORDERS
from stackptr.encoder import encode_sentence
from stackptr.model import Parser
from stackptr.treebank import DependencyTree, Token, build_vocabulary

import reference_loss
from synthetic import SOURCE_POOLS, TEMPLATES, corpus

TOLERANCE = 1e-10
VOCABS = build_vocabulary(corpus(seed=9, size=200), min_word_count=1)
LABELS = VOCABS["label"].symbols


@st.composite
def trees(draw, single_root: bool):
    """Template-grammar trees, or random (mostly non-projective) head
    vectors over 1..7 tokens, with several root children unless
    ``single_root`` (the likelihood gives such gold trees probability 0)."""
    if draw(st.booleans()):
        pos_seq, heads, labels = TEMPLATES[draw(st.integers(0, len(TEMPLATES) - 1))]
        heads = (-1, *heads)
    else:
        n = draw(st.integers(1, 7))
        order = draw(st.permutations(range(1, n + 1)))
        heads = [-1] * (n + 1)
        for k, node in enumerate(order):
            # Attach to a node placed earlier, or to ROOT (under single_root
            # only the first node does): always a tree.
            parents = list(order[:k]) if single_root and k else [0, *order[:k]]
            heads[node] = draw(st.sampled_from(parents))
        heads = tuple(heads)
        pos_seq = [draw(st.sampled_from(sorted(SOURCE_POOLS))) for _ in range(n)]
        labels = [draw(st.sampled_from(LABELS)) for _ in range(n)]
    tokens = tuple(Token(draw(st.sampled_from(SOURCE_POOLS[pos])), pos) for pos in pos_seq)
    return DependencyTree(tokens, heads, tuple(labels))


def _loss_and_grads(loss_fn, parser):
    parser.store.zero_grads()
    loss = loss_fn()
    loss.backward()
    grads = {name: g.copy() for name, g in parser.store.gradients().items()}
    parser.store.zero_grads()
    return float(loss.data), grads


def _assert_agree(parser, tree, training, seed):
    fused = _loss_and_grads(
        lambda: parser.sentence_loss(tree, training=training, rng=Rng(seed)), parser)
    reference = _loss_and_grads(
        lambda: reference_loss.sentence_loss(parser, tree, training=training,
                                             rng=Rng(seed)), parser)
    assert abs(fused[0] - reference[0]) <= TOLERANCE
    for name, grad in fused[1].items():
        worst = float(np.abs(grad - reference[1][name]).max())
        assert worst <= TOLERANCE, f"{name}: {worst:.2e}"


@given(data=st.data(), child_order=st.sampled_from(CHILD_ORDERS),
       single_root=st.booleans(), training=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_fused_loss_matches_per_step_reference(tiny_config, data, child_order,
                                               single_root, training, seed):
    tree = data.draw(trees(single_root))
    config = tiny_config.replaced(child_order=child_order, single_root=single_root)
    _assert_agree(Parser.build(config, VOCABS), tree, training, seed)


@pytest.mark.parametrize("training", [False, True])
def test_fused_loss_matches_reference_on_toy_corpus(tiny_config, toy_vocabs, toy_trees,
                                                    training):
    parser = Parser.build(tiny_config, toy_vocabs)
    for k, tree in enumerate(toy_trees):
        _assert_agree(parser, tree, training, seed=k)


def test_greedy_parse_matches_reference(tiny_config, toy_vocabs, toy_trees):
    parser = Parser.build(tiny_config, toy_vocabs)
    for tree in toy_trees:
        got = parser.parse(tree)
        heads, label_ids = reference_loss.parse_heads_labels(parser, tree)
        assert list(got.heads) == heads
        assert list(got.labels) == [toy_vocabs["label"].symbol(i) for i in label_ids]


def test_step_scorers_refuse_training(tiny_config, toy_vocabs, toy_trees):
    parser = Parser.build(tiny_config, toy_vocabs)
    states = encode_sentence(toy_trees[0], toy_vocabs, parser.store, tiny_config)
    with pytest.raises(ValueError, match="sentence_loss"):
        parser._scorers(states, training=True, rng=Rng(0))
