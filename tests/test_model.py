"""The whole-batch training loss and lockstep greedy parsing against the
per-step, per-sentence reference in ``reference_loss.py``."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackptr import autodiff as ad
from stackptr import decoder as dec
from stackptr import encoder as enc
from stackptr import model
from stackptr.autodiff import Rng
from stackptr.config import CHILD_ORDERS
from stackptr.encoder import encode_batch
from stackptr.model import LockstepScorer, Parser
from stackptr.treebank import DependencyTree, Sentence, Token, build_vocabulary

import reference_loss
from synthetic import SOURCE_POOLS, TEMPLATES, corpus, random_tree

TOLERANCE = 1e-10
VOCABS = build_vocabulary(corpus(seed=9, size=200), min_word_count=1)
LABELS = VOCABS["label"].symbols


@st.composite
def trees(draw, single_root: bool):
    """Template-grammar trees, or random (mostly non-projective) head
    vectors over 1..7 tokens, with several root children unless
    ``single_root`` (``train`` refuses such trees under it)."""
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
        lambda: parser.batch_loss([tree], [Rng(seed)] if training else None), parser)
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


def _same_length_batch(seed, size, length):
    """``size`` template-grammar trees of one length (2..6), drawn with
    ``synthetic.random_tree``."""
    rng = Rng(seed).split("batch")
    batch = []
    while len(batch) < size:
        tree = random_tree(rng)
        if len(tree) == length:
            batch.append(tree)
    return batch


@given(size=st.integers(1, 8), length=st.integers(2, 6),
       child_order=st.sampled_from(CHILD_ORDERS), training=st.booleans(),
       seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_batch_loss_is_the_mean_of_per_sentence_reference_losses(tiny_config, size, length,
                                                                 child_order, training,
                                                                 seed):
    batch = _same_length_batch(seed, size, length)
    parser = Parser.build(tiny_config.replaced(child_order=child_order), VOCABS)
    rngs = [Rng(seed).split(f"s{b}") for b in range(len(batch))]

    def reference():
        total = None
        for tree, rng in zip(batch, rngs):
            loss = reference_loss.sentence_loss(parser, tree, training=training, rng=rng)
            total = loss if total is None else ad.add(total, loss)
        return ad.scale(total, 1.0 / len(batch))

    fused = _loss_and_grads(lambda: parser.batch_loss(batch, rngs if training else None),
                            parser)
    want = _loss_and_grads(reference, parser)
    assert abs(fused[0] - want[0]) <= TOLERANCE
    for name, grad in fused[1].items():
        worst = float(np.abs(grad - want[1][name]).max())
        assert worst <= TOLERANCE, f"{name}: {worst:.2e}"


@pytest.mark.parametrize("training", [False, True])
def test_batch_loss_tape_size_is_independent_of_batch_size(tiny_config, monkeypatch,
                                                           training):
    parser = Parser.build(tiny_config, VOCABS)
    created = []
    init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    sizes = {}
    for size in (1, 32):
        batch = _same_length_batch(3, size, 4)
        assert len(batch) == size
        created.clear()
        parser.batch_loss(batch, [Rng(1).split(f"s{b}") for b in range(size)]
                          if training else None)
        sizes[size] = len(created)
    assert sizes[1] == sizes[32]


def test_batch_loss_needs_one_length(tiny_config):
    parser = Parser.build(tiny_config, VOCABS)
    batch = [_same_length_batch(1, 1, 2)[0], _same_length_batch(1, 1, 3)[0]]
    with pytest.raises(ValueError, match="one length"):
        parser.batch_loss(batch)


def test_streams_at_zero_rates_equal_evaluation(tiny_config):
    # Streams switch dropout on; at rates of zero nothing is drawn or
    # dropped, so the loss and every gradient keep their bits.
    batch = _same_length_batch(4, 5, 4)
    rngs = [Rng(2).split(f"s{b}") for b in range(len(batch))]
    parser = Parser.build(tiny_config.replaced(p_in=0.0, p_rnn=0.0, p_out=0.0), VOCABS)
    loss, grads = _loss_and_grads(lambda: parser.batch_loss(batch, rngs), parser)
    want, want_grads = _loss_and_grads(lambda: parser.batch_loss(batch), parser)
    assert loss == want
    for name, grad in want_grads.items():
        np.testing.assert_array_equal(grads[name], grad, err_msg=name)

    parser = Parser.build(tiny_config, VOCABS)
    assert tiny_config.p_in > 0.0 and tiny_config.p_rnn > 0.0 and tiny_config.p_out > 0.0
    assert (_loss_and_grads(lambda: parser.batch_loss(batch, rngs), parser)[0]
            != _loss_and_grads(lambda: parser.batch_loss(batch), parser)[0])


def test_batch_loss_rejects_wrong_stream_count(tiny_config):
    # At p_in = 0 no dropout call sees the streams before the BiLSTM, where
    # one stream would broadcast its masks over the whole batch.
    batch = _same_length_batch(1, 3, 4)
    for config in (tiny_config, tiny_config.replaced(p_in=0.0)):
        parser = Parser.build(config, VOCABS)
        for count in (1, 2, 4):
            with pytest.raises(ValueError, match="one Rng per sentence"):
                parser.batch_loss(batch, [Rng(1).split(f"s{b}") for b in range(count)])


def test_multi_root_loss_is_finite_under_single_root(tiny_config):
    # The flag only screens training trees; the likelihood of a tree with
    # two root children does not depend on it.
    tokens = tuple(Token(SOURCE_POOLS[pos][0], pos) for pos in sorted(SOURCE_POOLS)[:3])
    tree = DependencyTree(tokens, (-1, 0, 0, 2), tuple(LABELS[:3]))
    losses = [float(Parser.build(tiny_config.replaced(single_root=flag), VOCABS)
                    .batch_loss([tree]).data) for flag in (False, True)]
    assert np.isfinite(losses[1])
    assert losses[1] == losses[0]


def test_greedy_parse_matches_reference(tiny_config, toy_vocabs, toy_trees):
    parser = Parser.build(tiny_config, toy_vocabs)
    for tree in toy_trees:
        got = parser.parse_corpus([tree])[0]
        heads, label_ids = reference_loss.parse_heads_labels(parser, tree)
        assert list(got.heads) == heads
        assert list(got.labels) == [toy_vocabs["label"].symbol(i) for i in label_ids]


def _sentence(rng, n):
    pos_seq = [sorted(SOURCE_POOLS)[rng.integers(0, len(SOURCE_POOLS))] for _ in range(n)]
    return Sentence(tuple(Token(SOURCE_POOLS[pos][rng.integers(0, len(SOURCE_POOLS[pos]))],
                                pos) for pos in pos_seq))


@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=7),
       single_root=st.booleans(), chunk=st.integers(1, 4), seed=st.integers(0, 2**16))
@example(lengths=[3, 1, 5, 3, 1, 7], single_root=False, chunk=2, seed=0)
@example(lengths=[1, 2, 2, 4, 1], single_root=True, chunk=64, seed=1)
@settings(max_examples=25, deadline=None)
def test_lockstep_parse_matches_per_sentence_reference(tiny_config, lengths, single_root,
                                                       chunk, seed):
    rng = Rng(seed).split("sentences")
    sents = [_sentence(rng, n) for n in lengths]
    parser = Parser.build(tiny_config.replaced(single_root=single_root, seed=seed), VOCABS)
    with mock.patch.object(model, "DECODE_CHUNK", chunk):
        got = parser.parse_corpus(sents)
    assert len(got) == len(sents)
    for sent, tree in zip(sents, got):
        heads, label_ids = reference_loss.parse_heads_labels(parser, sent)
        assert tree.tokens == sent.tokens
        assert list(tree.heads) == heads
        assert list(tree.labels) == [VOCABS["label"].symbol(i) for i in label_ids]


def test_parse_corpus_calls_step_once_per_sentence_per_step(tiny_config, monkeypatch):
    # benchmark/run.py wraps `stackptr.decoder.step` through the module
    # attribute and checks that a parse makes sum(2n+1) calls; so must the
    # lockstep decoder, whatever else it computes for the whole batch.
    rng = Rng(11).split("sentences")
    lengths = [1, 7, 3, 3, 12, 2, 5]
    sents = [_sentence(rng, n) for n in lengths]
    calls = []
    lengths_by_row = {}
    real_step = dec.step

    def counting_step(heads, top, target):
        # A row's first move comes before any attach on it, so its -1s are
        # then ROOT and its n tokens. Holding the heads matrix keeps its rows'
        # addresses from being reused by a later chunk's.
        address = heads.__array_interface__["data"][0]
        if address not in lengths_by_row:
            lengths_by_row[address] = (int((heads == -1).sum()) - 1, heads.base)
        calls.append(lengths_by_row[address][0])
        return real_step(heads, top, target)

    monkeypatch.setattr(dec, "step", counting_step)
    parser = Parser.build(tiny_config, VOCABS)
    with mock.patch.object(model, "DECODE_CHUNK", 4):
        parser.parse_corpus(sents)
    assert len(calls) == sum(2 * n + 1 for n in lengths)
    for n in set(lengths):
        assert calls.count(n) == lengths.count(n) * (2 * n + 1)


def test_parse_corpus_encodes_each_chunk_in_one_call(tiny_config, monkeypatch):
    # Mixed lengths share one padded encoder pass per chunk: 3 chunks, 3 calls.
    rng = Rng(11).split("sentences")
    sents = [_sentence(rng, n) for n in [1, 7, 3, 3, 12, 2, 5]]
    calls = []
    real_encode = enc.encode_batch

    def counting_encode(batch, *args, **kwargs):
        calls.append(sorted(len(s.tokens) for s in batch))
        return real_encode(batch, *args, **kwargs)

    monkeypatch.setattr(enc, "encode_batch", counting_encode)
    with mock.patch.object(model, "DECODE_CHUNK", 3):
        Parser.build(tiny_config, VOCABS).parse_corpus(sents)
    assert calls == [[5, 7, 12], [2, 3, 3], [1]]


def test_decoding_cell_matches_lstm_sequence_along_gold_tops(tiny_config, toy_vocabs,
                                                             toy_trees):
    # Along the gold tops, the decoding step's hidden state and arc scores
    # are those of the training loss's LSTM and arc scorer.
    parser = Parser.build(tiny_config, toy_vocabs)
    store = parser.store
    for tree in toy_trees[:10]:
        plan = dec.gold_plan([tree])
        states = encode_batch([tree], toy_vocabs, store, tiny_config)
        tops = ad.pick(states, (np.array([[0]]), plan.tops))
        hidden = ad.lstm_sequence(tops, [(store["decoder.lstm.W_ih"],
                                          store["decoder.lstm.W_hh"], store["decoder.lstm.b"])])
        arcs = model._arc_scores(store, model._mlp(store, "biaffine.arc.dec", hidden),
                                 model._mlp(store, "biaffine.arc.enc", states)).data[0]
        scorer = LockstepScorer(parser, [tree])
        for k in range(plan.tops.shape[1]):
            scores = scorer.arc_scores(plan.tops[0, k:k + 1])
            assert np.abs(scorer.hidden[0] - hidden.data[0, k]).max() <= 1e-12
            assert scores.shape == (1, len(tree) + 1)
            assert np.abs(scores[0] - arcs[k]).max() <= 1e-12


def test_parsing_reads_parameters_as_constants(tiny_config, toy_vocabs, toy_trees):
    # Decoding differentiates nothing, so it records no tape: the scorer's
    # parameters and the encoder states it computes are constants.
    parser = Parser.build(tiny_config, toy_vocabs)
    scorer = LockstepScorer(parser, toy_trees[:3])
    assert not any(t.requires_grad for _, t in scorer.store.items())
    assert scorer.store["biaffine.arc.U"].data is parser.store["biaffine.arc.U"].data
    assert not encode_batch([toy_trees[0]], toy_vocabs, scorer.store,
                            tiny_config).requires_grad


# -- the next step's recurrent product on a worker thread ---------------------


@pytest.fixture
def forced_worker(monkeypatch):
    """Make parse_corpus hand its recurrent products to a worker at any size
    and CPU count; returns the row counts of the products handed over."""
    handed = []
    real_submit = ThreadPoolExecutor.submit

    def submit(self, fn, *args, **kwargs):
        handed.append(len(args[0]))
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(model, "OVERLAP_MIN_WHH", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
    return handed


def test_worker_keeps_every_steps_bits_along_gold_tops(tiny_config, toy_vocabs, toy_trees):
    parser = Parser.build(tiny_config, toy_vocabs)
    batch = sorted(toy_trees[:8], key=len, reverse=True)       # lengths 6 down to 2
    paths = [dec.gold_plan([tree]).tops[0] for tree in batch]
    inline = LockstepScorer(parser, batch)
    with ThreadPoolExecutor(max_workers=1) as worker:
        threaded = LockstepScorer(parser, batch, worker)
        for t in range(len(paths[0])):
            tops = np.array([path[t] for path in paths if len(path) > t])
            expected = inline.arc_scores(tops)
            assert threaded.arc_scores(tops).tobytes() == expected.tobytes()
            assert threaded.hidden.tobytes() == inline.hidden.tobytes()
            assert threaded.cell.tobytes() == inline.cell.tobytes()
            # The next step's product is on its way, except after the last step.
            assert (threaded.recurrent is None) == (t == len(paths[0]) - 1)


def test_parse_corpus_is_the_same_with_the_worker(tiny_config, forced_worker, monkeypatch):
    rng = Rng(12).split("sentences")
    lengths = [1, 7, 3, 3, 12, 2, 5, 9]
    sents = [_sentence(rng, n) for n in lengths]
    parser = Parser.build(tiny_config, VOCABS)
    monkeypatch.setattr(model, "DECODE_CHUNK", 3)
    threaded = parser.parse_corpus(sents)
    # Chunks [12, 9, 7], [5, 3, 3], [2, 1]: every step but a chunk's last
    # hands over the product of the sentences unfinished after it.
    assert len(forced_worker) == 24 + 10 + 4
    assert forced_worker[:3] == [3, 3, 3] and forced_worker[24:34].count(3) == 6
    monkeypatch.setattr(model, "OVERLAP_MIN_WHH", 1 << 62)
    forced_worker.clear()
    assert parser.parse_corpus(sents) == threaded
    assert forced_worker == []


@pytest.mark.parametrize("use_worker", [False, True], ids=["inline", "worker"])
@pytest.mark.parametrize("steps, tops", [(0, 1), (5, 2)], ids=["too-few", "too-many"])
def test_wrong_step_count_is_the_scorers_own_error(tiny_config, toy_vocabs, toy_trees,
                                                   use_worker, steps, tops):
    # Sentences of 2 and 5 tokens: both run for 5 steps, then only the first.
    batch = [next(t for t in toy_trees if len(t) == n) for n in (5, 2)]
    parser = Parser.build(tiny_config, toy_vocabs)
    with ThreadPoolExecutor(max_workers=1) as worker:
        scorer = LockstepScorer(parser, batch, worker if use_worker else None)
        for _ in range(steps):
            scorer.arc_scores(np.zeros(2, dtype=np.intp))
        unfinished = 2 if steps < 5 else 1
        with pytest.raises(ValueError, match=f"^arc_scores got {tops} stack tops at step "
                                             f"{steps}, but {unfinished} sentences are "
                                             "unfinished$"):
            scorer.arc_scores(np.zeros(tops, dtype=np.intp))


def test_no_tensor_is_built_off_the_main_thread(tiny_config, forced_worker, monkeypatch):
    # The benchmark's tracer is single-threaded: the worker runs plain numpy.
    threads = set()
    real_init = ad.Tensor.__init__

    def init(self, *args, **kwargs):
        threads.add(threading.get_ident())
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", init)
    rng = Rng(13).split("sentences")
    Parser.build(tiny_config, VOCABS).parse_corpus([_sentence(rng, n) for n in (6, 4, 1)])
    assert forced_worker
    assert threads == {threading.get_ident()}


def test_worker_is_made_only_where_it_pays(tiny_config):
    # At tiny dims the product is below OVERLAP_MIN_WHH: a parse starts no
    # thread and does not import concurrent.futures.
    script = f"""
import sys, threading
from stackptr.config import TrainConfig
from stackptr.model import Parser
from stackptr.treebank import parse_conll, build_vocabulary
trees = parse_conll({str(Path(__file__).parent / "data" / "toy_train.conllx")!r})
config = TrainConfig.from_flat({tiny_config.to_flat()!r})
Parser.build(config, build_vocabulary(trees, 1)).parse_corpus(trees[:5])
assert "concurrent.futures" not in sys.modules
assert threading.active_count() == 1
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
