import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackptr import autodiff as ad
from stackptr.autodiff import ParameterStore, Rng, Tensor, grad_check
from stackptr.config import TrainConfig
from stackptr.encoder import (
    attention_scale,
    bilstm_encode,
    char_cnn,
    char_ids,
    create_embedding_params,
    create_encoder_params,
    char_windows,
    embed_tokens,
    encode_batch,
    multi_head_self_attention,
)
from stackptr.treebank import ROOT_FORM, Sentence, Token, make_tree

import reference_loss
from synthetic import corpus


def _setup(tiny_config, toy_vocabs, seed=3):
    store = ParameterStore(seed)
    create_embedding_params(store, tiny_config, len(toy_vocabs["word"]),
                            len(toy_vocabs["char"]), len(toy_vocabs["pos"]))
    create_encoder_params(store, tiny_config)
    return store


class TestCharCnn:
    def test_output_dimension(self, tiny_config, toy_vocabs):
        store = _setup(tiny_config, toy_vocabs)
        out = char_cnn(["猫"], toy_vocabs["char"], store, tiny_config).data[0]
        assert out.shape == (tiny_config.num_filters,)

    def test_single_char_word_padded(self, tiny_config, toy_vocabs):
        ids = char_ids("猫", toy_vocabs["char"], tiny_config.filter_width)
        assert len(ids) == tiny_config.filter_width
        assert ids[1:] == [0, 0]

    def test_order_sensitivity(self, tiny_config, toy_vocabs):
        store = _setup(tiny_config, toy_vocabs)
        ab = char_cnn(["猫狗"], toy_vocabs["char"], store, tiny_config).data[0]
        ba = char_cnn(["狗猫"], toy_vocabs["char"], store, tiny_config).data[0]
        assert not np.allclose(ab, ba)

    def test_empty_form_rejected(self, tiny_config, toy_vocabs):
        with pytest.raises(ValueError, match="empty character sequence"):
            char_ids("", toy_vocabs["char"], 3)


# Characters the toy vocabulary knows, and two it does not (UNK rows).
CHARS = "猫狗睡吃鱼" + "夔Z"


def _sliding_grid(forms, char_vocab, width):
    """The window grid built one form at a time with sliding_window_view."""
    ids = [char_ids(form, char_vocab, width) for form in forms]
    counts = [len(word) - width + 1 for word in ids]
    windows = np.zeros((len(ids), max(counts), width), dtype=np.intp)
    for k, word in enumerate(ids):
        windows[k, :counts[k]] = np.lib.stride_tricks.sliding_window_view(word, width)
    return windows, np.arange(windows.shape[1]) < np.array(counts)[:, None]


@given(forms=st.lists(st.one_of(st.just(ROOT_FORM),
                                st.text(alphabet=CHARS, min_size=1, max_size=12)),
                      min_size=1, max_size=8),
       width=st.integers(1, 4))
@example(forms=[ROOT_FORM, "猫", "猫狗", "猫狗睡吃鱼夔Z"], width=3)
@example(forms=[ROOT_FORM], width=4)
@settings(max_examples=100, deadline=None)
def test_char_window_grid_matches_sliding_windows(toy_vocabs, forms, width):
    """ROOT, forms shorter than the filter and mixed lengths: the one-gather
    grid equals the per-form sliding-window grid, unused windows 0."""
    windows, real = char_windows(forms, toy_vocabs["char"], width)
    want_windows, want_real = _sliding_grid(forms, toy_vocabs["char"], width)
    assert windows.dtype == want_windows.dtype
    np.testing.assert_array_equal(windows, want_windows)
    np.testing.assert_array_equal(real, want_real)


@given(forms=st.lists(st.one_of(st.just(ROOT_FORM),
                                st.text(alphabet=CHARS, min_size=1, max_size=12)),
                      min_size=1, max_size=6),
       width=st.integers(1, 4), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_char_cnn_matches_per_word_reference(tiny_config, toy_vocabs, forms, width, seed):
    """Rows and gradients of the whole-sentence char-CNN equal one per-word
    CNN per form, for forms shorter and longer than the filter."""
    config = tiny_config.replaced(filter_width=width)
    store = _setup(config, toy_vocabs, seed=seed)
    weights = Tensor(Rng(seed).split("mix").random((len(forms), config.num_filters)))

    def run(build):
        store.zero_grads()
        rows = build()
        ad.sum_all(ad.mul(rows, weights)).backward()
        return rows.data, store.gradients()

    got, got_grads = run(lambda: char_cnn(forms, toy_vocabs["char"], store, config))
    want, want_grads = run(lambda: reference_loss.stack_rows(
        [reference_loss.char_cnn(f, toy_vocabs["char"], store, config) for f in forms]))
    assert np.abs(got - want).max() <= 1e-12
    for name in ("embeddings.char", "encoder.charcnn.W", "encoder.charcnn.b"):
        assert np.abs(got_grads[name] - want_grads[name]).max() <= 1e-12, name


def _tape_size(out):
    """Tensors reachable from ``out`` through the recorded tape."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_embed_tokens_tape_size_is_independent_of_length(tiny_config, toy_vocabs):
    store = _setup(tiny_config, toy_vocabs)
    forms = ["猫", "狗睡", "吃鱼猫狗", "夔", "猫狗睡吃鱼"]
    sizes = {n: _tape_size(embed_tokens(
        [Sentence(tuple(Token(forms[k % len(forms)], "NN") for k in range(n)))],
        toy_vocabs, store, tiny_config)) for n in (1, 40)}
    assert sizes[1] == sizes[40]


class TestEmbedTokens:
    def test_row_dimension_is_d_model(self, tiny_config, toy_vocabs, toy_trees):
        store = _setup(tiny_config, toy_vocabs)
        x = ad.pick(embed_tokens([toy_trees[0]], toy_vocabs, store, tiny_config), 0)
        assert x.shape == (len(toy_trees[0]) + 1, tiny_config.d_model)
        assert tiny_config.d_model == tiny_config.d_w + tiny_config.num_filters \
            + tiny_config.pos_dim

    def test_identical_tokens_identical_rows(self, tiny_config, toy_vocabs):
        store = _setup(tiny_config, toy_vocabs)
        tree = make_tree([Token("猫", "NN"), Token("睡", "VV"), Token("猫", "NN")],
                         [-1, 2, 0, 2], ["nsubj", "root", "dobj"])
        x = ad.pick(embed_tokens([tree], toy_vocabs, store, tiny_config), 0)
        np.testing.assert_array_equal(x.data[1], x.data[3])

    def test_oov_maps_to_unk_row(self, tiny_config, toy_vocabs):
        store = _setup(tiny_config, toy_vocabs)
        unk = make_tree([Token("夔", "NN")], [-1, 0], ["root"])
        x = ad.pick(embed_tokens([unk], toy_vocabs, store, tiny_config), 0)
        np.testing.assert_array_equal(
            x.data[1, : tiny_config.d_w], store["embeddings.word"].data[1])


def _attention_probs(x, store, config, head):
    q = x @ store[f"encoder.attn.head{head}.Wq"].data.T
    k = x @ store[f"encoder.attn.head{head}.Wk"].data.T
    scores = (q @ k.T) / attention_scale(config)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestAttention:
    def test_rows_normalize(self, tiny_config, toy_vocabs):
        store = _setup(tiny_config, toy_vocabs)
        rng = Rng(5).split("attn-rows")
        for _ in range(50):
            x = rng.random((4, tiny_config.d_model))
            for head in range(tiny_config.r):
                probs = _attention_probs(x, store, tiny_config, head)
                np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_permutation_covariance(self, tiny_config, toy_vocabs):
        store = _setup(tiny_config, toy_vocabs)
        rng = Rng(6).split("perm")
        for _ in range(10):
            x = rng.random((5, tiny_config.d_model))
            perm = rng.permutation(5)
            out = multi_head_self_attention(Tensor(x[None]), store, tiny_config).data[0]
            out_p = multi_head_self_attention(Tensor(x[perm][None]), store,
                                              tiny_config).data[0]
            np.testing.assert_allclose(out_p, out[perm], atol=1e-8)

    def test_single_row_closed_form(self, tiny_config, toy_vocabs):
        # One position attends only to itself: out = Wm @ concat_h(Wv_h x).
        store = _setup(tiny_config, toy_vocabs)
        x = Rng(7).split("single").random((1, tiny_config.d_model))
        out = multi_head_self_attention(Tensor(x[None]), store, tiny_config).data[0]
        parts = [store[f"encoder.attn.head{h}.Wv"].data @ x[0]
                 for h in range(tiny_config.r)]
        expected = store["encoder.attn.Wm"].data @ np.concatenate(parts)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_single_head_matches_unsplit_formula(self, toy_vocabs):
        config = TrainConfig(d_w=6, char_dim=3, pos_dim=3, num_filters=3, r=1,
                             d_h=4, min_word_count=1)
        store = _setup(config, toy_vocabs)
        x = Rng(8).split("r1").random((4, config.d_model))
        out = multi_head_self_attention(Tensor(x[None]), store, config).data[0]
        probs = _attention_probs(x, store, config, 0)
        v = x @ store["encoder.attn.head0.Wv"].data.T
        expected = (probs @ v) @ store["encoder.attn.Wm"].data.T
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_scale_switch(self, tiny_config, toy_vocabs):
        per_head = attention_scale(tiny_config)
        model_dim = attention_scale(tiny_config.replaced(attention_scale="model_dim"))
        assert per_head == math.sqrt(tiny_config.d_model // tiny_config.r)
        assert model_dim == math.sqrt(tiny_config.d_model)


class TestBiLstm:
    def test_output_shape(self, tiny_config, toy_vocabs, toy_trees):
        store = _setup(tiny_config, toy_vocabs)
        states = ad.pick(encode_batch([toy_trees[0]], toy_vocabs, store, tiny_config), 0)
        assert states.shape == (len(toy_trees[0]) + 1, 2 * tiny_config.d_h)

    def test_forward_state_ignores_future(self, tiny_config, toy_vocabs):
        store = _setup(tiny_config, toy_vocabs)
        rng = Rng(9).split("future")
        x = rng.random((5, tiny_config.d_model))
        y = x.copy()
        y[3:] = rng.random((2, tiny_config.d_model))
        out_x = bilstm_encode(Tensor(x[None]), store, tiny_config).data[0]
        out_y = bilstm_encode(Tensor(y[None]), store, tiny_config).data[0]
        d_h = tiny_config.d_h
        np.testing.assert_array_equal(out_x[:3, :d_h], out_y[:3, :d_h])
        assert not np.allclose(out_x[:3, d_h:], out_y[:3, d_h:])

    def test_empty_input_rejected(self, tiny_config, toy_vocabs):
        store = _setup(tiny_config, toy_vocabs)
        with pytest.raises(ValueError, match="empty"):
            bilstm_encode(Tensor(np.zeros((1, 0, tiny_config.d_model))),
                          store, tiny_config)

    @pytest.mark.parametrize("count", [1, 2])
    def test_wrong_stream_count_rejected(self, tiny_config, toy_vocabs, count):
        store = _setup(tiny_config, toy_vocabs)
        rngs = [Rng(4).split(f"sent{k}") for k in range(count)]
        with pytest.raises(ValueError, match="one Rng per sentence"):
            bilstm_encode(Tensor(np.zeros((3, 5, tiny_config.d_model))),
                          store, tiny_config, rngs)


def test_encoder_end_to_end_gradients(tiny_config, toy_vocabs):
    """Sum of encoder states as the loss; full parameter sweep at 1e-4."""
    store = _setup(tiny_config, toy_vocabs)
    tree = corpus(seed=1, size=3)[0]

    def loss(params):
        return ad.sum_all(encode_batch([tree], toy_vocabs, params, tiny_config))

    errs = grad_check(loss, store, epsilon=1e-5)
    worst = max(errs, key=errs.get)
    assert errs[worst] < 1e-4, f"{worst}: {errs[worst]}"


# Forms from CHARS (some out of vocabulary) and POS tags the toy corpus has.
SENTENCES = st.lists(
    st.lists(st.tuples(st.text(alphabet=CHARS, min_size=1, max_size=5),
                       st.sampled_from(["NN", "VV", "DT", "JJ", "AD", "XX"])),
             min_size=1, max_size=7).map(
        lambda tokens: Sentence(tuple(Token(form, pos) for form, pos in tokens))),
    min_size=1, max_size=6)


@given(sents=SENTENCES, seed=st.integers(0, 2**16))
@example(sents=[Sentence((Token("猫", "NN"),)),
                Sentence(tuple(Token("狗睡", "VV") for _ in range(7))),
                Sentence((Token("夔", "XX"), Token("吃鱼", "NN")))], seed=0)
@settings(max_examples=40, deadline=None)
def test_mixed_length_batch_matches_each_sentence_alone(tiny_config, toy_vocabs, sents,
                                                        seed):
    """Sentences of mixed lengths in any order: each one's real rows equal
    its encoding alone, padded keys get probability exactly 0 and real
    keys more, and every real query row's probabilities sum to 1."""
    store = _setup(tiny_config, toy_vocabs, seed=seed)
    lengths = np.array([len(sent.tokens) for sent in sents])
    states = encode_batch(sents, toy_vocabs, store, tiny_config).data
    assert states.shape == (len(sents), lengths.max() + 1, 2 * tiny_config.d_h)
    assert np.isfinite(states).all()
    for row, sent, n in zip(states, sents, lengths):
        alone = encode_batch([sent], toy_vocabs, store, tiny_config).data[0]
        assert np.abs(row[:n + 1] - alone).max() <= 1e-12

    probs = []
    multi_head_self_attention(embed_tokens(sents, toy_vocabs, store, tiny_config),
                              store, tiny_config, probs, lengths=lengths)
    real = np.arange(lengths.max() + 1) <= lengths[:, None]              # (B, N+1)
    keys = np.broadcast_to(real[:, None, None, :], probs[0].shape)
    assert (probs[0].data[~keys] == 0.0).all()
    assert (probs[0].data[keys] > 0.0).all()
    sums = probs[0].data.sum(axis=-1).transpose(0, 2, 1)[real]           # (rows, r)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_mixed_length_encoder_gradients(tiny_config, toy_vocabs):
    """A weighted sum of the real rows of an unsorted mixed-length batch:
    the key mask, the per-sentence reversal and the char-row placement
    all pass the finite-difference check."""
    store = _setup(tiny_config, toy_vocabs)
    sents = [Sentence(tuple(Token(form, pos) for form, pos in tokens)) for tokens in (
        [("猫", "NN"), ("睡", "VV"), ("夔", "NN")],
        [("狗", "NN")],
        [("鱼", "NN"), ("吃", "VV"), ("猫狗", "NN"), ("睡", "VV"), ("Z", "JJ")])]
    lengths = np.array([len(sent.tokens) for sent in sents])
    real = np.nonzero(np.arange(lengths.max() + 1) <= lengths[:, None])
    weights = Tensor(Rng(4).split("mix").random((len(real[0]), 2 * tiny_config.d_h)))

    def loss(params):
        states = encode_batch(sents, toy_vocabs, params, tiny_config)
        return ad.sum_all(ad.mul(ad.pick(states, real), weights))

    errs = grad_check(loss, store, epsilon=1e-5)
    worst = max(errs, key=errs.get)
    assert errs[worst] < 1e-4, f"{worst}: {errs[worst]}"


def test_shapes_depend_only_on_config(tiny_config, toy_vocabs):
    store = _setup(tiny_config, toy_vocabs)
    for tree in corpus(seed=2, size=5):
        states = ad.pick(encode_batch([tree], toy_vocabs, store, tiny_config), 0)
        assert states.shape == (len(tree) + 1, 2 * tiny_config.d_h)
