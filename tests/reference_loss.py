"""Per-step, per-sentence reference for the teacher-forced loss and for
greedy parsing.

This is the training path the whole-batch loss replaced, kept as a test
oracle: one sentence at a time, the encoder BiLSTM and the decoder run one
``lstm_cell`` per step, attention runs one head at a time over the
sentence's (n+1, d) rows, and the likelihood walks the gold path calling
closure scorers that build one biaffine score vector, one label score
vector and their dropout masks per step. Its dropout draws come in the
original order (per step: label row, then arc row), so with the same
``rng`` its ``sentence_loss`` of one tree must agree with
``Parser.batch_loss`` of a batch holding that tree with that stream, on
the loss and on every gradient up to rounding. The same closures, one
sentence at a time, are the oracle for the lockstep greedy parse. Its
token rows stack one character CNN per word, the oracle for the encoder's
whole-batch ``char_cnn``. The per-step, per-word and per-sentence tape ops
it needs (``row``, ``slice1d``, ``stack_rows``, ``matmul`` with its vector
forms, ``bilinear_pair``, ``sigmoid``, ``lstm_cell``, ``im2col_rows``,
``max_over_rows``, single-stream ``dropout``) are defined here: the
package itself has no per-step, per-word or per-sentence path, and its
ops take batches of rows only.

It also holds the oracle of the transition system: a frozen
:class:`DecoderState` with an explicit stack, :func:`checked_step`, which
refuses an illegal move and copies the state, one machine's
:func:`legal_mask` and :func:`replay`. The package keeps each machine as
a head row and a stack top only, and moves it unchecked
(``decoder.step``); the tests check both against this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from stackptr import autodiff as ad
from stackptr import decoder as dec
from stackptr import encoder as enc
from stackptr.autodiff import Rng, Tensor
from stackptr.model import Parser
from stackptr.treebank import ROOT_FORM, ROOT_ID


@dataclass(frozen=True)
class DecoderState:
    """Immutable snapshot of the pointer machine with an explicit stack.

    ``heads[i] == -1`` means unattached; position 0 (ROOT) keeps -1 forever.
    """

    n: int
    stack: tuple[int, ...]
    heads: tuple[int, ...]
    step_count: int

    @property
    def top(self) -> int:
        if not self.stack:
            raise ValueError("empty stack has no top")
        return self.stack[-1]

    def is_terminal(self) -> bool:
        return not self.stack


def initial_state(n: int) -> DecoderState:
    if n < 1:
        raise ValueError(f"sentence length must be >= 1, got {n}")
    return DecoderState(n=n, stack=(0,), heads=(-1,) * (n + 1), step_count=0)


def legal_mask(state: DecoderState, mode: str = "decode") -> np.ndarray:
    """Boolean mask over pointer targets 0..n for the current stack top: the
    batch-of-one case of ``decoder.legal_masks``."""
    if state.is_terminal():
        raise ValueError("no legal actions in a terminal state")
    return dec.legal_masks(np.array([state.heads]), np.array([state.top]), mode)[0]


def checked_step(state: DecoderState, target: int) -> DecoderState:
    """Apply one pointer action under decode-mode legality, or raise.

    The legality test is the decode rule of ``decoder.legal_masks`` for the
    one target, in O(1): a stack top t != 0 may pop or attach any unattached
    token; ROOT may pop only once every token is attached, which on a
    reachable state is exactly when it has made 2n moves (each attach is
    paired with the pop of the attached token).
    """
    if state.is_terminal():
        raise ValueError("no legal actions in a terminal state")
    t = state.top
    if target == t:
        legal = t != 0 or state.step_count == 2 * state.n
    else:
        legal = 0 < target <= state.n and state.heads[target] == -1
    if not legal:
        raise ValueError(
            f"illegal pointer target {target} at step {state.step_count} "
            f"(stack top {state.top})"
        )
    if target == t:
        return DecoderState(n=state.n, stack=state.stack[:-1], heads=state.heads,
                            step_count=state.step_count + 1)
    heads = list(state.heads)
    heads[target] = t
    return DecoderState(n=state.n, stack=state.stack + (target,),
                        heads=tuple(heads), step_count=state.step_count + 1)


def replay(n: int, targets: Sequence[int]) -> DecoderState:
    """Run a full action sequence from the initial state; must end terminal."""
    state = initial_state(n)
    for target in targets:
        state = checked_step(state, target)
    if not state.is_terminal():
        raise ValueError(f"action sequence left {len(state.stack)} items on the stack")
    return state


def row(m, i):
    def backward(g):
        if m.requires_grad:
            gm = np.zeros_like(m.data)
            gm[i] = g
            ad._accum(m, gm)

    return ad._node(m.data[i], (m,), backward)


def slice1d(v, start, stop):
    def backward(g):
        if v.requires_grad:
            gv = np.zeros_like(v.data)
            gv[start:stop] = g
            ad._accum(v, gv)

    return ad._node(v.data[start:stop], (v,), backward)


def matmul(a, b):
    """Product of any 2D/1D pair: matrix-matrix, matrix-vector,
    vector-matrix or the dot product of two vectors."""
    a_is_vec = a.data.ndim == 1
    b_is_vec = b.data.ndim == 1

    def backward(g):
        if not a_is_vec and not b_is_vec:
            ad._accum(a, g @ b.data.T)
            ad._accum(b, a.data.T @ g)
        elif not a_is_vec and b_is_vec:       # (m,k)@(k,) -> (m,)
            ad._accum(a, np.outer(g, b.data))
            ad._accum(b, a.data.T @ g)
        elif a_is_vec and not b_is_vec:       # (k,)@(k,n) -> (n,)
            ad._accum(a, b.data @ g)
            ad._accum(b, np.outer(a.data, g))
        else:                                  # (k,)@(k,) -> ()
            ad._accum(a, g * b.data)
            ad._accum(b, g * a.data)

    return ad._node(a.data @ b.data, (a, b), backward)


def bilinear_pair(left, weight, right):
    """``bilinear_vec`` of one vector pair: (d_left,), (L, d_left, d_right),
    (d_right,) -> (L,)."""
    out = ad.bilinear_vec(ad.reshape(left, (1, -1)), weight, ad.reshape(right, (1, -1)))
    return ad.reshape(out, (weight.data.shape[0],))


def dropout(t, rate, training, rng=None):
    """Inverted dropout of one sentence's tensor, its whole mask drawn from
    one stream."""
    if not training or rate == 0.0:
        return t
    factor = ad.dropout_mask(t.data.shape, rate, rng)
    return ad.mul(t, Tensor(factor))


def stack_rows(rows):
    rows = list(rows)

    def backward(g):
        for i, r in enumerate(rows):
            ad._accum(r, g[i])

    return ad._node(np.stack([r.data for r in rows], axis=0), rows, backward)


def im2col_rows(m, width):
    """Stack sliding windows of ``width`` consecutive rows, flattened.

    (n, d) -> (n - width + 1, width * d); requires n >= width.
    """
    n, d = m.data.shape
    if n < width:
        raise ValueError(f"sequence of {n} rows is shorter than window {width}")
    windows = n - width + 1
    out_data = np.empty((windows, width * d))
    for w in range(width):
        out_data[:, w * d:(w + 1) * d] = m.data[w:w + windows]

    def backward(g):
        if m.requires_grad:
            gm = np.zeros_like(m.data)
            for w in range(width):
                gm[w:w + windows] += g[:, w * d:(w + 1) * d]
            ad._accum(m, gm)

    return ad._node(out_data, (m,), backward)


def max_over_rows(m):
    """Column-wise max over rows (max-over-time pooling)."""
    arg = m.data.argmax(axis=0)
    cols = np.arange(m.data.shape[1])

    def backward(g):
        if m.requires_grad:
            gm = np.zeros_like(m.data)
            gm[arg, cols] = g
            ad._accum(m, gm)

    return ad._node(m.data[arg, cols], (m,), backward)


def char_cnn(form, char_vocab, store, config):
    """One word's character CNN: convolve, tanh, max-over-time pool."""
    ids = enc.char_ids(form, char_vocab, config.filter_width)
    chars = ad.pick(store["embeddings.char"], ids)
    windows = im2col_rows(chars, config.filter_width)
    conv = ad.add(ad.matmul(windows, ad.transpose(store["encoder.charcnn.W"])),
                  store["encoder.charcnn.b"])
    return max_over_rows(ad.tanh(conv))


def embed_tokens(sent, vocabs, store, config):
    """``encoder.embed_tokens`` with one ``char_cnn`` per form."""
    forms = (ROOT_FORM,) + tuple(t.form for t in sent.tokens)
    word_ids = [ROOT_ID] + [vocabs["word"].index(t.form) for t in sent.tokens]
    pos_ids = [ROOT_ID] + [vocabs["pos"].index(t.pos) for t in sent.tokens]
    words = ad.pick(store["embeddings.word"], word_ids)
    poses = ad.pick(store["embeddings.pos"], pos_ids)
    chars = stack_rows([char_cnn(f, vocabs["char"], store, config) for f in forms])
    return ad.concat([words, chars, poses], axis=1)


def sigmoid(t):
    """The logistic function of each entry; the package computes its LSTM
    gates in ``lstm_gates`` and has no sigmoid op."""
    out_data = ad._sigmoid(t.data)

    def backward(g):
        ad._accum(t, g * out_data * (1.0 - out_data))

    return ad._node(out_data, (t,), backward)


def lstm_cell(x, h, c, w_ih, w_hh, bias):
    """One LSTM step built from tape ops; gate order i, f, g, o. Returns (h', c')."""
    hidden = w_hh.data.shape[1]
    z = ad.add(ad.add(matmul(w_ih, x), matmul(w_hh, h)), bias)
    i = sigmoid(slice1d(z, 0, hidden))
    f = sigmoid(slice1d(z, hidden, 2 * hidden))
    g = ad.tanh(slice1d(z, 2 * hidden, 3 * hidden))
    o = sigmoid(slice1d(z, 3 * hidden, 4 * hidden))
    c_next = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_next = ad.mul(o, ad.tanh(c_next))
    return h_next, c_next


def _run_lstm(rows, store, prefix, hidden_dim, p_rnn, training, rng):
    w_ih = store[f"{prefix}.W_ih"]
    w_hh = store[f"{prefix}.W_hh"]
    bias = store[f"{prefix}.b"]
    h = Tensor([0.0] * hidden_dim)
    c = Tensor([0.0] * hidden_dim)
    in_rng = rng.split(f"{prefix}.in") if training and rng is not None else None
    hid_rng = rng.split(f"{prefix}.hid") if training and rng is not None else None
    in_mask = hid_mask = None
    if training and p_rnn > 0.0:
        in_mask = (in_rng.random(rows[0].data.shape) >= p_rnn) / (1.0 - p_rnn)
        hid_mask = (hid_rng.random((hidden_dim,)) >= p_rnn) / (1.0 - p_rnn)
    outputs = []
    for x in rows:
        if in_mask is not None:
            x = ad.mul(x, Tensor(in_mask))
        h_in = ad.mul(h, Tensor(hid_mask)) if hid_mask is not None else h
        h, c = lstm_cell(x, h_in, c, w_ih, w_hh, bias)
        outputs.append(h)
    return outputs


def bilstm_encode(x, store, config, training=False, rng=None):
    rows = [row(x, i) for i in range(x.shape[0])]
    fw = _run_lstm(rows, store, "encoder.lstm.fw", config.d_h,
                   config.p_rnn, training, rng)
    bw = _run_lstm(rows[::-1], store, "encoder.lstm.bw", config.d_h,
                   config.p_rnn, training, rng)
    bw = bw[::-1]
    return stack_rows([ad.concat([f, b]) for f, b in zip(fw, bw)])


def multi_head_self_attention(x, store, config):
    """Self-attention over one sentence's (n+1, d_model) rows, one head at
    a time."""
    scale = enc.attention_scale(config)
    heads = []
    for h in range(config.r):
        q = ad.matmul(x, ad.transpose(store[f"encoder.attn.head{h}.Wq"]))
        k = ad.matmul(x, ad.transpose(store[f"encoder.attn.head{h}.Wk"]))
        v = ad.matmul(x, ad.transpose(store[f"encoder.attn.head{h}.Wv"]))
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / scale)
        heads.append(ad.matmul(ad.softmax_rows(scores), v))
    return ad.matmul(ad.concat(heads, axis=1), ad.transpose(store["encoder.attn.Wm"]))


def encode_sentence(sent, vocabs, store, config, training=False, rng=None):
    tokens = embed_tokens(sent, vocabs, store, config)
    tokens = dropout(tokens, config.p_in, training,
                     rng.split("p_in") if rng is not None else None)
    attended = multi_head_self_attention(tokens, store, config)
    return bilstm_encode(attended, store, config, training, rng)


def _mlp(store, prefix, x):
    w = store[f"{prefix}.W"]
    b = store[f"{prefix}.b"]
    return ad.elu(ad.add(matmul(x, ad.transpose(w)), b))


def biaffine_score(decoder_vec, encoder_mat, weight, w_dec, w_enc, bias):
    through = matmul(encoder_mat, matmul(ad.transpose(weight), decoder_vec))
    enc_term = matmul(encoder_mat, w_enc)
    dec_term = ad.add(matmul(w_dec, decoder_vec), bias)
    return ad.add(ad.add(through, enc_term), dec_term)


def scorers(parser: Parser, encoder_states, training, rng):
    """(score_fn, label_score_fn) advancing one decoder LSTM step per call."""
    cfg = parser.config
    store = parser.store
    drop_rng = rng.split("p_out") if rng is not None else None

    def drop(t):
        return dropout(t, cfg.p_out, training, drop_rng)

    arc_enc = drop(_mlp(store, "biaffine.arc.enc", encoder_states))
    label_enc = drop(_mlp(store, "biaffine.label.enc", encoder_states))
    hidden = Tensor([0.0] * cfg.decoder_dim)
    cell = Tensor([0.0] * cfg.decoder_dim)
    hid_mask = None
    if training and cfg.p_rnn > 0.0 and rng is not None:
        mask = rng.split("decoder.hid").random((cfg.decoder_dim,))
        hid_mask = Tensor((mask >= cfg.p_rnn) / (1.0 - cfg.p_rnn))
    state_box = {}

    def score_fn(top):
        nonlocal hidden, cell
        top_vec = row(encoder_states, top)
        h_in = ad.mul(hidden, hid_mask) if hid_mask is not None else hidden
        hidden, cell = lstm_cell(top_vec, h_in, cell,
                                 store["decoder.lstm.W_ih"],
                                 store["decoder.lstm.W_hh"],
                                 store["decoder.lstm.b"])
        state_box["label_dec"] = drop(_mlp(store, "biaffine.label.dec", hidden))
        arc_dec = drop(_mlp(store, "biaffine.arc.dec", hidden))
        return biaffine_score(arc_dec, arc_enc, store["biaffine.arc.U"],
                              store["biaffine.arc.w_dec"], store["biaffine.arc.w_enc"],
                              store["biaffine.arc.b"])

    def label_score_fn(child):
        d = state_box["label_dec"]
        e = row(label_enc, child)
        bilin = bilinear_pair(d, store["biaffine.label.U"], e)
        lin = ad.add(matmul(store["biaffine.label.w_dec"], d),
                     matmul(store["biaffine.label.w_enc"], e))
        return ad.add(ad.add(bilin, lin), store["biaffine.label.b"])

    return score_fn, label_score_fn


def path_log_likelihood(tree, label_ids, score_fn, label_score_fn,
                        child_order="inside_out"):
    state = initial_state(len(tree))
    total = None
    for target in dec.gold_path(tree, child_order=child_order):
        mask = legal_mask(state, mode="likelihood")
        scores = ad.mask_fill(score_fn(state.top), mask)
        term = ad.pick(ad.log_softmax(scores), target)
        if target != state.top:
            label_scores = label_score_fn(target)
            term = ad.add(term, ad.pick(ad.log_softmax(label_scores),
                                        label_ids[target - 1]))
        total = term if total is None else ad.add(total, term)
        state = checked_step(state, target)
    assert state.is_terminal()
    return total


def sentence_loss(parser: Parser, tree, training: bool = False,
                  rng: Rng | None = None) -> Tensor:
    """The per-step loss of one tree: ``Parser.batch_loss([tree], [rng])``
    when training, ``Parser.batch_loss([tree])`` otherwise."""
    states = encode_sentence(tree, parser.vocabs, parser.store, parser.config,
                             training=training, rng=rng)
    score_fn, label_score_fn = scorers(parser, states, training, rng)
    label_ids = [parser.vocabs["label"].index(lbl) for lbl in tree.labels]
    ll = path_log_likelihood(tree, label_ids, score_fn, label_score_fn,
                             child_order=parser.config.child_order)
    return ad.scale(ll, -1.0 / len(tree))


def lockstep_scorers(score_fns, label_score_fns, width):
    """The batched scorers of ``decode_greedy`` from per-sentence closures:
    ``score_fns[b](top)`` gives sentence b's (n+1,) arc scores, padded here
    to ``width``, for each of the first ``len(tops)`` sentences;
    ``label_score_fns[b](child)`` its label scores."""
    def arc_scorer(tops):
        out = np.zeros((len(tops), width))
        for b, top in enumerate(tops):
            scores = score_fns[b](int(top)).data
            out[b, :len(scores)] = scores
        return out

    def label_scorer(rows, children):
        return np.stack([label_score_fns[b](int(child)).data
                         for b, child in zip(rows, children)])

    return arc_scorer, label_scorer


def decode_one(n, score_fn, label_score_fn):
    """Greedy-decode one sentence, as a batch of one, with per-top scorers."""
    arc_scorer, label_scorer = lockstep_scorers([score_fn], [label_score_fn], n + 1)
    return dec.decode_greedy([n], arc_scorer, label_scorer)[0]


def parse_heads_labels(parser: Parser, sent):
    """Greedy decoding driven by the per-step reference encoder and scorers."""
    states = encode_sentence(sent, parser.vocabs, parser.store, parser.config)
    score_fn, label_score_fn = scorers(parser, states, False, None)
    return decode_one(len(sent.tokens), score_fn, label_score_fn)
