"""Per-step reference for the teacher-forced loss and for greedy parsing.

This is the training path the whole-path loss replaced, kept as a test
oracle: the encoder BiLSTM and the decoder run one ``lstm_cell`` per step,
and the likelihood walks the gold path calling closure scorers that build
one biaffine score vector, one label score vector and their dropout masks
per step. Its dropout draws come in the original order (per step: label
row, then arc row), so with the same ``rng`` it must agree with
``Parser.sentence_loss`` on the loss and on every gradient up to rounding.
The same closures, one sentence at a time, are the oracle for the lockstep
greedy parse. Its token rows stack one character CNN per word, the oracle
for the encoder's whole-sentence ``char_cnn``. The per-step and per-word
tape ops it needs (``row``, ``slice1d``, ``stack_rows``, ``lstm_cell``,
``im2col_rows``, ``max_over_rows``) are defined here: the package itself
has no per-step or per-word path.
"""

from __future__ import annotations

import numpy as np

from stackptr import autodiff as ad
from stackptr import decoder as dec
from stackptr import encoder as enc
from stackptr.autodiff import Rng, Tensor
from stackptr.model import Parser
from stackptr.treebank import ROOT_FORM, ROOT_ID


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


def lstm_cell(x, h, c, w_ih, w_hh, bias):
    """One LSTM step built from tape ops; gate order i, f, g, o. Returns (h', c')."""
    hidden = w_hh.data.shape[1]
    z = ad.add(ad.add(ad.matmul(w_ih, x), ad.matmul(w_hh, h)), bias)
    i = ad.sigmoid(slice1d(z, 0, hidden))
    f = ad.sigmoid(slice1d(z, hidden, 2 * hidden))
    g = ad.tanh(slice1d(z, 2 * hidden, 3 * hidden))
    o = ad.sigmoid(slice1d(z, 3 * hidden, 4 * hidden))
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


def encode_sentence(sent, vocabs, store, config, training=False, rng=None):
    tokens = embed_tokens(sent, vocabs, store, config)
    tokens = ad.dropout(tokens, config.p_in, training,
                        rng.split("p_in") if rng is not None else None)
    attended = enc.multi_head_self_attention(tokens, store, config)
    return bilstm_encode(attended, store, config, training, rng)


def _mlp(store, prefix, x):
    w = store[f"{prefix}.W"]
    b = store[f"{prefix}.b"]
    return ad.elu(ad.add(ad.matmul(x, ad.transpose(w)), b))


def biaffine_score(decoder_vec, encoder_mat, weight, w_dec, w_enc, bias):
    through = ad.matmul(encoder_mat, ad.matmul(ad.transpose(weight), decoder_vec))
    enc_term = ad.matmul(encoder_mat, w_enc)
    dec_term = ad.add(ad.matmul(w_dec, decoder_vec), bias)
    return ad.add(ad.add(through, enc_term), dec_term)


def scorers(parser: Parser, encoder_states, training, rng):
    """(score_fn, label_score_fn) advancing one decoder LSTM step per call."""
    cfg = parser.config
    store = parser.store
    drop_rng = rng.split("p_out") if rng is not None else None

    def drop(t):
        return ad.dropout(t, cfg.p_out, training, drop_rng)

    arc_enc = drop(_mlp(store, "biaffine.arc.enc", encoder_states))
    label_enc = drop(_mlp(store, "biaffine.label.enc", encoder_states))
    hidden = Tensor([0.0] * cfg.decoder_dim)
    cell = Tensor([0.0] * cfg.decoder_dim)
    hid_mask = None
    if training and cfg.p_rnn > 0.0 and rng is not None:
        mask = rng.split("decoder.hid").random((cfg.decoder_dim,))
        hid_mask = Tensor((mask >= cfg.p_rnn) / (1.0 - cfg.p_rnn))
    state_box = {}

    def score_fn(state):
        nonlocal hidden, cell
        top_vec = row(encoder_states, state.top)
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

    def label_score_fn(state, child):
        d = state_box["label_dec"]
        e = row(label_enc, child)
        bilin = ad.bilinear_vec(d, store["biaffine.label.U"], e)
        lin = ad.add(ad.matmul(store["biaffine.label.w_dec"], d),
                     ad.matmul(store["biaffine.label.w_enc"], e))
        return ad.add(ad.add(bilin, lin), store["biaffine.label.b"])

    return score_fn, label_score_fn


def path_log_likelihood(tree, label_ids, score_fn, label_score_fn,
                        single_root=False, child_order="inside_out"):
    state = dec.initial_state(len(tree))
    total = None
    for target in dec.gold_path(tree, child_order=child_order):
        mask = dec.legal_mask(state, mode="likelihood", single_root=single_root)
        scores = ad.mask_fill(score_fn(state), mask)
        term = ad.pick(ad.log_softmax(scores), target)
        if target != state.top:
            label_scores = label_score_fn(state, target)
            term = ad.add(term, ad.pick(ad.log_softmax(label_scores),
                                        label_ids[target - 1]))
        total = term if total is None else ad.add(total, term)
        state = dec.step(state, target, single_root=single_root)
    assert state.is_terminal()
    return total


def sentence_loss(parser: Parser, tree, training: bool = False,
                  rng: Rng | None = None) -> Tensor:
    """The per-step counterpart of ``Parser.sentence_loss``."""
    states = encode_sentence(tree, parser.vocabs, parser.store, parser.config,
                             training=training, rng=rng)
    score_fn, label_score_fn = scorers(parser, states, training, rng)
    label_ids = [parser.vocabs["label"].index(lbl) for lbl in tree.labels]
    ll = path_log_likelihood(tree, label_ids, score_fn, label_score_fn,
                             single_root=parser.config.single_root,
                             child_order=parser.config.child_order)
    return ad.scale(ad.neg(ll), 1.0 / len(tree))


def lockstep_scorers(score_fns, label_score_fns, width):
    """The batched scorers of ``decode_greedy`` from per-sentence, per-state
    closures: ``score_fns[b](state)`` gives sentence b's (n+1,) arc scores,
    padded here to ``width``; ``label_score_fns[b](state, child)`` its
    label scores."""
    def arc_scorer(rows, states):
        out = np.zeros((len(rows), width))
        for k, (b, state) in enumerate(zip(rows, states)):
            scores = score_fns[b](state).data
            out[k, :len(scores)] = scores
        return out

    def label_scorer(rows, states, children):
        return np.stack([label_score_fns[b](state, int(child)).data
                         for b, state, child in zip(rows, states, children)])

    return arc_scorer, label_scorer


def decode_one(n, score_fn, label_score_fn, single_root=False):
    """Greedy-decode one sentence, as a batch of one, with per-state scorers."""
    arc_scorer, label_scorer = lockstep_scorers([score_fn], [label_score_fn], n + 1)
    return dec.decode_greedy([n], arc_scorer, label_scorer, single_root=single_root)[0]


def parse_heads_labels(parser: Parser, sent):
    """Greedy decoding driven by the per-step reference encoder and scorers."""
    states = encode_sentence(sent, parser.vocabs, parser.store, parser.config)
    score_fn, label_score_fn = scorers(parser, states, False, None)
    return decode_one(len(sent.tokens), score_fn, label_score_fn,
                      single_root=parser.config.single_root)
