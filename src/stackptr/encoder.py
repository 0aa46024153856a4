"""Token encoding: embeddings, character CNN, self-attention, BiLSTM.

The pipeline for a batch of B sentences of any lengths, padded to the
longest N (virtual ROOT included at position 0), one tape for the whole
batch:

    token matrix  = [word emb ; char-CNN(word) ; POS emb]   (B, N+1, d_model)
    attended      = multi-head self-attention(token matrix) (B, N+1, d_model)
    encoder state = BiLSTM(attended)                        (B, N+1, 2*hidden)

A sentence's rows past its own n+1 are padding: attention gives its keys
no weight, and both LSTM directions reach them only after the sentence's
real rows, so a real row is the same as in a batch of that sentence alone.
Padded rows are finite and never read. Training encodes each batch (one
length, so no padding), and parsing each chunk of sentences, through this
one path (:func:`encode_batch`). Every sentence draws its dropout masks
from its own random streams, so its masks do not depend on the batch it is
in.

The attention block is deliberately bare: no positional signal, no residual
connection, no layer normalization. Word order therefore reaches the scores
only through the BiLSTM, and permuting the input rows permutes the attention
output rows in exactly the same way.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor
from .config import TrainConfig
from .treebank import PAD, ROOT_FORM, ROOT_ID, Vocabulary


def create_embedding_params(store: ad.ParameterStore, config: TrainConfig,
                            word_size: int, char_size: int, pos_size: int) -> None:
    store.create("embeddings.word", (word_size, config.d_w), init="embedding")
    store.create("embeddings.char", (char_size, config.char_dim), init="embedding")
    store.create("embeddings.pos", (pos_size, config.pos_dim), init="embedding")


def create_encoder_params(store: ad.ParameterStore, config: TrainConfig) -> None:
    d = config.d_model
    head_dim = d // config.r
    store.create("encoder.charcnn.W",
                 (config.num_filters, config.filter_width * config.char_dim))
    store.create("encoder.charcnn.b", (config.num_filters,), init="zeros")
    for h in range(config.r):
        store.create(f"encoder.attn.head{h}.Wq", (head_dim, d))
        store.create(f"encoder.attn.head{h}.Wk", (head_dim, d))
        store.create(f"encoder.attn.head{h}.Wv", (head_dim, d))
    store.create("encoder.attn.Wm", (d, d))
    for direction in ("fw", "bw"):
        store.create(f"encoder.lstm.{direction}.W_ih", (4 * config.d_h, d))
        store.create(f"encoder.lstm.{direction}.W_hh",
                     (4 * config.d_h, config.d_h))
        store.create(f"encoder.lstm.{direction}.b", (4 * config.d_h,), init="zeros")


def char_ids(form: str, char_vocab: Vocabulary, width: int) -> list[int]:
    """Character ids for one form, right-padded with PAD up to the CNN width."""
    if not form:
        raise ValueError("empty character sequence")
    ids = [ROOT_ID] if form == ROOT_FORM else [char_vocab.index(c) for c in form]
    while len(ids) < width:
        ids.append(PAD)
    return ids


def char_windows(forms, char_vocab: Vocabulary, width: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The (len(forms), W, width) grid of character-id windows, W the most
    any form has, and the (len(forms), W) mask of each form's own windows.
    The windows past a form's own are 0. One gather from the padded id
    matrix builds the grid."""
    ids = [char_ids(form, char_vocab, width) for form in forms]
    lengths = np.array([len(word) for word in ids])
    padded = np.zeros((len(ids), lengths.max()), dtype=np.intp)
    padded[np.arange(lengths.max()) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(ids), dtype=np.intp, count=lengths.sum())
    counts = lengths - width + 1
    real = np.arange(counts.max()) < counts[:, None]
    windows = padded[:, np.arange(counts.max())[:, None] + np.arange(width)]
    windows[~real] = 0
    return windows, real


def char_cnn(forms, char_vocab: Vocabulary, store: ad.ParameterStore,
             config: TrainConfig) -> Tensor:
    """Convolve over each form's characters, tanh, max-over-time pool:
    (len(forms), num_filters). All forms share one grid of windows
    (:func:`char_windows`); a form's max skips those past its own."""
    width = config.filter_width
    windows, real = char_windows(forms, char_vocab, width)
    chars = ad.reshape(ad.pick(store["embeddings.char"], windows),
                       windows.shape[:2] + (width * config.char_dim,))
    conv = ad.add(ad.matmul(chars, ad.transpose(store["encoder.charcnn.W"])),
                  store["encoder.charcnn.b"])
    return ad.max_over_windows(ad.tanh(conv), real)


def embed_tokens(sents, vocabs: dict[str, Vocabulary],
                 store: ad.ParameterStore, config: TrainConfig) -> Tensor:
    """Concatenated word/char-CNN/POS vectors of sentences of any lengths,
    ROOT first, padded to the longest: (B, N+1, d_model). A padded row
    holds the PAD word and POS embeddings and a zero char-CNN row. The
    char-CNN runs over the real forms only, all at once, and one gather
    places its rows in the padded grid.

    Each sentence is anything with a ``tokens`` attribute (Sentence or
    DependencyTree); position never enters the representation.
    """
    sizes = np.array([len(sent.tokens) + 1 for sent in sents])
    real = np.arange(sizes.max()) < sizes[:, None]
    forms = [form for sent in sents
             for form in (ROOT_FORM,) + tuple(t.form for t in sent.tokens)]
    word_ids = np.full(real.shape, PAD, dtype=np.intp)
    word_ids[real] = [id_ for sent in sents for id_ in
                      (ROOT_ID, *(vocabs["word"].index(t.form) for t in sent.tokens))]
    pos_ids = np.full(real.shape, PAD, dtype=np.intp)
    pos_ids[real] = [id_ for sent in sents for id_ in
                     (ROOT_ID, *(vocabs["pos"].index(t.pos) for t in sent.tokens))]
    words = ad.pick(store["embeddings.word"], word_ids)
    poses = ad.pick(store["embeddings.pos"], pos_ids)
    slots = np.full(real.shape, len(forms))          # padded slots take the zero row
    slots[real] = np.arange(len(forms))
    chars = ad.pick(ad.concat([char_cnn(forms, vocabs["char"], store, config),
                               Tensor(np.zeros((1, config.num_filters)))]), slots)
    return ad.concat([words, chars, poses], axis=2)


def attention_scale(config: TrainConfig) -> float:
    if config.attention_scale == "model_dim":
        return math.sqrt(config.d_model)
    return math.sqrt(config.d_model // config.r)


def multi_head_self_attention(x: Tensor, store: ad.ParameterStore,
                              config: TrainConfig,
                              collect_probs: list[Tensor] | None = None,
                              lengths: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product self-attention within each sentence of a batch of
    token rows (B, N+1, d_model); returns (B, N+1, d_model).

    The r heads run as one stack: each of the query, key and value
    projections is one product with the heads' weights concatenated, and
    the scores, softmax and mixing are (B, r, ., .) batched products.
    ``lengths`` (B,), when given, holds each sentence's n: its keys past
    n are set to -inf before the softmax, so they get probability 0
    (key 0, ROOT, is always real). Without it every row is real.
    ``collect_probs``, when given, receives the (B, r, N+1, N+1)
    probability tensor — the exact rows used to mix values.
    """
    def project(p: str) -> Tensor:
        weight = ad.concat([store[f"encoder.attn.head{h}.W{p}"] for h in range(config.r)])
        heads = ad.reshape(ad.matmul(x, ad.transpose(weight)), x.shape[:2] + (config.r, -1))
        return ad.transpose(heads, (0, 2, 1, 3))                   # (B, r, n+1, head)

    q, k, v = project("q"), project("k"), project("v")
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / attention_scale(config))
    if lengths is not None:
        keys = np.arange(x.shape[1]) <= lengths[:, None]
        scores = ad.mask_fill(scores, keys[:, None, None, :])
    probs = ad.softmax_rows(scores)
    if collect_probs is not None:
        collect_probs.append(probs)
    mixed = ad.reshape(ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)), x.shape)
    return ad.matmul(mixed, ad.transpose(store["encoder.attn.Wm"]))


def bilstm_encode(x: Tensor, store: ad.ParameterStore, config: TrainConfig,
                  rngs: list[Rng] | None = None,
                  lengths: np.ndarray | None = None) -> Tensor:
    """Bidirectional LSTM over each sentence's token rows (B, N+1, d) ->
    (B, N+1, 2*d_h). Each direction is one :func:`autodiff.lstm_sequence`
    over the whole batch.

    ``lengths`` (B,), when given, holds each sentence's n; without it
    every row is real. The backward direction reverses each sentence
    within its own n+1 rows and leaves its padded rows at the end, so in
    both directions a sentence's padded steps come after its real ones.

    Variational dropout, when ``rngs`` (one per sentence) is given: each
    direction draws one input mask and one recurrent mask per sentence b
    from ``rngs[b]``, shared by all of its steps.
    """
    if x.shape[1] == 0:
        raise ValueError("empty token matrix")
    if rngs is not None and len(rngs) != x.shape[0]:
        raise ValueError("dropout needs one Rng per sentence")
    sizes = np.full(x.shape[0], x.shape[1]) if lengths is None else lengths + 1
    outputs = []
    for direction, reverse in (("fw", None), ("bw", sizes)):
        prefix = f"encoder.lstm.{direction}"
        in_mask = hid_mask = None
        if rngs is not None and config.p_rnn > 0.0:
            in_mask = ad.dropout_masks(x.shape[2], config.p_rnn,
                                       ad.split_each(rngs, f"{prefix}.in"))
            hid_mask = ad.dropout_masks(config.d_h, config.p_rnn,
                                        ad.split_each(rngs, f"{prefix}.hid"))
        outputs.append(ad.lstm_sequence(x, store[f"{prefix}.W_ih"], store[f"{prefix}.W_hh"],
                                        store[f"{prefix}.b"], in_mask, hid_mask, reverse))
    return ad.concat(outputs, axis=2)


def encode_batch(sents, vocabs: dict[str, Vocabulary],
                 store: ad.ParameterStore, config: TrainConfig,
                 rngs: list[Rng] | None = None) -> Tensor:
    """Full encoder pass for sentences of any lengths, in any order, padded
    to the longest N: (B, N+1, 2*d_h). Sentence b's rows 0..n_b equal those
    of encoding it alone; its rows past n_b are finite padding. Sentence b
    draws its dropout masks from ``rngs[b]``; no ``rngs`` means evaluation."""
    if rngs is not None and len(rngs) != len(sents):
        raise ValueError("dropout needs one Rng per sentence")
    lengths = np.array([len(sent.tokens) for sent in sents])
    tokens = embed_tokens(sents, vocabs, store, config)
    tokens = ad.dropout(tokens, config.p_in, ad.split_each(rngs, "p_in"))
    attended = multi_head_self_attention(tokens, store, config, lengths=lengths)
    return bilstm_encode(attended, store, config, rngs, lengths)
