"""Token encoding: embeddings, character CNN, self-attention, BiLSTM.

The pipeline for a batch of B sentences of one length n (virtual ROOT
included at position 0), one tape for the whole batch:

    token matrix  = [word emb ; char-CNN(word) ; POS emb]   (B, n+1, d_model)
    attended      = multi-head self-attention(token matrix) (B, n+1, d_model)
    encoder state = BiLSTM(attended)                        (B, n+1, 2*hidden)

Training encodes each batch, and parsing each run of equal-length sentences
in its chunk, through this one path (:func:`encode_batch`). Every sentence
draws its dropout masks from its own random streams, so its masks do not
depend on the batch it is in.

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
    """Concatenated word/char-CNN/POS vectors of sentences of one length,
    ROOT first: (B, n+1, d_model). The char-CNN runs over all B*(n+1)
    forms at once.

    Each sentence is anything with a ``tokens`` attribute (Sentence or
    DependencyTree); position never enters the representation.
    """
    lengths = {len(sent.tokens) for sent in sents}
    if len(lengths) != 1:
        raise ValueError(f"a batch needs sentences of one length, got {sorted(lengths)}")
    forms = [form for sent in sents
             for form in (ROOT_FORM,) + tuple(t.form for t in sent.tokens)]
    word_ids = [[ROOT_ID] + [vocabs["word"].index(t.form) for t in sent.tokens]
                for sent in sents]
    pos_ids = [[ROOT_ID] + [vocabs["pos"].index(t.pos) for t in sent.tokens]
               for sent in sents]
    words = ad.pick(store["embeddings.word"], np.array(word_ids))
    poses = ad.pick(store["embeddings.pos"], np.array(pos_ids))
    chars = ad.reshape(char_cnn(forms, vocabs["char"], store, config),
                       (len(sents), -1, config.num_filters))
    return ad.concat([words, chars, poses], axis=2)


def attention_scale(config: TrainConfig) -> float:
    if config.attention_scale == "model_dim":
        return math.sqrt(config.d_model)
    return math.sqrt(config.d_model // config.r)


def multi_head_self_attention(x: Tensor, store: ad.ParameterStore,
                              config: TrainConfig,
                              collect_probs: list[Tensor] | None = None) -> Tensor:
    """Scaled dot-product self-attention within each sentence of a batch of
    token rows (B, n+1, d_model); returns (B, n+1, d_model).

    The r heads run as one stack: each of the query, key and value
    projections is one product with the heads' weights concatenated, and
    the scores, softmax and mixing are (B, r, ., .) batched products.
    ``collect_probs``, when given, receives the (B, r, n+1, n+1)
    probability tensor — the exact rows used to mix values.
    """
    def project(p: str) -> Tensor:
        weight = ad.concat([store[f"encoder.attn.head{h}.W{p}"] for h in range(config.r)])
        heads = ad.reshape(ad.matmul(x, ad.transpose(weight)), x.shape[:2] + (config.r, -1))
        return ad.transpose(heads, (0, 2, 1, 3))                   # (B, r, n+1, head)

    q, k, v = project("q"), project("k"), project("v")
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / attention_scale(config))
    probs = ad.softmax_rows(scores)
    if collect_probs is not None:
        collect_probs.append(probs)
    mixed = ad.reshape(ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)), x.shape)
    return ad.matmul(mixed, ad.transpose(store["encoder.attn.Wm"]))


def bilstm_encode(x: Tensor, store: ad.ParameterStore, config: TrainConfig,
                  training: bool = False, rngs: list[Rng] | None = None) -> Tensor:
    """Bidirectional LSTM over each sentence's token rows (B, n+1, d) ->
    (B, n+1, 2*d_h). Both directions run the whole batch time-major.

    Variational dropout: each direction draws one input mask and one
    recurrent mask per sentence b from ``rngs[b]``, shared by all of its
    steps.
    """
    if x.shape[1] == 0:
        raise ValueError("empty token matrix")
    seq = ad.transpose(x, (1, 0, 2))                 # (n+1, B, d)
    reverse = np.arange(x.shape[1] - 1, -1, -1)
    outputs = []
    for direction in ("fw", "bw"):
        prefix = f"encoder.lstm.{direction}"
        rows = seq
        hid_mask = None
        if training and config.p_rnn > 0.0:
            in_mask = ad.dropout_masks(x.shape[2], config.p_rnn,
                                       ad.split_each(rngs, f"{prefix}.in"))
            hid_mask = ad.dropout_masks(config.d_h, config.p_rnn,
                                        ad.split_each(rngs, f"{prefix}.hid"))
            rows = ad.mul(rows, Tensor(in_mask))
        if direction == "bw":
            rows = ad.pick(rows, reverse)
        states = ad.lstm_sequence(rows, store[f"{prefix}.W_ih"], store[f"{prefix}.W_hh"],
                                  store[f"{prefix}.b"], hid_mask)
        if direction == "bw":
            states = ad.pick(states, reverse)
        outputs.append(states)
    return ad.transpose(ad.concat(outputs, axis=2), (1, 0, 2))


def encode_batch(sents, vocabs: dict[str, Vocabulary],
                 store: ad.ParameterStore, config: TrainConfig,
                 training: bool = False, rngs: list[Rng] | None = None) -> Tensor:
    """Full encoder pass for sentences of one length: (B, n+1, 2*d_h).
    Sentence b draws its dropout masks from ``rngs[b]`` when training."""
    tokens = embed_tokens(sents, vocabs, store, config)
    tokens = ad.dropout(tokens, config.p_in, training,
                        ad.split_each(rngs, "p_in") if training else None)
    attended = multi_head_self_attention(tokens, store, config)
    return bilstm_encode(attended, store, config, training, rngs)
