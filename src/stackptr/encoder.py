"""Token encoding: embeddings, character CNN, self-attention, BiLSTM.

The pipeline for one sentence (virtual ROOT included at position 0):

    token matrix  = [word emb ; char-CNN(word) ; POS emb]      (n+1, d_model)
    attended      = multi-head self-attention(token matrix)    (n+1, d_model)
    encoder state = BiLSTM(attended)                           (n+1, 2*hidden)

The attention block is deliberately bare: no positional signal, no residual
connection, no layer normalization. Word order therefore reaches the scores
only through the BiLSTM, and permuting the input rows permutes the attention
output rows in exactly the same way.
"""

from __future__ import annotations

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


def char_cnn(forms, char_vocab: Vocabulary, store: ad.ParameterStore,
             config: TrainConfig) -> Tensor:
    """Convolve over each form's characters, tanh, max-over-time pool:
    (len(forms), num_filters). All forms share one (len(forms), W) grid of
    windows, W the most any form has; a form's max skips those past its own."""
    width = config.filter_width
    ids = [char_ids(form, char_vocab, width) for form in forms]
    counts = [len(word) - width + 1 for word in ids]
    windows = np.zeros((len(ids), max(counts), width), dtype=np.intp)
    for k, word in enumerate(ids):
        windows[k, :counts[k]] = np.lib.stride_tricks.sliding_window_view(word, width)
    real = np.arange(windows.shape[1]) < np.array(counts)[:, None]
    chars = ad.pick(store["embeddings.char"], windows.reshape(-1, width))
    flat = ad.reshape(chars, (-1, width * config.char_dim))
    conv = ad.add(ad.matmul(flat, ad.transpose(store["encoder.charcnn.W"])),
                  store["encoder.charcnn.b"])
    pooled = ad.reshape(ad.tanh(conv), windows.shape[:2] + (config.num_filters,))
    return ad.max_over_windows(pooled, real)


def embed_tokens(sent, vocabs: dict[str, Vocabulary],
                 store: ad.ParameterStore, config: TrainConfig) -> Tensor:
    """Concatenated word/char-CNN/POS vectors, ROOT first: (n+1, d_model).

    ``sent`` is anything with a ``tokens`` attribute (Sentence or
    DependencyTree); position never enters the representation.
    """
    forms = (ROOT_FORM,) + tuple(t.form for t in sent.tokens)
    word_ids = [ROOT_ID] + [vocabs["word"].index(t.form) for t in sent.tokens]
    pos_ids = [ROOT_ID] + [vocabs["pos"].index(t.pos) for t in sent.tokens]
    words = ad.pick(store["embeddings.word"], word_ids)
    poses = ad.pick(store["embeddings.pos"], pos_ids)
    chars = char_cnn(forms, vocabs["char"], store, config)
    return ad.concat([words, chars, poses], axis=1)


def attention_scale(config: TrainConfig) -> float:
    if config.attention_scale == "model_dim":
        return math.sqrt(config.d_model)
    return math.sqrt(config.d_model // config.r)


def multi_head_self_attention(x: Tensor, store: ad.ParameterStore,
                              config: TrainConfig,
                              collect_probs: list[Tensor] | None = None) -> Tensor:
    """Scaled dot-product self-attention over token rows; returns (n+1, d_model).

    ``collect_probs``, when given, receives each head's (n+1, n+1)
    probability tensor — the exact rows used to mix values.
    """
    scale = attention_scale(config)
    heads = []
    for h in range(config.r):
        q = ad.matmul(x, ad.transpose(store[f"encoder.attn.head{h}.Wq"]))
        k = ad.matmul(x, ad.transpose(store[f"encoder.attn.head{h}.Wk"]))
        v = ad.matmul(x, ad.transpose(store[f"encoder.attn.head{h}.Wv"]))
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / scale)
        probs = ad.softmax_rows(scores)
        if collect_probs is not None:
            collect_probs.append(probs)
        heads.append(ad.matmul(probs, v))
    return ad.matmul(ad.concat(heads, axis=1), ad.transpose(store["encoder.attn.Wm"]))


def bilstm_encode(x: Tensor, store: ad.ParameterStore, config: TrainConfig,
                  training: bool = False, rng: Rng | None = None) -> Tensor:
    """Bidirectional LSTM over token rows -> (n+1, 2*d_h).

    Variational dropout: each direction draws one input mask and one
    recurrent mask per sequence, shared by all of its steps.
    """
    if x.shape[0] == 0:
        raise ValueError("empty token matrix")
    reverse = list(range(x.shape[0] - 1, -1, -1))
    outputs = []
    for direction in ("fw", "bw"):
        prefix = f"encoder.lstm.{direction}"
        rows = x
        hid_mask = None
        if training and config.p_rnn > 0.0:
            in_mask = ad.dropout_mask(x.shape[1], config.p_rnn, rng.split(f"{prefix}.in"))
            hid_mask = ad.dropout_mask(config.d_h, config.p_rnn, rng.split(f"{prefix}.hid"))
            rows = ad.mul(rows, Tensor(in_mask))
        if direction == "bw":
            rows = ad.pick(rows, reverse)
        states = ad.lstm_sequence(rows, store[f"{prefix}.W_ih"], store[f"{prefix}.W_hh"],
                                  store[f"{prefix}.b"], hid_mask)
        if direction == "bw":
            states = ad.pick(states, reverse)
        outputs.append(states)
    return ad.concat(outputs, axis=1)


def encode_sentence(sent, vocabs: dict[str, Vocabulary],
                    store: ad.ParameterStore, config: TrainConfig,
                    training: bool = False, rng: Rng | None = None) -> Tensor:
    """Full encoder pass for one sentence: (n+1, 2*d_h)."""
    tokens = embed_tokens(sent, vocabs, store, config)
    tokens = ad.dropout(tokens, config.p_in, training,
                        rng.split("p_in") if rng is not None else None)
    attended = multi_head_self_attention(tokens, store, config)
    return bilstm_encode(attended, store, config, training, rng)
