"""The assembled parser: encoder + pointer decoder + biaffine scorers.

One :class:`Parser` owns a parameter store, the vocabularies, and a config.
The decoder LSTM is fed the encoder state of the current stack top, and its
output goes through small ELU layers before the biaffine arc/label scorers.

`batch_loss` gives the teacher-forced training objective of a batch of
trees of one length n, as one tape. The encoder runs the whole batch
(`encoder.encode_batch`). Every length-n gold path has 2n+1 steps and
fixes each step's stack top in advance, so the decoder is one LSTM over
the (B, 2n+1, .) gathered top states, and the arc and label scores of all
steps of all trees are single batched products: no padding, no masks.
`parse_corpus` runs greedy decoding over bare sentences, a chunk of them
in lockstep, through one batched :class:`LockstepScorer`, which encodes
the whole chunk, padded to its longest sentence, with one call of the same
`encode_batch`; it reads parameters as constants, so parsing records no
tape. The pointer machines themselves (a heads matrix and a vector of
stack tops) live in `decoder.decode_greedy`; a chunk runs longest first,
so the scorer sees the tops of its unfinished leading block, and for labels
the attached children. Both paths advance the decoder LSTM with the same
gate arithmetic (`autodiff.lstm_gates`) and score arcs with the same
biaffine (`_arc_scores`). Where `autodiff.worker` allows it for the
decoder's W_hh (at least `autodiff.WORKER_MIN_WHH` elements, and two CPUs),
`parse_corpus` gives its scorers the package's worker thread, which
computes each next step's recurrent product while the main thread scores
the current step; the product and its addition are those of the inline
path, so the bits do not change. The same gate lets training run Adam's
second half, the encoder BiLSTM's second direction and, at full size, the
second half of the decoder LSTM's products (`autodiff.WORKER_MIN_SPLIT`)
on that thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoder as enc
from .autodiff import ParameterStore, Rng, Tensor
from .config import TrainConfig
from .treebank import DependencyTree, Sentence, Vocabulary, make_tree

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

# Most sentences decoded in lockstep at once. It bounds the memory of the
# chunk's decoder input projection, (sum of n+1, 4 * decoder_dim) float64,
# and of its padded (B, r, N+1, N+1) attention tensor: 64 MB and 7.6 MB at
# full size for 64 sentences of 60 tokens.
DECODE_CHUNK = 64


def create_parameters(store: ParameterStore, config: TrainConfig,
                      vocabs: dict[str, Vocabulary]) -> None:
    """Register every model tensor. Insertion order is part of the
    determinism contract, so keep this the single registration point."""
    enc.create_embedding_params(store, config, len(vocabs["word"]),
                                len(vocabs["char"]), len(vocabs["pos"]))
    enc.create_encoder_params(store, config)
    dec.create_decoder_params(store, config.decoder_dim)
    dec.create_biaffine_params(store, config.decoder_dim, config.arc_mlp_dim,
                               config.label_mlp_dim, len(vocabs["label"]))


class _ShapeRecorder:
    """Stands in for a ParameterStore: records each tensor's shape and
    draws no values."""

    def __init__(self) -> None:
        self.shapes: dict[str, tuple[int, ...]] = {}

    def create(self, name: str, shape: tuple[int, ...], init: str = "glorot") -> None:
        self.shapes[name] = tuple(shape)


def parameter_shapes(config: TrainConfig, vocabs: dict[str, Vocabulary]
                     ) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor :func:`create_parameters` registers."""
    recorder = _ShapeRecorder()
    create_parameters(recorder, config, vocabs)
    return recorder.shapes


def _mlp(store: ParameterStore, prefix: str, x: Tensor) -> Tensor:
    """One ELU layer on each row of ``x`` (..., d)."""
    return ad.elu(ad.add(ad.matmul(x, ad.transpose(store[f"{prefix}.W"])),
                         store[f"{prefix}.b"]))


def _arc_scores(store: ParameterStore, dec_rows: Tensor, arc_enc: Tensor) -> Tensor:
    """Raw arc scores of each sentence's T decoder rows over all of its
    positions: (B, T, n+1)."""
    return dec.biaffine_score(dec_rows, arc_enc, store["biaffine.arc.U"],
                              store["biaffine.arc.w_dec"], store["biaffine.arc.w_enc"],
                              store["biaffine.arc.b"])


def _label_scores(store: ParameterStore, dec_rows: Tensor, enc_rows: Tensor) -> Tensor:
    """Label scores of k paired (decoder, child encoder) rows: (k, L)."""
    bilin = ad.bilinear_vec(dec_rows, store["biaffine.label.U"], enc_rows)
    lin = ad.add(ad.matmul(dec_rows, ad.transpose(store["biaffine.label.w_dec"])),
                 ad.matmul(enc_rows, ad.transpose(store["biaffine.label.w_enc"])))
    return ad.add(ad.add(bilin, lin), store["biaffine.label.b"])


class Parser:
    def __init__(self, config: TrainConfig, vocabs: dict[str, Vocabulary],
                 store: ParameterStore):
        self.config = config
        self.vocabs = vocabs
        self.store = store

    @classmethod
    def build(cls, config: TrainConfig, vocabs: dict[str, Vocabulary]) -> "Parser":
        store = ParameterStore(config.seed)
        create_parameters(store, config, vocabs)
        return cls(config, vocabs, store)

    # -- training and inference entry points ---------------------------------

    def batch_loss(self, trees: Sequence[DependencyTree],
                   rngs: Sequence[Rng] | None = None) -> Tensor:
        """Mean over ``trees``, all of one length n, of each gold path's
        length-normalized negative log-likelihood, as one tape.

        With ``rngs`` (training), tree b draws its dropout masks from its
        own streams, children of ``rngs[b]``, in the order a batch of one
        would draw them. Without them (evaluation) nothing is dropped.
        """
        cfg = self.config
        store = self.store
        plan = dec.gold_plan(trees, child_order=cfg.child_order)      # (B, 2n+1, ...)
        states = enc.encode_batch(trees, self.vocabs, store, cfg, rngs)  # (B, n+1, D)
        drop_rngs = ad.split_each(rngs, "p_out")
        arc_enc = ad.dropout(_mlp(store, "biaffine.arc.enc", states), cfg.p_out, drop_rngs)
        label_enc = ad.dropout(_mlp(store, "biaffine.label.enc", states), cfg.p_out, drop_rngs)
        hid_mask = None
        if rngs is not None and cfg.p_rnn > 0.0:
            hid_mask = ad.dropout_masks(cfg.decoder_dim, cfg.p_rnn,
                                        ad.split_each(rngs, "decoder.hid"))[None]
        batch = np.arange(len(trees))
        tops = ad.pick(states, (batch[:, None], plan.tops))           # (B, 2n+1, D)
        hidden = ad.lstm_sequence(tops, [(store["decoder.lstm.W_ih"], store["decoder.lstm.W_hh"],
                                          store["decoder.lstm.b"])], h_mask=hid_mask)
        arc_b, arc_t = np.nonzero(plan.arc_steps)   # B*n steps, tree by tree in path order
        children = plan.targets[arc_b, arc_t]
        label_dec = _mlp(store, "biaffine.label.dec", ad.pick(hidden, (arc_b, arc_t)))
        arc_dec = _mlp(store, "biaffine.arc.dec", hidden)
        if rngs is not None and cfg.p_out > 0.0:
            # Every step draws its label-row mask, then its arc-row mask, from
            # its tree's p_out stream: one (2n+1, label+arc) draw per tree.
            factors = ad.dropout_masks((plan.tops.shape[1],
                                        cfg.label_mlp_dim + cfg.arc_mlp_dim),
                                       cfg.p_out, drop_rngs)
            label_dec = ad.mul(label_dec, Tensor(factors[arc_b, arc_t, :cfg.label_mlp_dim]))
            arc_dec = ad.mul(arc_dec, Tensor(factors[:, :, cfg.label_mlp_dim:]))
        label_scores = _label_scores(store, label_dec, ad.pick(label_enc, (arc_b, children)))
        label_ids = np.array([[self.vocabs["label"].index(lbl) for lbl in t.labels]
                              for t in trees], dtype=np.intp)
        ll = dec.path_log_likelihood(plan, _arc_scores(store, arc_dec, arc_enc),
                                     label_scores, label_ids[arc_b, children - 1])
        n = plan.tops.shape[1] // 2
        return ad.scale(ad.scale(ll, -1.0 / n), 1.0 / len(trees))

    def parse_corpus(self, sents: Sequence[Sentence | DependencyTree]
                     ) -> list[DependencyTree]:
        """Greedy-decode sentences into predicted trees, in input order.

        Sentences are decoded longest first, up to DECODE_CHUNK of them in
        lockstep, so finished ones leave the end of the active set.
        """
        order = sorted(range(len(sents)), key=lambda k: -len(sents[k].tokens))
        trees: list[DependencyTree] = [None] * len(sents)
        worker = ad.worker(self.store["decoder.lstm.W_hh"].data.size, ad.WORKER_MIN_WHH)
        for start in range(0, len(order), DECODE_CHUNK):
            chunk = order[start:start + DECODE_CHUNK]
            batch = [sents[k] for k in chunk]
            scorer = LockstepScorer(self, batch, worker)
            decoded = dec.decode_greedy([len(s.tokens) for s in batch],
                                        scorer.arc_scores, scorer.label_scores)
            for k, sent, (heads, label_ids) in zip(chunk, batch, decoded):
                labels = [self.vocabs["label"].symbol(i) for i in label_ids]
                trees[k] = make_tree(sent.tokens, heads, labels, allow_multiple_roots=True)
        return trees


class LockstepScorer:
    """Arc and label scores for a batch of sentences greedy-decoded in
    lockstep, longest first (the scorers of :func:`decoder.decode_greedy`).

    The whole batch is encoded by one :func:`encoder.encode_batch` call,
    padded to (B, N+1, .), and so are the arc and label encoder-MLP rows.
    Every real encoder state goes through the decoder LSTM's input weights
    up front (unpadded: sentence b's position p is row starts[b] + p), so a
    step gathers one projected row per unfinished sentence and adds only the
    recurrent product of their leading (k, d) block, a view. Parameters are
    read as constants: nothing is recorded for differentiation.

    A sentence of n tokens ends after exactly 2n+1 steps, so the scorer
    knows every step's k in advance and refuses a call with another count.
    Step t+1's recurrent product reads only step t's hidden state, not its
    argmax. So with a ``worker`` (an executor), each :meth:`arc_scores` call
    hands the next step's product to it as soon as the new hidden state
    exists, and the caller's scoring of the current step (arc scores,
    legality, argmax, labels) runs meanwhile. The product is plain numpy,
    with the same operands, shapes and addition order as without a worker,
    so every score keeps its bits.
    """

    def __init__(self, parser: Parser, sents: Sequence[Sentence | DependencyTree],
                 worker: Executor | None = None):
        cfg = parser.config
        self.store = store = parser.store.constants()
        padded = enc.encode_batch(sents, parser.vocabs, store, cfg)
        self.arc_enc = _mlp(store, "biaffine.arc.enc", padded).data
        self.label_enc = _mlp(store, "biaffine.label.enc", padded).data
        sizes = np.array([len(sent.tokens) + 1 for sent in sents])
        self.starts = np.cumsum(sizes) - sizes
        self.ends = 2 * sizes - 1                       # each sentence's 2n+1 steps
        real = np.arange(padded.shape[1]) < sizes[:, None]
        self.x_proj = padded.data[real] @ store["decoder.lstm.W_ih"].data.T
        self.x_proj += store["decoder.lstm.b"].data
        self.w_hh_t = store["decoder.lstm.W_hh"].data.T
        self.hidden = np.zeros((len(sents), cfg.decoder_dim))
        self.cell = np.zeros_like(self.hidden)
        self.worker = worker
        self.steps = 0
        self.unfinished = len(sents)
        self.recurrent: Future | None = None    # the worker's product for the next step

    def arc_scores(self, tops: np.ndarray) -> np.ndarray:
        """Advance the decoders of the first k = len(tops) sentences by one
        step, fed the encoder states of their stack tops; return their raw
        (k, N+1) arc scores. k must be the count of unfinished sentences."""
        store, k = self.store, len(tops)
        if k != self.unfinished:
            raise ValueError(f"arc_scores got {k} stack tops at step {self.steps}, "
                             f"but {self.unfinished} sentences are unfinished")
        if self.recurrent is None:
            recurrent = self.hidden[:k] @ self.w_hh_t
        else:
            recurrent, self.recurrent = self.recurrent.result(), None
        z = self.x_proj[self.starts[:k] + tops] + recurrent
        _, self.cell[:k], _, self.hidden[:k] = ad.lstm_gates(z, self.cell[:k])
        self.steps += 1
        self.unfinished = np.count_nonzero(self.ends > self.steps)
        if self.worker is not None and self.unfinished:
            self.recurrent = ad.submit(self.worker, np.matmul, self.hidden[:self.unfinished],
                                       self.w_hh_t)
        # The training scorer, with each sentence's decoder row as a path of one step.
        arc_dec = _mlp(store, "biaffine.arc.dec", Tensor(self.hidden[:k, None]))
        return _arc_scores(store, arc_dec, Tensor(self.arc_enc[:k])).data[:, 0]

    def label_scores(self, rows: np.ndarray, children: np.ndarray) -> np.ndarray:
        """(k, labels) scores of attaching ``children`` in the given
        sentences, from the decoder output of the current step."""
        label_dec = _mlp(self.store, "biaffine.label.dec", Tensor(self.hidden[rows]))
        return _label_scores(self.store, label_dec,
                             Tensor(self.label_enc[rows, children])).data
