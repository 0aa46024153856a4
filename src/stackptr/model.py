"""The assembled parser: encoder + pointer decoder + biaffine scorers.

One :class:`Parser` owns a parameter store, the vocabularies, and a config.
The decoder LSTM is fed the encoder state of the current stack top, and its
output goes through small ELU layers before the biaffine arc/label scorers.

`sentence_loss` gives the teacher-forced training objective for one tree.
The gold path fixes every step's stack top in advance, so the decoder runs
as one sequence LSTM over the 2n+1 gathered top states, and the arc and
label scores of all steps are single matrix products. `parse` runs greedy
decoding over a bare sentence, one step at a time, through the scoring
closures of `_scorers`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoder as enc
from .autodiff import ParameterStore, Rng, Tensor
from .config import TrainConfig
from .treebank import DependencyTree, Sentence, Vocabulary, make_tree


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


def _mlp(store: ParameterStore, prefix: str, x: Tensor) -> Tensor:
    """One ELU layer; works on a matrix of rows or a single vector."""
    w = store[f"{prefix}.W"]
    b = store[f"{prefix}.b"]
    return ad.elu(ad.add(ad.matmul(x, ad.transpose(w)), b))


def _arc_scores(store: ParameterStore, dec_rows: Tensor, arc_enc: Tensor) -> Tensor:
    """Raw arc scores over all positions: (n+1,) per decoder vector, or
    (T, n+1) for T decoder rows."""
    return dec.biaffine_score(dec_rows, arc_enc, store["biaffine.arc.U"],
                              store["biaffine.arc.w_dec"], store["biaffine.arc.w_enc"],
                              store["biaffine.arc.b"])


def _label_scores(store: ParameterStore, dec_rows: Tensor, enc_rows: Tensor) -> Tensor:
    """Label scores of (decoder, child encoder) pairs: (L,) for one vector
    pair, (k, L) for k paired rows."""
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

    @property
    def label_count(self) -> int:
        return len(self.vocabs["label"])

    # -- training and inference entry points ---------------------------------

    def sentence_loss(self, tree: DependencyTree, training: bool = False,
                      rng: Rng | None = None) -> Tensor:
        """Length-normalized negative log-likelihood of the gold path."""
        cfg = self.config
        store = self.store
        states = enc.encode_sentence(tree, self.vocabs, store, cfg,
                                     training=training, rng=rng)
        plan = dec.gold_plan(tree, single_root=cfg.single_root,
                             child_order=cfg.child_order)
        drop_rng = rng.split("p_out") if rng is not None else None
        arc_enc = ad.dropout(_mlp(store, "biaffine.arc.enc", states),
                             cfg.p_out, training, drop_rng)
        label_enc = ad.dropout(_mlp(store, "biaffine.label.enc", states),
                               cfg.p_out, training, drop_rng)
        hid_mask = None
        if training and cfg.p_rnn > 0.0:
            hid_mask = ad.dropout_mask(cfg.decoder_dim, cfg.p_rnn, rng.split("decoder.hid"))
        hidden = ad.lstm_sequence(ad.gather_rows(states, plan.tops),
                                  store["decoder.lstm.W_ih"], store["decoder.lstm.W_hh"],
                                  store["decoder.lstm.b"], hid_mask)
        arc_rows = np.flatnonzero(plan.arc_steps)
        label_dec = _mlp(store, "biaffine.label.dec", ad.gather_rows(hidden, arc_rows))
        arc_dec = _mlp(store, "biaffine.arc.dec", hidden)
        if training and cfg.p_out > 0.0:
            # Every step draws its label-row mask, then its arc-row mask, from
            # the p_out stream: one (2n+1, label+arc) draw split by columns.
            factors = ad.dropout_mask((len(plan.tops), cfg.label_mlp_dim + cfg.arc_mlp_dim),
                                      cfg.p_out, drop_rng)
            label_dec = ad.mul(label_dec, Tensor(factors[arc_rows, :cfg.label_mlp_dim]))
            arc_dec = ad.mul(arc_dec, Tensor(factors[:, cfg.label_mlp_dim:]))
        label_scores = _label_scores(store, label_dec,
                                     ad.gather_rows(label_enc, plan.targets[arc_rows]))
        label_ids = [self.vocabs["label"].index(lbl) for lbl in tree.labels]
        ll = dec.path_log_likelihood(plan, _arc_scores(store, arc_dec, arc_enc),
                                     label_scores, label_ids, self.label_count)
        return ad.scale(ad.neg(ll), 1.0 / len(tree))

    def _scorers(self, encoder_states: Tensor, training: bool, rng: Rng | None):
        """Build (score_fn, label_score_fn) sharing one decoder LSTM run, for
        greedy decoding. Dropout has no place here: training goes through
        :meth:`sentence_loss`, so ``training`` must be False and ``rng`` is
        unused.

        Each score_fn call advances the LSTM with the encoder state of the
        current stack top; label_score_fn for the same step reuses that
        decoder output, so it must be called before the next score_fn call.
        """
        if training:
            raise ValueError("step-wise scorers are for decoding; "
                             "training uses sentence_loss")
        cfg = self.config
        store = self.store
        arc_enc = _mlp(store, "biaffine.arc.enc", encoder_states)
        label_enc = _mlp(store, "biaffine.label.enc", encoder_states)
        hidden = Tensor(np.zeros(cfg.decoder_dim))
        cell = Tensor(np.zeros(cfg.decoder_dim))

        def score_fn(state: dec.DecoderState) -> Tensor:
            nonlocal hidden, cell
            hidden, cell = ad.lstm_cell(ad.row(encoder_states, state.top), hidden, cell,
                                        store["decoder.lstm.W_ih"],
                                        store["decoder.lstm.W_hh"],
                                        store["decoder.lstm.b"])
            return _arc_scores(store, _mlp(store, "biaffine.arc.dec", hidden), arc_enc)

        def label_score_fn(state: dec.DecoderState, child: int) -> Tensor:
            return _label_scores(store, _mlp(store, "biaffine.label.dec", hidden),
                                 ad.row(label_enc, child))

        return score_fn, label_score_fn

    def parse(self, sent: Sentence | DependencyTree) -> DependencyTree:
        """Greedy-decode one sentence into a predicted tree."""
        states = enc.encode_sentence(sent, self.vocabs, self.store, self.config,
                                     training=False, rng=None)
        score_fn, label_score_fn = self._scorers(states, training=False, rng=None)
        heads, label_ids = dec.decode_greedy(len(sent.tokens), score_fn,
                                             label_score_fn,
                                             single_root=self.config.single_root)
        labels = [self.vocabs["label"].symbol(i) for i in label_ids]
        return make_tree(sent.tokens, heads, labels, allow_multiple_roots=True)

    def parse_corpus(self, sents: Sequence[Sentence | DependencyTree]
                     ) -> list[DependencyTree]:
        return [self.parse(s) for s in sents]
