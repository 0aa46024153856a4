"""Cross-domain transfer by parameter transplant.

The recipe: keep the pre-trained representation machinery (embeddings,
attention + BiLSTM encoder, decoder LSTM) bit-for-bit, re-initialize the
arc/label scoring head, extend the vocabularies with target-domain symbols,
then fine-tune the whole network on target data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .autodiff import ParameterStore
from .checkpoint import Checkpoint
from .config import TrainConfig
from .model import create_parameters
from .trainer import train
from .treebank import DependencyTree, Vocabulary, count_symbols


class SurgeryError(ValueError):
    pass


@dataclass(frozen=True)
class SurgeryPlan:
    """Which parameter-name prefixes survive the transplant.

    Every checkpoint tensor must match exactly one prefix across the two
    sets; embeddings under a retain prefix still receive fresh rows for
    newly observed vocabulary symbols.
    """

    retain_prefixes: frozenset[str] = frozenset({"embeddings.", "encoder.", "decoder."})
    reinit_prefixes: frozenset[str] = frozenset({"biaffine."})

    def __post_init__(self) -> None:
        overlap = self.retain_prefixes & self.reinit_prefixes
        if overlap:
            raise SurgeryError(f"prefixes in both retain and reinit sets: {sorted(overlap)}")

    def action(self, name: str) -> str:
        """'retain' or 'reinit' for a parameter name; error if uncovered."""
        hits = [(p, "retain") for p in self.retain_prefixes if name.startswith(p)]
        hits += [(p, "reinit") for p in self.reinit_prefixes if name.startswith(p)]
        if len(hits) != 1:
            raise SurgeryError(
                f"incomplete surgery plan: parameter {name!r} matched "
                f"{len(hits)} prefixes"
            )
        return hits[0][1]

    def validate(self, names: Sequence[str]) -> None:
        for name in names:
            self.action(name)


def extend_vocabs(vocabs: dict[str, Vocabulary],
                  trees: Sequence[DependencyTree]) -> dict[str, Vocabulary]:
    """Append every target-corpus symbol unseen by the source vocabularies.

    New symbols keep the corpus frequency order (ties lexicographic); all of
    them get ids — fine-tuning sees the full target inventory, rare words
    included, because the extension is what creates their embedding rows.
    """
    counts = count_symbols(trees)
    return {key: vocab.extended_with(list(counts[key])) for key, vocab in vocabs.items()}


_EMBEDDING_VOCAB = {"embeddings.word": "word", "embeddings.char": "char",
                    "embeddings.pos": "pos"}


def transplant(source: Checkpoint, target_trees: Sequence[DependencyTree],
               plan: SurgeryPlan, seed: int) -> Checkpoint:
    """Build a target-domain checkpoint around the source's sub-networks.

    Retained tensors are copied bitwise (embedding matrices keep their old
    rows and gain freshly initialized ones for new symbols); reinit tensors
    are drawn anew from ``seed``. The optimizer state is not carried over.
    """
    if not target_trees:
        raise SurgeryError("target corpus is empty")
    plan.validate(source.params.names())
    new_vocabs = extend_vocabs(source.vocabs, target_trees)
    # A fresh store gives correct shapes for the extended vocabularies and
    # seed-determined values everywhere; retained values then overwrite it.
    store = ParameterStore(seed)
    create_parameters(store, source.config, new_vocabs)
    plan.validate(store.names())
    for name, tensor in store.items():
        if plan.action(name) != "retain":
            continue
        old = source.params[name].data
        if name in _EMBEDDING_VOCAB:
            tensor.data[: old.shape[0]] = old
        else:
            if tensor.data.shape != old.shape:
                raise SurgeryError(
                    f"retained parameter {name} changed shape: "
                    f"{old.shape} -> {tensor.data.shape}"
                )
            tensor.data[...] = old
    grown = {key: len(new_vocabs[key]) - len(source.vocabs[key]) for key in new_vocabs}
    note = ("surgery: retain " + ",".join(sorted(plan.retain_prefixes))
            + "; reinit " + ",".join(sorted(plan.reinit_prefixes))
            + f"; seed {seed}; new symbols "
            + " ".join(f"{k}+{v}" for k, v in sorted(grown.items())))
    return Checkpoint(params=store, vocabs=new_vocabs, config=source.config,
                      provenance=source.provenance + [note])


def finetune(transplanted: Checkpoint, target_train: Sequence[DependencyTree],
             target_dev: Sequence[DependencyTree], config: TrainConfig,
             log=None) -> Checkpoint:
    """Continue training the whole transplanted network on target data."""
    return train(config, target_train, target_dev, initial=transplanted, log=log)
