"""Training loop: bucketed batching, Adam, LR decay, early stopping."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import AdamState, ParameterStore, Rng, Tensor, adam_step, clip_gradients
from .checkpoint import Checkpoint, as_stored
from .config import TrainConfig
from .metrics import attachment_scores
from .model import Parser
from .treebank import (DependencyTree, TreebankError, build_vocabulary,
                       load_pretrained_embeddings)


class TrainAbort(RuntimeError):
    """Raised when optimization produces a non-finite loss."""


def compute_loss(parser: Parser, batch: Sequence[DependencyTree],
                 rng: Rng | None = None) -> Tensor:
    """Mean over a batch of one length (a :func:`make_batches` batch) of
    per-sentence (length-normalized) losses: one :meth:`Parser.batch_loss`
    call. With ``rng`` (training), sentence i draws its dropout masks from
    ``rng.split(f"s{i}")``; without it (evaluation) nothing is dropped.
    """
    if not batch:
        raise ValueError("empty batch")
    rngs = None if rng is None else [rng.split(f"s{i}") for i in range(len(batch))]
    return parser.batch_loss(batch, rngs)


def make_batches(trees: Sequence[DependencyTree], batch_size: int,
                 rng: Rng) -> list[list[DependencyTree]]:
    """Shuffle, bucket by exact sentence length, chunk, shuffle the chunks.

    Bucketing keeps every batch single-length (no padding machinery needed)
    and, on small corpora, yields several optimizer steps per epoch.
    """
    order = rng.permutation(len(trees))
    buckets: dict[int, list[DependencyTree]] = {}
    for idx in order:
        tree = trees[int(idx)]
        buckets.setdefault(len(tree), []).append(tree)
    batches: list[list[DependencyTree]] = []
    for length in sorted(buckets):
        group = buckets[length]
        batches.extend(group[i:i + batch_size] for i in range(0, len(group), batch_size))
    return [batches[int(i)] for i in rng.permutation(len(batches))]


def evaluate(parser: Parser, trees: Sequence[DependencyTree]) -> tuple[float, float]:
    """(UAS, LAS) of greedy parses against gold; dropout is off."""
    predicted = parser.parse_corpus(trees)
    return attachment_scores(list(trees), predicted)


def _checked_eval(parser: Parser, trees, where: str) -> tuple[float, float]:
    try:
        return evaluate(parser, trees)
    except (ValueError, FloatingPointError) as exc:
        raise TrainAbort(f"numeric failure during {where}: {exc}; "
                         + _diagnostics(parser.store)) from exc


def _diagnostics(store: ParameterStore) -> str:
    norms: dict[str, float] = {}
    for name, tensor in store.items():
        group = name.split(".", 1)[0]
        norms[group] = norms.get(group, 0.0) + float((tensor.data ** 2).sum())
    parts = [f"{g}={v ** 0.5:.3e}" for g, v in sorted(norms.items())]
    return "param norms: " + ", ".join(parts)


def train(config: TrainConfig, train_trees: Sequence[DependencyTree],
          dev_trees: Sequence[DependencyTree],
          initial: Checkpoint | None = None,
          word_embedding_path: str | None = None,
          log=None) -> Checkpoint:
    """Optimize on ``train_trees``, keep the best dev-LAS parameters.

    Fresh runs build vocabularies from the training corpus; with ``initial``
    given (fine-tuning), its vocabularies and parameter values are the
    starting point and the optimizer state starts fresh; ``config`` must
    then keep the checkpoint's architecture fields (``ArchitectureMismatch``
    otherwise). Under ``single_root`` every training tree must have one
    root child (``TreebankError`` otherwise); greedy decoding may still
    attach several tokens to ROOT. Identical seeds, config, and corpora
    reproduce the returned checkpoint bitwise. Its parameters are rounded
    the way a checkpoint file stores them, so saving and loading it
    changes nothing.
    """
    if not train_trees or not dev_trees:
        raise ValueError("training and dev corpora must be nonempty")
    if config.single_root:
        for index, tree in enumerate(train_trees):
            roots = [i for i in range(1, len(tree) + 1) if tree.heads[i] == 0]
            if len(roots) > 1:
                raise TreebankError(f"training tree {index} has root children {roots}, "
                                    "but single_root allows one")
    if initial is None:
        vocabs = build_vocabulary(train_trees, config.min_word_count)
        parser = Parser.build(config, vocabs)
        if word_embedding_path is not None:
            table = load_pretrained_embeddings(word_embedding_path, vocabs["word"],
                                               config.d_w, Rng(config.seed))
            parser.store["embeddings.word"].data = table
        origin = f"trained from scratch: {len(train_trees)} train / {len(dev_trees)} dev"
    else:
        config.check_architecture(initial.config)
        vocabs = initial.vocabs
        store = ParameterStore(initial.params.rng_seed)
        for name, tensor in initial.params.items():
            store.put(name, tensor.data)
        parser = Parser(config, vocabs, store)
        origin = f"fine-tuned: {len(train_trees)} train / {len(dev_trees)} dev"

    rng = Rng(config.seed)
    opt = AdamState(beta1=config.beta1, beta2=config.beta2, epsilon=config.adam_epsilon)
    lr = config.learning_rate
    best_values = parser.store.copy_values()
    _, best_las = _checked_eval(parser, dev_trees, "initial evaluation")
    best_epoch = 0
    epochs_since_best = 0
    epochs_since_decay = 0
    history: list[float] = []

    for epoch in range(1, config.max_epochs + 1):
        epoch_rng = rng.split(f"epoch{epoch}")
        epoch_losses: list[float] = []
        for b, batch in enumerate(make_batches(train_trees, config.batch_size,
                                               epoch_rng.split("batches"))):
            parser.store.zero_grads()
            try:
                loss = compute_loss(parser, batch, epoch_rng.split(f"drop{b}"))
            except (ValueError, FloatingPointError) as exc:
                raise TrainAbort(
                    f"numeric failure at epoch {epoch}, batch {b}: {exc}; "
                    + _diagnostics(parser.store)
                ) from exc
            if not np.isfinite(loss.data):
                raise TrainAbort(
                    f"non-finite loss at epoch {epoch}, batch {b}; "
                    + _diagnostics(parser.store)
                )
            loss.backward()
            grads = parser.store.gradients()
            clip_gradients(grads, config.clip_norm)
            adam_step(parser.store, grads, opt, lr)
            epoch_losses.append(float(loss.data))
        history.append(sum(epoch_losses) / len(epoch_losses))
        _, dev_las = _checked_eval(parser, dev_trees, f"epoch {epoch} evaluation")
        improved = dev_las > best_las
        if improved:
            best_las = dev_las
            best_epoch = epoch
            best_values = parser.store.copy_values()
            epochs_since_best = 0
            epochs_since_decay = 0
        else:
            epochs_since_best += 1
            epochs_since_decay += 1
            # Plateau schedule: one decay per decay_patience dry epochs.
            if epochs_since_decay >= config.decay_patience:
                lr *= config.decay_rate
                epochs_since_decay = 0
        if log is not None:
            log(f"epoch {epoch}: loss {history[-1]:.4f}, dev LAS {dev_las:.2f}"
                + (" *" if improved else f" (lr {lr:.2e})"))
        if epochs_since_best >= config.patience:
            break

    final = ParameterStore(parser.store.rng_seed)
    for name, values in best_values.items():
        final.put(name, as_stored(values))
    provenance = (initial.provenance if initial is not None else []) + [
        f"{origin}, seed {config.seed}",
        f"best epoch {best_epoch}, dev LAS {best_las:.4f}",
    ]
    return Checkpoint(params=final, vocabs=vocabs, config=config, provenance=provenance,
                      history=history)
