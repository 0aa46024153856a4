"""Release gate: eight checks that qualify a build, one verdict line each.

Run alone with `pytest tests/test_acceptance.py -v`; the verdict lines
bypass capture, so they also show up in plain runs. The slow checks (overfit
capacity, transfer benefit) dominate the runtime — several minutes total.
"""

import itertools
import time

import numpy as np
import pytest

from stackptr import autodiff as ad
from stackptr import encoder as enc
from stackptr.autodiff import Rng, Tensor, grad_check
from stackptr.checkpoint import save_checkpoint
from stackptr.config import TrainConfig
from stackptr.decoder import gold_path, gold_plan
from stackptr.metrics import average_domains
from stackptr.model import LockstepScorer, Parser
from stackptr.trainer import evaluate, train
from stackptr.transfer import SurgeryPlan, finetune, transplant
from stackptr.treebank import (
    DependencyTree,
    Token,
    TreebankError,
    parse_conll,
    validate_tree,
    write_conll,
)

from reference_loss import decode_one, replay
from synthetic import SOURCE_POOLS, TARGET_POOLS, corpus, vocabulary_overlap


def _verdict(capsys, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"{name}{tail}"


def test_1_domain_average_arithmetic(capsys):
    full = average_domains([62.6, 76.9, 76.3])
    base = average_domains([61.1, 74.8, 74.6])
    _verdict(capsys, "domain-average arithmetic",
             full == 71.9 and base == 70.2,
             f"got {full} and {base}, want 71.9 and 70.2")


def test_2_end_to_end_gradient_check(capsys, tiny_config, toy_vocabs, toy_trees):
    tree = next(t for t in toy_trees if len(t) == 3)
    parser = Parser.build(tiny_config, toy_vocabs)
    started = time.monotonic()
    errors = grad_check(lambda store: parser.batch_loss([tree]),
                        parser.store, epsilon=1e-5)
    elapsed = time.monotonic() - started
    groups = {name.split(".", 1)[0] for name in errors}
    worst = max(errors.values())
    ok = (worst < 1e-3
          and groups == {"embeddings", "encoder", "decoder", "biaffine"}
          and elapsed < 60)
    _verdict(capsys, "end-to-end gradient check", ok,
             f"worst rel err {worst:.2e} over {len(errors)} tensors, {elapsed:.1f}s")


def test_3_transition_oracle_exhaustive(capsys):
    started = time.monotonic()
    checked = 0
    ok = True
    for n in range(1, 6):
        for tail in itertools.product(range(n + 1), repeat=n):
            heads = (-1,) + tail
            try:
                validate_tree(heads, allow_multiple_roots=True)
            except TreebankError:
                continue
            checked += 1
            tokens = tuple(Token(f"w{i}", "NN") for i in range(1, n + 1))
            labels = tuple(f"L{i % 3}" for i in range(n))
            tree = DependencyTree(tokens, heads, labels)
            path = gold_path(tree)
            final = replay(n, path)
            ok &= final.heads == heads and final.step_count == 2 * n + 1

            arc_iter = iter(path)

            def scorer(top, n=n):
                scores = np.zeros(n + 1)
                scores[next(arc_iter)] = 1.0
                return Tensor(scores)

            def labeler(child):
                scores = np.zeros(3)
                scores[(child - 1) % 3] = 1.0
                return Tensor(scores)

            got_heads, got_labels = decode_one(n, scorer, labeler)
            ok &= tuple(got_heads) == heads
            ok &= all(got_labels[i] == i % 3 for i in range(n))
            if not ok:
                break
    elapsed = time.monotonic() - started
    ok = ok and checked == 1441 and elapsed < 60
    _verdict(capsys, "exhaustive transition oracle", ok,
             f"{checked} trees (want 1441), {elapsed:.1f}s")


def test_4_normalization_invariants(capsys, tiny_config, toy_trees):
    from stackptr.treebank import build_vocabulary

    vocabs = build_vocabulary(toy_trees, min_word_count=1)
    parsers = [Parser.build(tiny_config.replaced(seed=s), vocabs)
               for s in range(20)]
    worst_row = 0.0
    passes = 0
    for parser, tree in zip(itertools.cycle(parsers), toy_trees * 20):
        if passes == 1000:
            break
        passes += 1
        rows = enc.embed_tokens([tree], vocabs, parser.store, tiny_config)
        probs: list[Tensor] = []
        enc.multi_head_self_attention(rows, parser.store, tiny_config,
                                      collect_probs=probs)
        for p in probs:
            worst_row = max(worst_row, float(abs(p.data.sum(axis=-1) - 1.0).max()))
        scorer = LockstepScorer(parser, [tree])
        batch = np.array([0])
        plan = gold_plan([tree])
        for top, target, mask in zip(plan.tops[0], plan.targets[0], plan.legal[0]):
            scores = Tensor(scorer.arc_scores(batch, np.array([top]))[0])
            pointer = ad.softmax_rows(ad.mask_fill(scores, mask)).data
            worst_row = max(worst_row, abs(float(pointer.sum()) - 1.0))
            if target != top:
                label_scores = scorer.label_scores(batch, np.array([target]))
                label = ad.softmax_rows(Tensor(label_scores[0])).data
                worst_row = max(worst_row, abs(float(label.sum()) - 1.0))

    # Permutation covariance of the attention block itself.
    rng = Rng(7).split("perm")
    worst_cov = 0.0
    for _ in range(50):
        x = rng.random((6, tiny_config.d_model)) * 2 - 1
        perm = rng.permutation(6)
        direct = enc.multi_head_self_attention(
            Tensor(x[perm][None]), parsers[0].store, tiny_config).data[0]
        permuted = enc.multi_head_self_attention(
            Tensor(x[None]), parsers[0].store, tiny_config).data[0][perm]
        worst_cov = max(worst_cov, float(np.abs(direct - permuted).max()))

    ok = passes == 1000 and worst_row <= 1e-6 and worst_cov <= 1e-8
    _verdict(capsys, "normalization invariants", ok,
             f"{passes} passes, worst row dev {worst_row:.1e}, "
             f"worst covariance dev {worst_cov:.1e}")


OVERFIT = TrainConfig(
    d_w=32, d_h=32,                       # scaled-down dims
    char_dim=50, pos_dim=50, num_filters=50, r=4,
    learning_rate=0.001, decay_rate=0.75, decay_patience=10, batch_size=64,
    p_in=0.5, p_rnn=0.5, p_out=0.5,
    arc_mlp_dim=64, label_mlp_dim=32,
    max_epochs=200, patience=50, min_word_count=1, seed=7,
)


def test_5_overfit_capacity(capsys, toy_trees):
    started = time.monotonic()
    ckpt = train(OVERFIT, toy_trees, toy_trees)
    elapsed = time.monotonic() - started
    parser = Parser(ckpt.config, ckpt.vocabs, ckpt.params)
    _, las = evaluate(parser, toy_trees)
    ok = las >= 99.0 and len(ckpt.history) <= 200 and elapsed < 600
    _verdict(capsys, "overfit capacity", ok,
             f"train LAS {las:.1f} after {len(ckpt.history)} epochs, {elapsed:.0f}s")


TRANSFER = TrainConfig(
    d_w=32, char_dim=16, pos_dim=16, num_filters=16, r=4, d_h=32,
    arc_mlp_dim=32, label_mlp_dim=16,
    learning_rate=0.001, decay_rate=0.75, decay_patience=10, batch_size=32,
    p_in=0.2, p_rnn=0.2, p_out=0.2,
    max_epochs=60, patience=20, min_word_count=1, seed=11,
)


@pytest.fixture(scope="module")
def source_checkpoint():
    trees = corpus(seed=101, size=150, pools=SOURCE_POOLS)
    return train(TRANSFER.replaced(max_epochs=100, patience=25),
                 trees[:120], trees[120:])


def test_6_surgery_contract(capsys, source_checkpoint):
    target = corpus(seed=202, size=70, pools=TARGET_POOLS)
    plan = SurgeryPlan()
    grafted = transplant(source_checkpoint, target, plan, seed=99)

    retained_ok = True
    for name, tensor in source_checkpoint.params.items():
        if plan.action(name) != "retain":
            continue
        new = grafted.params[name].data
        old = tensor.data
        if name.startswith("embeddings."):
            retained_ok &= bool(np.array_equal(new[: old.shape[0]], old))
        else:
            retained_ok &= new.shape == old.shape and bool(np.array_equal(new, old))

    head_names = [n for n in source_checkpoint.params.names()
                  if n.startswith("biaffine.")]
    reinit_ok = all(
        grafted.params[n].data.shape != source_checkpoint.params[n].data.shape
        or not np.array_equal(grafted.params[n].data,
                              source_checkpoint.params[n].data)
        for n in head_names
    )

    sent = corpus(seed=101, size=1, pools=SOURCE_POOLS)[0]
    before = enc.encode_batch([sent], source_checkpoint.vocabs,
                              source_checkpoint.params, TRANSFER).data
    after = enc.encode_batch([sent], grafted.vocabs, grafted.params, TRANSFER).data
    states_ok = bool(np.array_equal(before, after))

    _verdict(capsys, "surgery contract",
             retained_ok and reinit_ok and states_ok,
             f"retained bitwise: {retained_ok}, head reinit: {reinit_ok}, "
             f"encoder states bitwise: {states_ok}")


def test_7_transfer_benefit(capsys, source_checkpoint):
    started = time.monotonic()
    overlap = vocabulary_overlap(SOURCE_POOLS, TARGET_POOLS)
    target = corpus(seed=202, size=70, pools=TARGET_POOLS)
    t_train, t_dev = target[:30], target[30:]

    wins = []
    for seed in range(1, 6):
        config = TRANSFER.replaced(seed=seed)
        scratch = train(config, t_train, t_dev)
        _, scratch_las = evaluate(
            Parser(scratch.config, scratch.vocabs, scratch.params), t_dev)
        grafted = transplant(source_checkpoint, t_train, SurgeryPlan(), seed=seed)
        tuned = finetune(grafted, t_train, t_dev, config)
        _, tuned_las = evaluate(
            Parser(tuned.config, tuned.vocabs, tuned.params), t_dev)
        wins.append(tuned_las >= scratch_las)
    elapsed = time.monotonic() - started
    ok = sum(wins) >= 4 and abs(overlap - 0.6) < 1e-9 and elapsed < 1800
    _verdict(capsys, "transfer benefit", ok,
             f"fine-tune >= scratch in {sum(wins)}/5 seeds, "
             f"vocabulary overlap {overlap:.0%}, {elapsed:.0f}s")


def test_8_determinism_and_round_trip(capsys, tiny_config, toy_trees, tmp_path):
    quick = tiny_config.replaced(max_epochs=2, batch_size=4)
    blobs = []
    for tag in ("a", "b"):
        ckpt = train(quick, toy_trees[:10], toy_trees[10:16])
        path = tmp_path / f"{tag}.ckpt"
        save_checkpoint(ckpt, path)
        blobs.append(path.read_bytes())
    deterministic = blobs[0] == blobs[1]

    rng = Rng(20260815).split("roundtrip")
    pool = "abc猫狗#_xyz"
    labels = ("root", "nsubj", "obj", "x:y")
    trees = []
    while len(trees) < 1000:
        n = 1 + int(rng.integers(0, 8))
        heads = (-1,) + tuple(int(rng.integers(0, n + 1)) for _ in range(n))
        try:
            validate_tree(heads)
        except TreebankError:
            continue
        tokens = tuple(
            Token("".join(pool[int(rng.integers(0, len(pool)))]
                          for _ in range(1 + int(rng.integers(0, 3)))), "NN")
            for _ in range(n))
        tree_labels = tuple(labels[int(rng.integers(0, len(labels)))]
                            for _ in range(n))
        trees.append(DependencyTree(tokens, heads, tree_labels))

    first = tmp_path / "rt1.conllx"
    second = tmp_path / "rt2.conllx"
    write_conll(trees, first)
    reread = parse_conll(first)
    write_conll(reread, second)
    round_trip = reread == trees and first.read_bytes() == second.read_bytes()

    _verdict(capsys, "determinism and round trip",
             deterministic and round_trip,
             f"checkpoints identical: {deterministic}, "
             f"1000-tree round trip: {round_trip}")
