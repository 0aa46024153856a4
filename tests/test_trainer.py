"""Training loop: loss bookkeeping, batching, determinism, abort paths."""

import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from stackptr import trainer
from stackptr.autodiff import Rng
from stackptr.checkpoint import Checkpoint, as_stored, load_checkpoint, save_checkpoint
from stackptr.config import ArchitectureMismatch, TrainConfig
from stackptr.model import Parser
from stackptr.trainer import TrainAbort, compute_loss, evaluate, make_batches, train
from stackptr.treebank import (
    DependencyTree,
    Token,
    TreebankError,
    build_vocabulary,
    parse_conll,
)

from synthetic import corpus

# The release gate's transfer dims.
GATE = TrainConfig(d_w=32, char_dim=16, pos_dim=16, num_filters=16, r=4, d_h=32,
                   arc_mlp_dim=32, label_mlp_dim=16, p_in=0.2, p_rnn=0.2, p_out=0.2,
                   min_word_count=1, seed=11)


def _zero_biaffine_output(parser):
    # Zeroing the final biaffine tensors makes every arc/label score 0,
    # i.e. uniform over the legal targets, whatever the encoder does.
    for name in ("U", "w_dec", "w_enc", "b"):
        parser.store[f"biaffine.arc.{name}"].data[...] = 0.0
        parser.store[f"biaffine.label.{name}"].data[...] = 0.0


class TestComputeLoss:
    def test_uniform_scorer_single_token(self, tiny_config, toy_vocabs):
        parser = Parser.build(tiny_config, toy_vocabs)
        _zero_biaffine_output(parser)
        tree = DependencyTree((Token("猫", "NN"),), (-1, 0), ("root",))
        loss = compute_loss(parser, [tree])
        want = math.log(2) + math.log(len(toy_vocabs["label"]))
        assert loss.data == pytest.approx(want, abs=1e-12)

    def test_repeating_a_sentence_keeps_the_mean(self, tiny_config, toy_vocabs, toy_trees):
        parser = Parser.build(tiny_config, toy_vocabs)
        tree = toy_trees[0]
        one = compute_loss(parser, [tree]).data
        three = compute_loss(parser, [tree] * 3).data
        assert three == pytest.approx(one, abs=1e-12)

    def test_loss_nonnegative(self, tiny_config, toy_vocabs, toy_trees):
        parser = Parser.build(tiny_config, toy_vocabs)
        for batch in make_batches(toy_trees, 8, Rng(2).split("b")):
            assert compute_loss(parser, batch).data >= 0.0

    def test_nan_decoder_weight_is_a_numeric_error(self, tiny_config, toy_vocabs,
                                                   toy_trees):
        # The whole-path loss checks every row of its score matrices the way
        # the per-step softmax checked each vector.
        parser = Parser.build(tiny_config, toy_vocabs)
        parser.store["decoder.lstm.W_ih"].data[0, 0] = np.nan
        batch = max(make_batches(toy_trees, 8, Rng(2).split("b")), key=len)
        assert len(batch) > 1
        with pytest.raises(ValueError, match="finite or -inf"):
            compute_loss(parser, batch, Rng(1))

    def test_mixed_lengths_rejected_naming_them(self, tiny_config, toy_vocabs, toy_trees):
        # make_batches yields batches of one length; batch_loss refuses any
        # other, since every gold path of a batch must have 2n+1 steps.
        parser = Parser.build(tiny_config, toy_vocabs)
        by_length = sorted(toy_trees, key=len)
        short, long = by_length[0], by_length[-1]
        with pytest.raises(ValueError, match=rf"one length, got \[{len(short)}, {len(long)}\]"):
            compute_loss(parser, [long, short])

    def test_empty_batch_rejected(self, tiny_config, toy_vocabs):
        parser = Parser.build(tiny_config, toy_vocabs)
        with pytest.raises(ValueError, match="empty"):
            compute_loss(parser, [])


class TestMakeBatches:
    def test_partition_and_uniform_length(self, toy_trees):
        batches = make_batches(toy_trees, 8, Rng(3).split("b"))
        seen = [t for b in batches for t in b]
        assert sorted(map(id, seen)) == sorted(map(id, toy_trees))
        for batch in batches:
            assert len(batch) <= 8
            assert len({len(t) for t in batch}) == 1

    def test_deterministic_given_rng(self, toy_trees):
        a = make_batches(toy_trees, 8, Rng(3).split("b"))
        b = make_batches(toy_trees, 8, Rng(3).split("b"))
        assert [[id(t) for t in batch] for batch in a] == \
               [[id(t) for t in batch] for batch in b]

    def test_different_seeds_differ(self, toy_trees):
        a = make_batches(toy_trees, 8, Rng(3).split("b"))
        b = make_batches(toy_trees, 8, Rng(4).split("b"))
        assert [[id(t) for t in batch] for batch in a] != \
               [[id(t) for t in batch] for batch in b]


class TestTrain:
    @pytest.fixture
    def quick(self, tiny_config):
        return tiny_config.replaced(max_epochs=2, batch_size=4)

    def test_bitwise_determinism(self, quick, toy_trees, tmp_path):
        runs = []
        for tag in ("a", "b"):
            ckpt = train(quick, toy_trees[:10], toy_trees[10:16])
            path = tmp_path / f"{tag}.ckpt"
            save_checkpoint(ckpt, path)
            runs.append(path.read_bytes())
        assert runs[0] == runs[1]

    def test_returned_parameters_are_what_the_file_holds(self, quick, toy_trees, tmp_path):
        ckpt = train(quick, toy_trees[:6], toy_trees[:4])
        path = tmp_path / "r.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.params.names() == ckpt.params.names()
        for name, tensor in ckpt.params.items():
            assert loaded.params[name].data.tobytes() == tensor.data.tobytes(), name

    def test_loss_history_improves(self, tiny_config, toy_trees):
        config = tiny_config.replaced(max_epochs=5, batch_size=4,
                                      p_in=0.0, p_rnn=0.0, p_out=0.0)
        ckpt = train(config, toy_trees[:10], toy_trees[:10])
        assert len(ckpt.history) == 5
        assert ckpt.history[-1] < ckpt.history[0]

    def test_reserved_symbols_in_the_corpus(self, quick):
        trees = parse_conll(io.StringIO(
            "1\t<UNK>\t_\t<PAD>\t<PAD>\t_\t2\tnsubj\t_\t_\n"
            "2\t睡\t_\tVV\tVV\t_\t0\troot\t_\t_\n\n"))
        ckpt = train(quick.replaced(max_epochs=1), trees, trees)
        assert len(ckpt.history) == 1 and math.isfinite(ckpt.history[0])

    def test_parameter_namespaces(self, quick, toy_trees):
        ckpt = train(quick, toy_trees[:6], toy_trees[:4])
        prefixes = {name.split(".", 1)[0] for name in ckpt.params.names()}
        assert prefixes == {"embeddings", "encoder", "decoder", "biaffine"}

    def test_provenance_records_run(self, quick, toy_trees):
        ckpt = train(quick, toy_trees[:6], toy_trees[:4])
        assert any("6 train / 4 dev" in line for line in ckpt.provenance)
        assert any("best epoch" in line for line in ckpt.provenance)

    def test_zero_epochs_returns_initial_bitwise(self, quick, toy_trees):
        base = train(quick, toy_trees[:6], toy_trees[:4])
        resumed = train(quick.replaced(max_epochs=0), toy_trees[:6],
                        toy_trees[:4], initial=base)
        assert set(resumed.params.names()) == set(base.params.names())
        for name, tensor in base.params.items():
            np.testing.assert_array_equal(resumed.params[name].data, tensor.data)

    def test_nan_parameters_abort_with_diagnostics(self, quick, toy_trees):
        base = train(quick.replaced(max_epochs=0), toy_trees[:6], toy_trees[:4])
        base.params["encoder.attn.Wm"].data[0, 0] = np.nan
        with pytest.raises(TrainAbort, match="param norms"):
            train(quick.replaced(max_epochs=1), toy_trees[:6], toy_trees[:4],
                  initial=base)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_aborts_before_adam(self, bad, monkeypatch):
        # One poisoned entry in the first batch's gradients: the run stops at
        # that batch, and Adam never writes it into the parameters.
        parsers, clip = [], trainer.clip_gradients

        def loss_of(parser, batch, rng=None):
            parsers.append(parser)
            return compute_loss(parser, batch, rng)

        def poisoned_clip(grads, max_norm):
            grads["encoder.attn.Wm"].flat[0] = bad
            return clip(grads, max_norm)

        monkeypatch.setattr(trainer, "compute_loss", loss_of)
        monkeypatch.setattr(trainer, "clip_gradients", poisoned_clip)
        trees = corpus(seed=7, size=16)
        with pytest.raises(TrainAbort, match=r"non-finite gradient norm at epoch 1, "
                                             r"batch 0; param norms: "):
            train(GATE.replaced(max_epochs=1, batch_size=4), trees, trees[:4])
        assert len(parsers) == 1
        for name, tensor in parsers[0].store.items():
            assert np.isfinite(tensor.data).all(), name

    def test_nan_decoder_weight_aborts(self, quick, toy_trees):
        base = train(quick.replaced(max_epochs=0), toy_trees[:6], toy_trees[:4])
        base.params["decoder.lstm.W_hh"].data[3, 1] = np.nan
        with pytest.raises(TrainAbort, match="numeric failure"):
            train(quick.replaced(max_epochs=1), toy_trees[:6], toy_trees[:4],
                  initial=base)

    def test_nan_scores_in_one_dev_sentence_abort_evaluation(self, quick, toy_trees):
        # A NaN embedding row reaches the arc scores of the one dev sentence
        # holding that word; the lockstep batch still fails as a whole.
        dev = toy_trees[4:10]
        vocabs = build_vocabulary(toy_trees, min_word_count=1)
        word = next(t.form for t in dev[2].tokens
                    if sum(t.form in {u.form for u in d.tokens} for d in dev) == 1)
        parser = Parser.build(quick, vocabs)
        parser.store["embeddings.word"].data[vocabs["word"].index(word)] = np.nan
        start = Checkpoint(params=parser.store, vocabs=vocabs, config=quick)
        with pytest.raises(TrainAbort, match="initial evaluation: non-finite arc scores"):
            train(quick, toy_trees[:4], dev, initial=start)

    def test_multi_root_tree_rejected_under_single_root(self, quick, toy_trees):
        tokens = tuple(Token(w, "NN") for w in ("猫", "狗", "鱼"))
        tree = DependencyTree(tokens, (-1, 0, 0, 2), ("root", "root", "dobj"))
        with pytest.raises(TreebankError, match=r"training tree 4 has root children \[1, 2\]"):
            train(quick.replaced(single_root=True), toy_trees[:4] + [tree], toy_trees[:2])

    def test_label_unknown_to_the_initial_checkpoint_rejected_up_front(self, quick,
                                                                      toy_trees):
        # Not a numeric failure: the label is checked before any training.
        base = train(quick.replaced(max_epochs=0), toy_trees[:6], toy_trees[:4])
        tokens = (Token("猫", "NN"), Token("狗", "NN"))
        tree = DependencyTree(tokens, (-1, 2, 0), ("zzz_unseen", "root"))
        with pytest.raises(TreebankError, match="training tree 4 has label 'zzz_unseen'"):
            train(quick.replaced(max_epochs=1), toy_trees[:4] + [tree], toy_trees[:4],
                  initial=base)

    def test_architecture_change_rejected_up_front(self, quick, toy_trees):
        base = train(quick.replaced(max_epochs=0), toy_trees[:6], toy_trees[:4])
        with pytest.raises(ArchitectureMismatch, match="d_h 4 -> 8"):
            train(quick.replaced(d_h=8), toy_trees[:6], toy_trees[:4], initial=base)

    def test_empty_corpora_rejected(self, quick, toy_trees):
        with pytest.raises(ValueError, match="nonempty"):
            train(quick, [], toy_trees[:4])
        with pytest.raises(ValueError, match="nonempty"):
            train(quick, toy_trees[:4], [])

    def test_log_callback_sees_each_epoch(self, quick, toy_trees):
        lines = []
        train(quick, toy_trees[:6], toy_trees[:4], log=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("epoch 1:")


class TestEvaluate:
    def test_repeatable_without_dropout(self, tiny_config, toy_vocabs, toy_trees):
        parser = Parser.build(tiny_config, toy_vocabs)
        first = evaluate(parser, toy_trees[:6])
        second = evaluate(parser, toy_trees[:6])
        assert first == second

    def test_scores_in_range(self, tiny_config, toy_vocabs, toy_trees):
        parser = Parser.build(tiny_config, toy_vocabs)
        uas, las = evaluate(parser, toy_trees[:6])
        assert 0.0 <= las <= uas <= 100.0

    def test_gold_trees_score_100(self, tiny_config, toy_vocabs, toy_trees):
        parser = Parser.build(tiny_config, toy_vocabs)
        predicted = parser.parse_corpus(toy_trees[:6])
        from stackptr.metrics import attachment_scores
        assert attachment_scores(predicted, predicted) == (100.0, 100.0)


class TestStepMemory:
    @pytest.fixture
    def gate_parser(self):
        trees = corpus(seed=101, size=40)
        return Parser.build(GATE, build_vocabulary(trees, 1)), trees

    def test_backward_keeps_only_parameter_gradients(self, gate_parser):
        parser, trees = gate_parser
        batch = [t for t in trees if len(t) == 2][:2]
        assert len(batch) == 2
        tracemalloc.start()
        try:
            loss = compute_loss(parser, batch, Rng(3))
            before = tracemalloc.get_traced_memory()[0]
            loss.backward()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        grad_bytes = sum(t.grad.nbytes for _, t in parser.store.items() if t.grad is not None)
        assert grad_bytes > 0
        assert grown <= grad_bytes + 64 * 1024, (grown, grad_bytes)

    def test_no_two_parameters_share_a_gradient_array(self, gate_parser):
        parser, trees = gate_parser
        batch = [t for t in trees if len(t) == 3][:4]
        compute_loss(parser, batch, Rng(4)).backward()
        grads = [(name, t.grad) for name, t in parser.store.items() if t.grad is not None]
        assert len(grads) == len(parser.store)
        for (a, ga), (b, gb) in itertools.combinations(grads, 2):
            assert not np.shares_memory(ga, gb), (a, b)

    def test_a_steps_gradients_die_with_the_step(self, tiny_config, toy_trees, monkeypatch):
        # At each step's loss, no parameter holds a gradient and every array
        # the previous step handed to Adam is gone.
        stepped, calls = [], []
        trainer_adam = trainer.adam_step

        def adam_step(params, grads, state, learning_rate):
            stepped.extend(weakref.ref(g) for g in grads.values())
            trainer_adam(params, grads, state, learning_rate)

        def checked(parser, batch, rng=None):
            held = [name for name, t in parser.store.items() if t.grad is not None]
            assert not held, held
            assert all(ref() is None for ref in stepped)
            calls.append(len(batch))
            return compute_loss(parser, batch, rng)

        monkeypatch.setattr(trainer, "adam_step", adam_step)
        monkeypatch.setattr(trainer, "compute_loss", checked)
        train(tiny_config.replaced(max_epochs=2, batch_size=4), toy_trees[:10], toy_trees[:4])
        assert len(calls) > 2

    def test_a_finetune_reads_its_start_and_never_writes_it(self, gate_parser):
        parser, trees = gate_parser
        start = Checkpoint(params=parser.store, vocabs=parser.vocabs, config=GATE)
        before = {name: t.data.copy() for name, t in start.params.items()}
        # No epoch (the start's own arrays are the best), then two epochs of
        # which the second improves (a float32 snapshot is the best).
        for epochs, best in ((0, "best epoch 0"), (2, "best epoch 2")):
            tuned = train(GATE.replaced(max_epochs=epochs, batch_size=8, learning_rate=0.01),
                          trees[:16], trees[16:24], initial=start)
            assert tuned.provenance[-1].startswith(best)
            for name, tensor in start.params.items():
                assert tensor.data.tobytes() == before[name].tobytes(), name
                result = tuned.params[name].data
                assert not np.shares_memory(result, tensor.data), name
                assert result.tobytes() == as_stored(result).tobytes(), name
                if epochs == 0:
                    assert result.tobytes() == as_stored(tensor.data).tobytes(), name

    def test_a_finetune_holds_one_float64_model(self):
        # A several-thousand-word table makes the model large next to the
        # 4-token batches' activations: the traced peak is then the store,
        # Adam's two moments, one step's gradients and clipping's square of
        # the table's, and no second float64 copy of the model (about 4.6x
        # here, 6.2x with one). The caller's start checkpoint predates
        # tracing; a later epoch would add a float32 best snapshot (0.5x).
        trees = [t for t in corpus(seed=31, size=200) if len(t) == 4]
        vocabs = build_vocabulary(trees, 1)
        vocabs["word"] = vocabs["word"].extended_with([f"w{i}" for i in range(4000)])
        start = Checkpoint(params=Parser.build(GATE, vocabs).store, vocabs=vocabs, config=GATE)
        model_bytes = sum(t.data.nbytes for _, t in start.params.items())
        tracemalloc.start()
        try:
            train(GATE.replaced(max_epochs=1, batch_size=8), trees[:24], trees[24:30],
                  initial=start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * model_bytes, peak / model_bytes


# One full-size training step (TrainConfig() dims, two 40-token trees): loss,
# backward, clipping and Adam. Prints the digests of the loss, of the
# gradients and of the parameters after Adam, and whether the worker ran.
# "shut" closes the worker gate by size (no job is split), "one-cpu" by CPU
# count (the decoder still runs its products in halves, one after the other).
FULL_SIZE_STEP = """
import hashlib, json, os, sys
from stackptr import autodiff as ad
from stackptr.config import TrainConfig
from stackptr.model import Parser
from stackptr.trainer import compute_loss
from stackptr.treebank import DependencyTree, Token, build_vocabulary
if sys.argv[1] == "shut":
    ad.WORKER_MIN_WHH = ad.WORKER_MIN_PARAMS = ad.WORKER_MIN_SPLIT = 1 << 62
if sys.argv[1] == "one-cpu":
    os.sched_getaffinity = lambda pid: {0}
rng = ad.Rng(3)
trees = []
for b in range(2):
    tokens = tuple(Token(f"w{rng.integers(0, 60)}", f"P{rng.integers(0, 8)}") for _ in range(40))
    heads = (-1,) + tuple(rng.integers(0, i) for i in range(1, 41))
    trees.append(DependencyTree(tokens, heads, tuple(f"l{rng.integers(0, 5)}" for _ in range(40))))
config = TrainConfig(batch_size=2, min_word_count=1)
parser = Parser.build(config, build_vocabulary(trees, 1))
loss = compute_loss(parser, trees, ad.Rng(4))
loss.backward()
grads = parser.store.gradients()
def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()
record = {"loss": digest([loss.data]), "grads": digest(grads.values())}
ad.clip_gradients(grads, config.clip_norm)
ad.adam_step(parser.store, grads, ad.AdamState(), config.learning_rate)
record["params"] = digest(t.data for _, t in parser.store.items())
record["worker"] = ad._pool is not None
print(json.dumps(record))
"""


def test_a_full_size_step_repeats_its_bits_in_new_processes():
    # The release gate trains at tiny dims, where neither BLAS threading nor
    # the worker thread takes part. Two processes at one pinned BLAS thread
    # count repeat a full-size step's bits, and so do one with the worker
    # gate shut by size and one on one CPU: the worker changes no bit where
    # it runs, the decoder's halves none against its one products, and the
    # CPU count none.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    records = []
    for gate in ("as-measured", "as-measured", "shut", "one-cpu"):
        run = subprocess.run([sys.executable, "-c", FULL_SIZE_STEP, gate], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        records.append(json.loads(run.stdout))
    two_cpus = len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) >= 2
    assert [r.pop("worker") for r in records] == [two_cpus, two_cpus, False, False]
    assert records[0] == records[1] == records[2] == records[3]
