"""Wrapping the program's functions for a traced run, and undoing it."""

import json
import sys

import pytest

import layers
import run
import spans
import stackptr
import workloads
from stackptr import autodiff, decoder, model, trainer
from stackptr.config import TrainConfig
from stackptr.treebank import DependencyTree, Token


def _snapshot():
    """Every attribute of every stackptr module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "stackptr" or name.startswith("stackptr."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for class_attr, member in vars(value).items():
                        seen[(name, attr, class_attr)] = member
    return seen


def _install():
    tracer, patcher = spans.Tracer(), spans.Patcher()
    missing = spans.install(tracer, patcher, layers.SPAN_TARGETS,
                            layers.COUNT_TARGETS, layers.PACKAGE)
    return tracer, patcher, missing


def test_every_target_exists_in_this_program():
    tracer, patcher, missing = _install()
    patcher.restore()
    assert missing == []


def test_functions_are_wrapped_at_every_lookup_site():
    original = autodiff.adam_step
    _, patcher, _ = _install()
    try:
        for site in (autodiff, trainer, stackptr):
            assert site.adam_step is not original
            assert site.adam_step.__wrapped__ is original
        assert autodiff.lstm_cell.__wrapped__ is not None     # reached as ad.lstm_cell
        assert decoder.legal_mask.__wrapped__ is not None     # a decoder module global
        assert vars(model.Parser)["parse"].__wrapped__ is not None
        assert vars(autodiff.Tensor)["__init__"].__wrapped__ is not None
    finally:
        patcher.restore()


def test_restore_puts_back_every_patched_attribute():
    before = _snapshot()
    _, patcher, _ = _install()
    assert _snapshot() != before
    patcher.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_restore_removes_attributes_that_were_inherited():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    patcher = spans.Patcher()
    patcher.set(Child, "f", lambda self: 2)
    assert Child().f() == 2
    patcher.restore()
    assert "f" not in vars(Child) and Child().f() == 1


def test_missing_targets_are_reported_not_fatal():
    tracer, patcher = spans.Tracer(), spans.Patcher()
    missing = spans.install(tracer, patcher,
                            ["stackptr.decoder.no_such_function", "stackptr.nowhere.f",
                             "stackptr.model.NoClass.method"],
                            {}, "stackptr")
    patcher.restore()
    assert len(missing) == 3


def _tiny_trees():
    words = ["a", "bb", "ccc", "dd"]
    shapes = [((-1, 0), ("root",)), ((-1, 2, 0), ("x", "root")),
              ((-1, 2, 0, 2), ("x", "root", "y"))]
    return [DependencyTree(tuple(Token(words[i % 4], "P") for i in range(len(h) - 1)),
                           h, labels) for h, labels in shapes]


def test_traced_training_records_layers_and_exact_step_counts():
    trees = _tiny_trees()
    config = TrainConfig(d_w=6, char_dim=3, pos_dim=3, num_filters=3, r=2, d_h=4,
                         arc_mlp_dim=5, label_mlp_dim=4, batch_size=8, max_epochs=2,
                         patience=2, min_word_count=1, seed=3)
    tracer, patcher, _ = _install()
    try:
        with tracer.span(layers.ROOT):
            trainer.train(config, trees, trees[:2])
    finally:
        patcher.restore()
    names, recorded = tracer.names, tracer.spans
    assert spans.nesting_errors(recorded) == 0
    # Dev (lengths 1 and 2) is evaluated before training and after each epoch.
    assert spans.count_spans(recorded, names, "decoder.step",
                             under="decoder.decode_greedy") == 3 * (3 + 5)
    assert spans.count_spans(recorded, names, "trainer.compute_loss",
                             under="trainer.train") == 2 * 3    # one batch per length
    assert spans.count_spans(recorded, names, "autodiff.adam_step") == 6
    assert tracer.counts["tensors"] > 0
    values, bad = layers.iteration_metrics(recorded, names, tracer.counts["tensors"],
                                           recorded[0][2] - recorded[0][1], 12, 12)
    assert bad == 0 and values["trainer.batches"] == 6
    assert abs(values["trace.unattributed_ms"]) < 1e-9
    for metric in ("autodiff.backward_ms", "encoder.bilstm_ms", "decoder.lstm_ms",
                   "decoder.greedy_ms", "trainer.evaluate_ms", "model.loss_self_ms"):
        assert values[metric] > 0, metric


@pytest.mark.parametrize("target", layers.SPAN_TARGETS)
def test_span_names_name_a_layer(target):
    assert target.split(".")[1] in layers.LAYERS


def test_reported_metrics_match_benchmark_json():
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == run.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in contract["workloads"]] == list(workloads.SPECS)
