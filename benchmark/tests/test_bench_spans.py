"""Self-time arithmetic over recorded spans."""

import layers
import spans

# name table and spans [name id, start, end, parent]:
#   bench.iteration  0..100
#     trainer.train   10..60
#       decoder.step    20..30
#         decoder.legal_mask 22..26
#       decoder.legal_mask  40..45
#     cli.run         70..95
NAMES = ["bench.iteration", "trainer.train", "decoder.step", "decoder.legal_mask", "cli.run"]
SPANS = [
    [0, 0, 100, -1],
    [1, 10, 60, 0],
    [2, 20, 30, 1],
    [3, 22, 26, 2],
    [3, 40, 45, 1],
    [4, 70, 95, 0],
]


def test_self_time_is_duration_minus_direct_children():
    assert spans.self_times(SPANS) == [25, 35, 6, 4, 5, 25]


def test_self_times_add_up_to_root_duration():
    assert sum(spans.self_times(SPANS)) == 100


def test_covered_time_counts_nested_spans_once():
    wanted = {"decoder.step", "decoder.legal_mask"}
    assert spans.covered_time(SPANS, NAMES, wanted) == 10 + 5
    assert spans.covered_time(SPANS, NAMES, {"decoder.legal_mask"}) == 4 + 5


def test_covered_time_filters_on_direct_parent():
    mask = {"decoder.legal_mask"}
    assert spans.covered_time(SPANS, NAMES, mask, under={"trainer.train"}) == 5
    assert spans.covered_time(SPANS, NAMES, mask, under={"decoder.step"}) == 4


def test_layer_self_times_split_glue_from_layers():
    by_layer, glue = spans.layer_self_times(SPANS, NAMES, {"bench.iteration"})
    assert glue == 25
    assert by_layer == {"trainer": 35, "decoder": 15, "cli": 25}


def test_count_spans_by_parent():
    assert spans.count_spans(SPANS, NAMES, "decoder.legal_mask") == 2
    assert spans.count_spans(SPANS, NAMES, "decoder.legal_mask", under="decoder.step") == 1


def test_nesting_errors_flag_spans_outside_their_parent():
    assert spans.nesting_errors(SPANS) == 0
    broken = [list(s) for s in SPANS]
    broken[2][2] = 65                      # decoder.step now ends after trainer.train
    assert spans.nesting_errors(broken) == 1


def test_iteration_metrics_account_for_the_whole_wall_time():
    values, bad = layers.iteration_metrics(SPANS, NAMES, tensors=50, wall_ns=103,
                                           train_tokens=4, session_tokens=10)
    assert bad == 0
    layer_sum = sum(values[f"{layer}.self_ms"] for layer in layers.LAYERS)
    total = layer_sum + values["trace.glue_ms"] + values["trace.unattributed_ms"]
    assert abs(total - values["trace.wall_ms"]) < 1e-12
    assert abs(values["trace.unattributed_ms"] - 3e-6) < 1e-12
    assert values["autodiff.tensors_per_tok"] == 5.0


def test_tracer_records_parents_and_nesting():
    tracer = spans.Tracer()

    def inner():
        return 1

    def outer():
        return traced_inner() + traced_inner()

    traced_inner = tracer.timed(inner, "mod.inner")
    traced_outer = tracer.timed(outer, "mod.outer")
    with tracer.span("bench.iteration"):
        assert traced_outer() == 2
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["bench.iteration", "mod.outer", "mod.inner", "mod.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert spans.nesting_errors(tracer.spans) == 0


def test_tracer_closes_spans_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    traced = tracer.timed(boom, "mod.boom")
    try:
        traced()
    except KeyError:
        pass
    with tracer.span("bench.iteration"):
        pass
    assert tracer.spans[1][3] == -1          # the next span is a root again
    assert spans.nesting_errors(tracer.spans) == 0
