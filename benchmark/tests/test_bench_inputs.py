"""The input generators: valid trees in the stated ranges, fixed by the seed."""

import pytest

import inputs
import workloads
from stackptr.treebank import validate_tree


def _valid(tree):
    validate_tree(tree.heads)            # single root, no cycles, heads in range
    return True


@pytest.mark.parametrize("pools", [inputs.SOURCE_POOLS, inputs.TARGET_POOLS])
def test_grammar_corpus_is_the_template_grammar(pools):
    trees = inputs.grammar_corpus(inputs.stream(3, "g"), 70, pools)
    assert len(trees) == 70 and all(_valid(t) for t in trees)
    assert all(2 <= len(t) <= 6 for t in trees)
    words = {tok.form for t in trees for tok in t.tokens}
    assert words <= {w for pool in pools.values() for w in pool}
    assert len({w for pool in pools.values() for w in pool}) <= 30
    shapes = {(tuple(tok.pos for tok in t.tokens), t.heads, t.labels) for t in trees}
    templates = {(tuple(p), (-1, *h), tuple(lab)) for p, h, lab in inputs.TEMPLATES}
    assert shapes == templates               # 70 draws cover every template


def test_grammar_corpus_draws_templates_in_rounds():
    trees = inputs.grammar_corpus(inputs.stream(4, "g"), 22, inputs.SOURCE_POOLS)
    per_round = sum(len(p) for p, _, _ in inputs.TEMPLATES)
    assert sum(len(t) for t in trees) == 2 * per_round


def test_form_pool_has_distinct_multicharacter_forms():
    forms = inputs.form_pool(inputs.stream(5, "f"), 4000)
    assert len(set(forms)) == 4000
    assert all(3 <= len(f) <= 9 and f.isalpha() for f in forms)


def test_complementary_lengths_fix_the_token_count():
    for seed in range(20):
        lengths = inputs.complementary_lengths(inputs.stream(seed, "l"), 12, 5, 60)
        assert sum(lengths) == 6 * 65 and all(5 <= n <= 60 for n in lengths)
    with pytest.raises(ValueError):
        inputs.complementary_lengths(inputs.stream(0, "l"), 3, 5, 60)


@pytest.mark.parametrize("n", [1, 2, 5, 15, 40, 60])
def test_random_trees_are_valid_with_the_requested_shape(n):
    rng = inputs.stream(n, "t")
    forms = inputs.form_pool(rng, 50)
    for _ in range(20):
        proj = inputs.random_tree(rng, n, forms, projective=True)
        other = inputs.random_tree(rng, n, forms, projective=False)
        assert len(proj) == len(other) == n
        assert _valid(proj) and _valid(other)
        assert inputs.is_projective(proj.heads)
        assert all(lab == "root" for h, lab in zip(proj.heads[1:], proj.labels) if h == 0)


def test_is_projective_detects_crossing_arcs():
    assert inputs.is_projective((-1, 2, 0, 2))
    assert not inputs.is_projective((-1, 3, 0, 2, 1))   # 3->1 crosses ROOT->2


def test_random_corpus_mixes_projective_and_non_projective():
    rng = inputs.stream(1, "c")
    trees = inputs.random_corpus(rng, [30] * 10, inputs.form_pool(rng, 100))
    flags = [inputs.is_projective(t.heads) for t in trees]
    assert all(flags[0::2]) and not any(flags[1::2])


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_workload_inputs_are_fixed_by_the_seed(name):
    spec = workloads.SPECS[name]
    first, again = workloads.make_inputs(spec, 7), workloads.make_inputs(spec, 7)
    other = workloads.make_inputs(spec, 8)
    assert first == again
    assert first != other
    for part in (first.train, first.dev, first.parse, first.vocab_corpus):
        assert all(_valid(t) for t in part)


def test_workload_inputs_are_in_their_stated_ranges():
    gate = workloads.make_inputs(workloads.SPECS["gate-finetune"], 2)
    assert (len(gate.train), len(gate.dev)) == (30, 40)
    assert len({tok.form for t in gate.train + gate.dev for tok in t.tokens}) <= 30

    full = workloads.make_inputs(workloads.SPECS["full-train"], 2)
    assert sorted(len(t) for t in full.train) == [15, 15, 40, 40]
    assert all(15 <= len(t) <= 40 for t in full.dev)
    assert len({len(t) for t in full.train}) * workloads.FULL.batch_size == len(full.train)

    long = workloads.make_inputs(workloads.SPECS["parse-long"], 2)
    assert all(5 <= len(t) <= 60 for t in long.parse)
    assert workloads.tokens(long.parse) == 6 * 65
    assert len({tok.form for t in long.vocab_corpus for tok in t.tokens}) > 2000
    shapes = [inputs.is_projective(t.heads) for t in long.parse]
    assert any(shapes) and not all(shapes)
