"""Transition-system tests: exhaustive small-tree oracles, legality masking,
biaffine arithmetic, likelihood bookkeeping."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackptr import autodiff as ad
from stackptr.autodiff import Rng, Tensor
from stackptr.decoder import (
    biaffine_score,
    decode_greedy,
    gold_path,
    gold_plan,
    legal_masks,
    path_log_likelihood,
    step,
)
from stackptr.treebank import DependencyTree, Token, TreebankError, validate_tree

from reference_loss import (
    checked_step,
    decode_one,
    initial_state,
    legal_mask,
    lockstep_scorers,
    replay,
)


def _tree(heads, labels=None):
    n = len(heads) - 1
    tokens = tuple(Token(f"w{i}", "NN") for i in range(1, n + 1))
    return DependencyTree(tokens, tuple(heads), tuple(labels or ["dep"] * n))


def all_head_vectors(n):
    """Every well-formed tree over n tokens (multi-root allowed)."""
    for tail in itertools.product(range(n + 1), repeat=n):
        heads = (-1,) + tail
        try:
            validate_tree(heads, allow_multiple_roots=True)
        except TreebankError:
            continue
        yield heads


def step_allows(state, target):
    """Whether the oracle's ``checked_step`` accepts ``target``."""
    try:
        checked_step(state, target)
    except ValueError:
        return False
    return True


def reachable_states(n):
    """Every non-terminal state the machine can reach on n tokens."""
    frontier, seen = [initial_state(n)], {initial_state(n)}
    while frontier:
        state = frontier.pop()
        for target in range(n + 1):
            if step_allows(state, target):
                child = checked_step(state, target)
                if not child.is_terminal() and child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return sorted(seen, key=lambda s: (s.step_count, s.stack, s.heads))


def assert_plan_replays(trees, child_order):
    """Each row of the batch's plan replays its tree under the oracle machine."""
    plan = gold_plan(trees, child_order=child_order)
    n = len(trees[0])
    assert plan.legal.shape == (len(trees), 2 * n + 1, n + 1)
    for b, tree in enumerate(trees):
        assert plan.targets[b].tolist() == gold_path(tree, child_order)
        state = initial_state(n)
        for top, target, legal in zip(plan.tops[b], plan.targets[b], plan.legal[b]):
            assert top == state.top
            want = [p == state.top or step_allows(state, p) for p in range(n + 1)]
            assert legal.tolist() == want
            state = checked_step(state, int(target))
        assert state.is_terminal()
        assert int(plan.arc_steps[b].sum()) == n


def zero_scorer(n):
    return lambda top: Tensor(np.zeros(n + 1))


def zero_labeler(label_count):
    return lambda child: Tensor(np.zeros(label_count))


class TestStep:
    def test_n1_full_run(self):
        s = initial_state(1)
        s = checked_step(s, 1)      # ROOT -> token
        s = checked_step(s, 1)      # token self-points
        assert s.heads == (-1, 0)
        s = checked_step(s, 0)      # ROOT self-points
        assert s.is_terminal()
        assert s.step_count == 3
        # The same run on a head row: the top after each move, -1 at the end.
        heads = np.array([-1, -1])
        assert [step(heads, 0, 1), step(heads, 1, 1), step(heads, 0, 0)] == [1, 0, -1]
        assert heads.tolist() == [-1, 0]

    def test_self_point_pops_without_new_arcs(self):
        s = checked_step(initial_state(2), 2)
        assert s.stack == (0, 2)
        popped = checked_step(s, 2)
        assert popped.stack == (0,)
        assert popped.heads == s.heads

    def test_pointing_to_attached_token_is_illegal(self):
        s = checked_step(initial_state(2), 1)   # arc 0 -> 1
        s = checked_step(s, 2)                  # arc 1 -> 2
        s = checked_step(s, 2)                  # pop 2
        with pytest.raises(ValueError, match="illegal"):
            checked_step(s, 2)                  # 2 already attached

    def test_root_cannot_pop_early(self):
        with pytest.raises(ValueError, match="illegal"):
            checked_step(initial_state(2), 0)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match="illegal"):
            checked_step(initial_state(2), 3)

    def test_terminal_state_has_no_actions(self):
        s = replay(1, [1, 1, 0])
        with pytest.raises(ValueError):
            legal_mask(s)


class TestLegalMask:
    def test_initial_mask_decode(self):
        mask = legal_mask(initial_state(3), mode="decode")
        np.testing.assert_array_equal(mask, [False, True, True, True])

    def test_initial_mask_likelihood_includes_self(self):
        mask = legal_mask(initial_state(3), mode="likelihood")
        np.testing.assert_array_equal(mask, [True, True, True, True])

    def test_on_stack_tokens_excluded(self):
        s = checked_step(initial_state(3), 2)
        mask = legal_mask(s)
        # top is 2: self-point legal, 1/3 unattached legal, ROOT illegal
        np.testing.assert_array_equal(mask, [False, True, True, True])

    def test_only_the_pop_at_root_once_all_attached(self):
        # All attached, one root child, stack back at [0]: only the pop.
        s = initial_state(2)
        for target in (1, 2, 2, 1):
            s = checked_step(s, target)
        assert s.stack == (0,)
        mask = legal_mask(s)
        np.testing.assert_array_equal(mask, [True, False, False])

    def test_root_may_take_a_second_child(self):
        # Token 2 still unattached when ROOT resurfaces: pointing must stay
        # legal or the machine deadlocks.
        s = checked_step(initial_state(2), 1)
        s = checked_step(s, 1)
        assert s.stack == (0,)
        mask = legal_mask(s, mode="decode")
        np.testing.assert_array_equal(mask, [False, False, True])

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            legal_mask(initial_state(1), mode="beam")


class TestBatchedLegality:
    def test_equals_the_scalar_check_in_step_on_every_reachable_state(self):
        # All reachable states with n <= 5, padded to one (B, 6) batch: the
        # decode rows are what `checked_step` accepts, the likelihood rows add the
        # self-point, and nothing past a state's own n is ever legal.
        states = [s for n in range(1, 6) for s in reachable_states(n)]
        heads = np.zeros((len(states), 6), dtype=int)
        for b, state in enumerate(states):
            heads[b, :state.n + 1] = state.heads
        tops = np.array([state.top for state in states])
        decode = legal_masks(heads, tops, mode="decode")
        likelihood = legal_masks(heads, tops, mode="likelihood")
        for b, state in enumerate(states):
            want = [step_allows(state, p) for p in range(6)]
            assert decode[b].tolist() == want
            want[state.top] = True
            assert likelihood[b].tolist() == want
            np.testing.assert_array_equal(legal_mask(state, "decode"), decode[b, :state.n + 1])
            # The stack is the head chain from the top, down to ROOT.
            chain = [state.top]
            while chain[-1] != 0:
                chain.append(state.heads[chain[-1]])
            assert tuple(reversed(chain)) == state.stack
        assert len(states) == 12701


class TestGoldPath:
    def test_chain(self):
        assert gold_path(_tree([-1, 0, 1, 2])) == [1, 2, 3, 3, 2, 1, 0]

    def test_single_token(self):
        assert gold_path(_tree([-1, 0])) == [1, 1, 0]

    def test_child_orders(self):
        tree = _tree([-1, 3, 3, 0, 3])  # head 3 has children 1, 2, 4
        assert gold_path(tree, "inside_out") == [3, 2, 2, 4, 4, 1, 1, 3, 0]
        assert gold_path(tree, "left2right") == [3, 1, 1, 2, 2, 4, 4, 3, 0]
        assert gold_path(tree, "right2left") == [3, 4, 4, 2, 2, 1, 1, 3, 0]

    def test_deep_chain(self):
        # Deeper than Python's default recursion limit: the walk keeps its
        # own stack.
        n = 1500
        tree = _tree([-1, *range(n)])
        assert gold_path(tree) == [*range(1, n + 1), *range(n, -1, -1)]
        plan = gold_plan([tree])
        assert plan.tops[0].tolist() == [*range(n + 1), *range(n - 1, -1, -1)]
        assert int(plan.arc_steps.sum()) == n

    def test_unknown_order(self):
        with pytest.raises(ValueError, match="child_order"):
            gold_path(_tree([-1, 0]), "bfs")

    def test_gold_plan_replays_path(self):
        # Against the oracle's replay, one state at a time: the likelihood
        # mask is what `step` accepts plus the self-point. Every tree of a
        # length is planned in one batch.
        for child_order in ("inside_out", "left2right", "right2left"):
            for n in range(1, 6):
                assert_plan_replays([_tree(heads) for heads in all_head_vectors(n)],
                                    child_order)

    @given(data=st.data(), n=st.integers(5, 12), batch=st.integers(1, 4),
           child_order=st.sampled_from(["inside_out", "left2right", "right2left"]))
    @settings(max_examples=60, deadline=None)
    def test_gold_plan_replays_random_trees(self, data, n, batch, child_order):
        # Each node, in a random order, hangs off ROOT or an earlier node:
        # any tree, non-projective ones included.
        trees = []
        for _ in range(batch):
            order = data.draw(st.permutations(range(1, n + 1)))
            heads = [-1] * (n + 1)
            for k, node in enumerate(order):
                heads[node] = data.draw(st.sampled_from([0, *order[:k]]))
            trees.append(_tree(heads))
        assert_plan_replays(trees, child_order)

    def test_gold_plan_refuses_mixed_lengths(self):
        with pytest.raises(ValueError, match=r"one length, got \[1, 2\]"):
            gold_plan([_tree([-1, 0, 1]), _tree([-1, 0])])


class TestExhaustiveOracle:
    """Brute-force enumeration of every tree with n <= 5."""

    def test_enumeration_counts(self):
        # Cayley: (n+1)^(n-1) trees on n+1 nodes rooted at ROOT.
        counts = {n: sum(1 for _ in all_head_vectors(n)) for n in range(1, 6)}
        assert counts == {1: 1, 2: 3, 3: 16, 4: 125, 5: 1296}

    @pytest.mark.parametrize("child_order", ["inside_out", "left2right", "right2left"])
    def test_gold_path_replays_to_same_tree(self, child_order):
        for n in range(1, 6):
            for heads in all_head_vectors(n):
                tree = _tree(heads)
                path = gold_path(tree, child_order)
                assert len(path) == 2 * n + 1
                final = replay(n, path)
                assert final.heads == heads
                assert final.step_count == 2 * n + 1

    def test_oracle_scorer_greedy_recovers_every_tree(self):
        for n in range(1, 6):
            for heads in all_head_vectors(n):
                tree = _tree(heads)
                path = iter(gold_path(tree))

                def score_fn(top, n=n):
                    scores = np.zeros(n + 1)
                    scores[next(path)] = 1.0
                    return Tensor(scores)

                got_heads, _ = decode_one(n, score_fn, zero_labeler(2))
                assert tuple(got_heads) == heads

    def test_oracle_scorers_recover_every_tree_in_one_lockstep_batch(self):
        trees = [_tree(heads) for n in range(1, 5) for heads in all_head_vectors(n)]
        order = Rng(5).split("order").permutation(len(trees))
        trees = sorted((trees[int(k)] for k in order), key=len, reverse=True)  # longest first
        paths = [iter(gold_path(tree)) for tree in trees]

        def oracle(path, n):
            def score_fn(top):
                scores = np.zeros(n + 1)
                scores[next(path)] = 1.0
                return Tensor(scores)
            return score_fn

        def labeler(child):
            scores = np.zeros(3)
            scores[(child - 1) % 3] = 1.0
            return Tensor(scores)

        arcs, labels = lockstep_scorers([oracle(p, len(t)) for p, t in zip(paths, trees)],
                                        [labeler] * len(trees),
                                        width=5)
        decoded = decode_greedy([len(t) for t in trees], arcs, labels)
        assert len(trees) == 145
        for tree, (heads, label_ids) in zip(trees, decoded):
            assert tuple(heads) == tree.heads
            assert label_ids == [i % 3 for i in range(len(tree))]

    def test_non_projective_tree_included(self):
        heads = (-1, 3, 4, 0, 3)
        tree = _tree(heads)
        # Arcs 3 -> 1 and 4 -> 2 cross: 1 < 2 < 3 < 4.
        assert (tree.heads[1], tree.heads[2]) == (3, 4)
        assert replay(4, gold_path(tree)).heads == heads


class TestRandomPlayouts:
    def test_thousand_playouts_terminate_well_formed(self):
        # `step` on a head row and a top makes every move the oracle makes.
        rng = Rng(17).split("playouts")
        for trial in range(1000):
            n = 1 + trial % 6
            s = initial_state(n)
            heads, top = np.full(n + 1, -1), 0
            while not s.is_terminal():
                legal = np.flatnonzero(legal_mask(s, mode="decode"))
                target = int(legal[rng.integers(0, len(legal))])
                s = checked_step(s, target)
                top = step(heads, top, target)
                assert heads.tolist() == list(s.heads)
                assert top == (s.top if s.stack else -1)
            assert s.step_count == 2 * n + 1
            validate_tree(s.heads, allow_multiple_roots=True)


def _one_row(d, e, u, w_dec, w_enc, b, mask=None):
    """The score vector of one decoder vector: ``biaffine_score`` of a
    one-row matrix, with illegal positions -inf where ``mask`` says so."""
    score = ad.reshape(biaffine_score(ad.reshape(d, (1, -1)), e, u, w_dec, w_enc, b),
                       (e.shape[0],))
    return score if mask is None else ad.mask_fill(score, mask)


class TestBiaffineScore:
    def test_one_dim_toy(self):
        score = _one_row(
            Tensor([3.0]), Tensor([[5.0]]), Tensor([[2.0]]),
            Tensor([0.0]), Tensor([0.0]), Tensor(1.0),
        )
        assert score.data.shape == (1,)
        assert score.data[0] == pytest.approx(31.0)

    def test_zero_weights_uniform_over_legal(self):
        d, e = Tensor(np.zeros(3)), Tensor(np.zeros((4, 3)))
        score = _one_row(d, e, Tensor(np.zeros((3, 3))),
                         Tensor(np.zeros(3)), Tensor(np.zeros(3)),
                         Tensor(0.0), mask=np.array([True, True, False, True]))
        probs = ad.softmax_rows(score).data
        np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 0.0, 1 / 3], atol=1e-12)

    def test_masked_position_probability_exactly_zero(self):
        rng = Rng(23).split("biaffine")
        d = Tensor(rng.random(4))
        e = Tensor(rng.random((5, 4)))
        score = _one_row(d, e, Tensor(rng.random((4, 4))),
                         Tensor(rng.random(4)), Tensor(rng.random(4)),
                         Tensor(0.3), mask=np.array([True, False, True, True, False]))
        probs = ad.softmax_rows(score).data
        assert probs[1] == 0.0 and probs[4] == 0.0
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_decoder_rows_give_score_rows(self):
        rng = Rng(19).split("rows")
        d, e, u = rng.random((3, 4)), rng.random((5, 2)), rng.random((4, 2))
        w_dec, w_enc, b = Tensor(rng.random(4)), Tensor(rng.random(2)), Tensor(0.4)
        mask = rng.random((3, 5)) > 0.3
        rows = ad.mask_fill(biaffine_score(Tensor(d), Tensor(e), Tensor(u), w_dec, w_enc, b),
                            mask).data
        for k in range(3):
            one = _one_row(Tensor(d[k]), Tensor(e), Tensor(u), w_dec, w_enc, b,
                           mask=mask[k]).data
            np.testing.assert_allclose(rows[k], one, atol=1e-12)

    def test_matches_manual_form(self):
        rng = Rng(29).split("manual")
        d = rng.random(3)
        e = rng.random((4, 5))
        u = rng.random((3, 5))
        w_dec, w_enc, b = rng.random(3), rng.random(5), 0.7
        got = _one_row(Tensor(d), Tensor(e), Tensor(u), Tensor(w_dec),
                       Tensor(w_enc), Tensor(b)).data
        want = np.array([d @ u @ e[i] + w_dec @ d + w_enc @ e[i] + b
                         for i in range(4)])
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestPathLogLikelihood:
    def test_zero_weight_n1(self):
        tree = _tree([-1, 0])
        plan = gold_plan([tree])
        for label_count in (1, 2, 5):
            ll = path_log_likelihood(plan, Tensor(np.zeros((1, 3, 2))),
                                     Tensor(np.zeros((1, label_count))), np.array([0]))
            # Arc side: first step has 2 legal targets, the rest 1 each.
            assert ll.data == pytest.approx(math.log(0.5) + math.log(1 / label_count))

    def test_always_nonpositive(self):
        rng = Rng(31).split("ll")
        for heads in [(-1, 0, 1), (-1, 2, 0), (-1, 0, 0)]:
            tree = _tree(heads)
            n = len(heads) - 1
            arcs = Tensor(rng.random((1, 2 * n + 1, n + 1)) * 4 - 2)
            labels = Tensor(rng.random((n, 3)) * 4 - 2)
            ll = path_log_likelihood(gold_plan([tree]), arcs, labels, np.array([0, 1]))
            assert ll.data <= 0.0

    def test_matches_independent_per_step_product(self):
        rng = Rng(37).split("product")
        tree = _tree([-1, 3, 3, 0, 3])
        label_ids = [1, 0, 2, 1]
        plan = gold_plan([tree])
        arc_scores = rng.random((9, 5)) * 3
        label_scores = rng.random((4, 3)) * 3
        children = plan.targets[plan.arc_steps]
        ll = path_log_likelihood(plan, Tensor(arc_scores[None]), Tensor(label_scores),
                                 np.array(label_ids)[children - 1])

        # Recompute the same product step by step from the score rows.
        state = initial_state(4)
        prob = 1.0
        arcs = iter(arc_scores)
        labels = iter(zip(children, label_scores))
        for target in gold_path(tree):
            mask = legal_mask(state, mode="likelihood")
            scores = np.where(mask, next(arcs), -np.inf)
            e = np.exp(scores - scores.max())
            prob *= (e / e.sum())[target]
            if target != state.top:
                child, ls = next(labels)
                assert child == target
                le = np.exp(ls - ls.max())
                prob *= (le / le.sum())[label_ids[target - 1]]
            state = checked_step(state, target)
        assert math.exp(ll.data) == pytest.approx(prob, abs=1e-10)

    def test_label_scorer_shape_enforced(self):
        tree = _tree([-1, 0])
        with pytest.raises(ValueError, match="label scorer"):
            path_log_likelihood(gold_plan([tree]), Tensor(np.zeros((1, 3, 2))),
                                Tensor(np.zeros((2, 3))), np.array([0]))


class TestGreedyDecoding:
    def test_constant_shift_invariance(self):
        rng = Rng(41).split("shift")
        base = [rng.random(4) for _ in range(20)]
        for offset in (0.0, 5.0, -3.25):
            calls = iter(base)

            def scorer(top, off=offset):
                return Tensor(next(calls) + off)

            heads, labels = decode_one(3, scorer, zero_labeler(2))
            if offset == 0.0:
                reference = (heads, labels)
            else:
                assert (heads, labels) == reference

    def test_labels_assigned_per_arc(self):
        def labeler(child):
            scores = np.zeros(4)
            scores[child % 4] = 1.0
            return Tensor(scores)

        heads, label_ids = decode_one(3, zero_scorer(3), labeler)
        validate_tree(heads, allow_multiple_roots=True)
        assert all(i >= 0 for i in label_ids)

    def test_any_scorer_yields_well_formed_tree(self):
        rng = Rng(43).split("any")
        for trial in range(50):
            n = 1 + trial % 6
            scorer = lambda top: Tensor(rng.random(n + 1) * 10 - 5)
            heads, _ = decode_one(n, scorer, zero_labeler(3))
            validate_tree(heads, allow_multiple_roots=True)

    def test_nan_in_one_sentence_of_a_batch_raises(self):
        def scorer(scores):
            return lambda top: Tensor(scores)

        fns = [scorer(np.zeros(4)), scorer(np.array([0.0, np.nan, 0.0])), scorer(np.zeros(2))]
        arcs, labels = lockstep_scorers(fns, [zero_labeler(2)] * 3, width=4)
        with pytest.raises(ValueError, match="non-finite arc scores"):
            decode_greedy([3, 2, 1], arcs, labels)

    def test_increasing_lengths_refused_before_any_scoring(self):
        def never(*args):
            raise AssertionError("scorer called")

        with pytest.raises(ValueError, match=r"longest first, got lengths \[2, 3\]"):
            decode_greedy([2, 3], never, never)

    def test_root_greedy_scorer_makes_two_root_children(self):
        # A scorer trying to hang everything off ROOT: for n=2 it points
        # 0->1, pops 1 (preferred to pointing 1->2) and then attaches the
        # stranded 2 to ROOT as well.
        def root_greedy(top):
            scores = np.zeros(3)
            scores[1] = 2.0
            scores[2] = 1.0
            return Tensor(scores)

        heads, _ = decode_one(2, root_greedy, zero_labeler(2))
        assert heads == [-1, 0, 0]  # both end up root children


@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([2, 3, 1000]))
@settings(max_examples=60, deadline=None)
def test_lockstep_batch_equals_one_sentence_at_a_time(lengths, seed, levels):
    lengths = sorted(lengths, reverse=True)
    # Scores are a function of the sentence, its step count and its stack
    # top; few levels make many ties, which both paths break toward the
    # lowest index.
    def scorer(b, n):
        calls = itertools.count()

        def score_fn(top):
            rng = Rng(seed).split(repr((b, next(calls), top)))
            return Tensor(np.floor(rng.random(n + 1) * levels))
        return score_fn

    def labeler(b):
        def label_fn(child):
            return Tensor(np.floor(Rng(seed).split(f"{b}:{child}").random(4) * levels))
        return label_fn

    arcs, labels = lockstep_scorers([scorer(b, n) for b, n in enumerate(lengths)],
                                    [labeler(b) for b in range(len(lengths))],
                                    width=max(lengths) + 1)
    decoded = decode_greedy(lengths, arcs, labels)
    assert len(decoded) == len(lengths)
    for b, (n, (heads, label_ids)) in enumerate(zip(lengths, decoded)):
        assert (heads, label_ids) == decode_one(n, scorer(b, n), labeler(b))
