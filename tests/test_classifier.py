import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonalnet import classifier, clonal, nn
from clonalnet.classifier import (
    NOMATCH, Decision, classify, classify_batch, init_new_class,
    write_decision_records,
)
from clonalnet.clonal import (CloneConfig, MemoryPool, affinity_naive,
                              mutate, pool_affinities)
from clonalnet.errors import (ConfigurationError, DimensionError,
                              UndefinedAffinityError)


def pool_from(features, label=0, capacity=None):
    matrix = np.array(features, dtype=np.float64)
    return MemoryPool(label, capacity or max(1, len(matrix)), matrix=matrix,
                      scores=np.ones(len(matrix)))


def unit(i, d=4):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestPhase1Count:
    """Phase 1 as ``classify`` reports it in ``decision.counts``."""

    def test_pool_containing_test_feature_counts(self):
        test = np.array([0.3, -0.7, 1.0])
        pools = {0: pool_from([test, [1.0, 0.0, 0.0]])}
        assert classify(test, pools, tau_match=0.99).counts[0] >= 1

    def test_zero_threshold_counts_everything(self):
        rng = np.random.default_rng(0)
        pools = {0: pool_from(rng.normal(size=(7, 4)))}
        assert classify(rng.normal(size=4), pools, tau_match=0.0).counts[0] == 7

    def test_empty_pool_is_zero_not_error(self):
        pools = {0: MemoryPool(class_label=0, capacity=3),
                 1: pool_from([np.ones(4)], label=1)}
        decision = classify(np.ones(4), pools, tau_match=0.5)
        assert decision.counts == {0: 0, 1: 1}
        assert 0 not in decision.avidities and 0 not in decision.scores
        assert decision.predicted_class == 1

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(1)
        pools = {c: pool_from(rng.normal(size=(10, 5)), label=c)
                 for c in range(3)}
        tau = 0.55
        for _ in range(20):
            test = rng.normal(size=5)
            expected = {c: sum(affinity_naive(test, row) >= tau
                               for row in pool.matrix)
                        for c, pool in pools.items()}
            assert classify(test, pools, tau).counts == expected

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        pools = {0: pool_from(rng.normal(size=(8, 4)))}
        test = rng.normal(size=4)
        counts = [classify(test, pools, t).counts[0]
                  for t in np.linspace(0.0, 1.0, 21)]
        assert all(c2 <= c1 for c1, c2 in zip(counts, counts[1:]))


class TestPhase2Avidity:
    """Phase 2 as ``classify`` reports it in ``decision.avidities``."""

    def test_single_identical_antibody(self):
        test = np.array([1.0, 2.0])
        pools = {0: pool_from([test.copy()])}
        assert classify(test, pools, tau_match=0.5).avidities[0] == 1.0

    def test_mean_of_two(self):
        # affinities 1.0 (same direction) and 0.5 (orthogonal) average to 0.75
        test = np.array([1.0, 0.0])
        pools = {0: pool_from([[2.0, 0.0], [0.0, 1.0]])}
        decision = classify(test, pools, tau_match=0.5)
        assert abs(decision.avidities[0] - 0.75) < 1e-15

    def test_empty_set_rejected(self):
        # c_min >= 1 is what keeps phase 2 off an empty match set
        pools = {0: pool_from([np.ones(3)])}
        with pytest.raises(ConfigurationError, match="c_min"):
            classify(np.ones(3), pools, tau_match=0.5, c_min=0)

    def test_matches_average_oracle(self):
        rng = np.random.default_rng(3)
        pools = {c: pool_from(rng.normal(size=(10, 6)), label=c)
                 for c in range(3)}
        tau = 0.4
        checked = 0
        for _ in range(20):
            test = rng.normal(size=6)
            decision = classify(test, pools, tau)
            for c, pool in pools.items():
                matched = [a for a in (affinity_naive(test, row)
                                       for row in pool.matrix) if a >= tau]
                if matched:
                    checked += 1
                    assert abs(decision.avidities[c] - np.mean(matched)) < 1e-12
                else:
                    assert c not in decision.avidities
        assert checked > 0


class TestClassify:
    def test_exact_member_wins_with_known_score(self):
        test = unit(0)
        pools = {
            0: pool_from([test, unit(0) * 2.0], label=0),
            1: pool_from([unit(1), unit(2)], label=1),
            2: pool_from([unit(3)], label=2),
        }
        decision = classify(test, pools, tau_match=0.9)
        assert decision.predicted_class == 0
        assert not decision.no_match
        # both members of pool 0 are collinear with the test feature
        assert decision.scores[0] == pytest.approx(2 / 2 + 1.0)
        assert 1 not in decision.scores and 2 not in decision.scores

    def test_everything_below_threshold_is_no_match(self):
        pools = {0: pool_from([unit(1)], label=0),
                 1: pool_from([unit(2)], label=1)}
        decision = classify(unit(0), pools, tau_match=0.6)
        assert decision.no_match
        assert decision.predicted_class is None
        assert decision.counts == {0: 0, 1: 0}
        assert decision.scores == {}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        pools = {c: pool_from(rng.normal(size=(6, 5)), label=c)
                 for c in range(3)}
        tau, c_min = 0.45, 1
        for _ in range(25):
            test = rng.normal(size=5)
            decision = classify(test, pools, tau, c_min=c_min)
            scores = {}
            for c, pool in pools.items():
                affs = [affinity_naive(test, row) for row in pool.matrix]
                qualified = [a for a in affs if a >= tau]
                if len(qualified) >= c_min:
                    scores[c] = len(qualified) / len(pool) \
                        + np.mean(qualified)
            if not scores:
                assert decision.no_match
            else:
                best = min(scores, key=lambda c: (-scores[c], c))
                assert decision.predicted_class == best
                for c in scores:
                    assert decision.scores[c] == pytest.approx(scores[c])

    def test_single_qualified_class_wins(self):
        pools = {3: pool_from([unit(0)], label=3),
                 5: pool_from([unit(1)], label=5)}
        decision = classify(unit(0) + 0.05, pools, tau_match=0.8)
        assert decision.predicted_class == 3

    def test_tie_broken_by_lower_class_id(self):
        shared = unit(0)
        pools = {4: pool_from([shared], label=4),
                 2: pool_from([shared.copy()], label=2)}
        decision = classify(shared, pools, tau_match=0.5)
        assert decision.predicted_class == 2

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        pools = {c: pool_from(rng.normal(size=(5, 4)), label=c)
                 for c in range(3)}
        test = rng.normal(size=4)
        a = classify(test, pools, tau_match=0.5)
        b = classify(test * 37.5, pools, tau_match=0.5)
        assert a.predicted_class == b.predicted_class
        assert a.counts == b.counts

    def test_c_min_gates_phase_two(self):
        test = unit(0)
        pools = {0: pool_from([test, unit(1)], label=0)}
        strict = classify(test, pools, tau_match=0.9, c_min=2)
        assert strict.no_match
        loose = classify(test, pools, tau_match=0.9, c_min=1)
        assert loose.predicted_class == 0

    def test_raw_count_mode(self):
        test = unit(0)
        pools = {0: pool_from([test, test * 2.0, test * 3.0], label=0)}
        decision = classify(test, pools, tau_match=0.5, raw_count=True)
        assert decision.scores[0] == pytest.approx(3 + 1.0)

    @pytest.mark.parametrize("tau_match", [np.nan, 2.0, -0.1, np.inf])
    def test_tau_match_outside_unit_interval_rejected(self, tau_match):
        # such a threshold used to make every row a silent no-match
        pools = {0: pool_from([unit(0)], label=0)}
        with pytest.raises(ConfigurationError, match="tau_match"):
            classify(unit(0), pools, tau_match=tau_match)
        with pytest.raises(ConfigurationError, match="tau_match"):
            classify_batch(np.stack([unit(0), unit(1)]), pools, tau_match)

    def test_nan_c_min_rejected(self):
        # a row without matches used to raise a bare ZeroDivisionError
        pools = {0: pool_from([unit(0)], label=0)}
        with pytest.raises(ConfigurationError, match="c_min"):
            classify(unit(1), pools, tau_match=0.9, c_min=np.nan)

    def test_no_pools_rejected(self):
        with pytest.raises(ConfigurationError):
            classify(np.ones(3), {}, tau_match=0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_or_member_raises(self, value):
        # a NaN feature used to be predicted as class 0 with avidity 0.0
        bad = unit(1)
        bad[0] = value
        pools = {0: pool_from([unit(0)], label=0),
                 1: pool_from([unit(1)], label=1)}
        with pytest.raises(UndefinedAffinityError):
            classify(bad, pools, tau_match=0.0)
        # a non-finite member is refused when its pool is built, before
        # any classify
        with pytest.raises(ConfigurationError, match="class 1: .* not finite"):
            pool_from([bad], label=1)


def oracle_decision(feature, pools, tau, c_min, raw_count):
    """(predicted class or None, counts, avidities, scores) from one
    ``pool_affinities`` row per non-empty pool."""
    counts, avidities, scores = {}, {}, {}
    for label in sorted(pools):
        pool = pools[label]
        counts[label] = 0
        if not len(pool):
            continue
        row = pool_affinities(feature[None, :], pool)[0]
        matched = row[row >= tau]
        counts[label] = len(matched)
        if len(matched) >= c_min:
            avidities[label] = float(matched.mean())
            count_term = len(matched) if raw_count else len(matched) / len(pool)
            scores[label] = count_term + avidities[label]
    ranked = sorted(scores, key=lambda c: (-scores[c], c))
    return (ranked[0] if ranked else None), counts, avidities, scores


def integer_rows(draw, n, width):
    """(n, width) small-integer rows with no zero row. Integer coordinates
    make every dot product and squared norm exact, so an affinity does not
    depend on how many rows share the matrix product it comes from."""
    rows = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * width,
                                  max_size=n * width)),
                    dtype=np.float64).reshape(n, width)
    rows[~rows.any(axis=1), 0] = 1.0
    return rows


class TestClassifyBatch:
    @pytest.mark.parametrize("empty_at", [0, 2, 4],
                             ids=["first", "middle", "last"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_pool_oracle(self, empty_at, data):
        """Each row's decision equals a per-pool ``pool_affinities`` loop:
        classes, no-match flags and counts exactly, avidities and scores to
        1e-15 (the segment sums add the matches in another order). Scores
        that tie to within 1e-12 may rank either way."""
        width = data.draw(st.integers(1, 5), label="width")
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=5,
                                   max_size=5), label="sizes")
        sizes[empty_at] = 0
        labels = [2, 4, 5, 7, 9]
        built = {label: pool_from(integer_rows(data.draw, size, width),
                                  label=label, capacity=size + 2)
                 for label, size in zip(labels, sizes)}
        # inserted out of label order
        pools = {label: built[label] for label in (9, 2, 7, 4, 5)}
        features = integer_rows(data.draw, data.draw(st.integers(1, 6)), width)
        tau = data.draw(st.floats(0.0, 1.0), label="tau")
        c_min = data.draw(st.integers(1, 3), label="c_min")
        raw_count = data.draw(st.booleans(), label="raw_count")

        decisions = classify_batch(features, pools, tau, c_min, raw_count)
        assert len(decisions) == len(features)
        for feature, decision in zip(features, decisions):
            predicted, counts, avidities, scores = oracle_decision(
                feature, pools, tau, c_min, raw_count)
            assert decision.counts == counts
            assert list(decision.counts) == sorted(pools)
            assert decision.no_match == (predicted is None)
            assert decision.avidities.keys() == avidities.keys()
            for c in avidities:
                assert abs(decision.avidities[c] - avidities[c]) <= 1e-15
                assert abs(decision.scores[c] - scores[c]) <= 1e-15
            if predicted is not None:
                best = scores[predicted]
                tied = {c for c in scores if best - scores[c] <= 1e-12}
                assert decision.predicted_class in tied
                if len(tied) == 1:
                    assert decision.predicted_class == predicted
            assert classify(feature, pools, tau, c_min, raw_count) \
                == classify_batch(feature[None, :], pools, tau, c_min,
                                  raw_count)[0]

    def test_empty_pool_positions(self):
        # the empty pool's class sits first, in the middle and last in label
        # order; every other class keeps its own count
        full = {label: pool_from([unit(label % 4), unit(label % 4) * 2.0],
                                 label=label) for label in (1, 2, 3)}
        for empty in (0, 2, 5):
            pools = {**full, empty: MemoryPool(class_label=empty, capacity=4)}
            decisions = classify_batch(np.stack([unit(1), unit(3)]), pools,
                                       tau_match=0.9)
            assert [d.counts for d in decisions] == [
                {c: 2 if c == 1 else 0 for c in sorted(pools)},
                {c: 2 if c == 3 else 0 for c in sorted(pools)}]
            assert [d.predicted_class for d in decisions] == [1, 3]

    def test_pools_of_different_widths_name_the_class(self):
        pools = {0: pool_from([np.ones(4)], label=0),
                 1: pool_from([np.ones(5)], label=1)}
        with pytest.raises(DimensionError, match="class 1"):
            classify_batch(np.ones((2, 4)), pools, tau_match=0.5)
        with pytest.raises(DimensionError, match="class 0"):
            classify(np.ones(5), pools, tau_match=0.5)

    def test_feature_width_matching_no_pool_names_a_class(self):
        pools = {3: pool_from([np.ones(4)], label=3),
                 6: pool_from([np.ones(4)], label=6)}
        with pytest.raises(DimensionError, match="class 3"):
            classify(np.ones(6), pools, tau_match=0.5)

    def test_batch_of_another_width_names_the_lowest_filled_class(self):
        pools = {0: MemoryPool(class_label=0, capacity=3),
                 2: pool_from([np.ones(4)], label=2),
                 5: pool_from([np.ones(4)], label=5)}
        message = "rows of width 3 do not fit the width-4 pool of class 2$"
        for call in (lambda: classify_batch(np.ones((2, 3)), pools, 0.5),
                     lambda: classify_batch(np.ones((0, 3)), pools, 0.5),
                     lambda: classify(np.ones(3), pools, 0.5)):
            with pytest.raises(DimensionError, match=message):
                call()

    def test_pools_of_different_widths_are_the_set_rule_error(self):
        pools = {0: pool_from([np.ones(4)], label=0),
                 1: MemoryPool(class_label=1, capacity=2),
                 2: pool_from([np.ones(5)], label=2)}
        message = re.escape("pools must share one width: class 0 has width "
                            "4, class 2 width 5")
        for width in (4, 5, 6):
            with pytest.raises(DimensionError, match=message):
                classify_batch(np.ones((1, width)), pools, tau_match=0.5)

    def test_batch_must_be_rows(self):
        pools = {0: pool_from([np.ones(3)])}
        with pytest.raises(DimensionError):
            classify_batch(np.ones(3), pools, tau_match=0.5)
        with pytest.raises(DimensionError):
            classify(np.ones((1, 3)), pools, tau_match=0.5)

    def test_empty_batch(self):
        pools = {0: pool_from([np.ones(3)])}
        assert classify_batch(np.empty((0, 3)), pools, tau_match=0.5) == []

    @pytest.mark.parametrize("rows", [1, 7])
    def test_one_affinity_call_per_batch(self, monkeypatch, rows):
        rng = np.random.default_rng(8)
        pools = {c: pool_from(rng.normal(size=(5, 6)), label=c)
                 for c in range(4)}
        pools[4] = MemoryPool(class_label=4, capacity=5)
        calls = []
        real = clonal._affinity_table

        def counting(queries, blocks):
            calls.append((queries.shape, *(reference[0].shape
                                           for *_, reference in blocks)))
            return real(queries, blocks)

        monkeypatch.setattr(clonal, "_affinity_table", counting)
        features = rng.normal(size=(rows, 6))
        if rows == 1:
            classify(features[0], pools, tau_match=0.5)
        else:
            classify_batch(features, pools, tau_match=0.5)
        assert calls == [((rows, 6), (20, 6))]


class TestStackedPoolCache:
    def pools(self):
        rng = np.random.default_rng(9)
        return {c: pool_from(rng.normal(size=(6, 5)), label=c)
                for c in range(3)}

    def test_repeated_calls_stack_once(self):
        pools = self.pools()
        classifier._stacked.cache_clear()
        for feature in np.random.default_rng(10).normal(size=(4, 5)):
            classify(feature, dict(pools), tau_match=0.5)
        info = classifier._stacked.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_new_class_pool_restacks(self):
        pools = self.pools()
        rng = np.random.default_rng(11)
        feature = rng.normal(size=5)
        classifier._stacked.cache_clear()
        classify(feature, pools, tau_match=0.5)
        pools[7] = init_new_class(feature, 7, CloneConfig(memory_capacity=4),
                                  rng, existing=pools)
        decision = classify(feature, pools, tau_match=0.5)
        assert classifier._stacked.cache_info().misses == 2
        assert decision.counts[7] >= 1

    def test_decisions_equal_the_uncached_stack(self, monkeypatch):
        pools = self.pools()
        features = np.random.default_rng(12).normal(size=(8, 5))
        cached = [classify_batch(features, pools, 0.5) for _ in range(2)]
        monkeypatch.setattr(classifier, "_stacked",
                            classifier._stacked.__wrapped__)
        uncached = classify_batch(features, pools, 0.5)
        assert cached[0] == cached[1] == uncached

    @pytest.mark.parametrize("keys", [(0.0, 1.0), (0, True)])
    def test_kept_stack_refuses_keys_equal_to_its_labels(self, keys):
        # 0.0 == 0 and True == 1 with equal hashes; the refusal must not
        # depend on whether integer-keyed pools were classified before
        p0, p1 = self.pools()[0], self.pools()[1]
        feature = np.random.default_rng(13).normal(size=5)
        for warm in (False, True):
            classifier._stacked.cache_clear()
            if warm:
                classify(feature, {0: p0, 1: p1}, tau_match=0.5)
            with pytest.raises(ConfigurationError):
                classify(feature, dict(zip(keys, (p0, p1))), tau_match=0.5)


# row scales whose squared norms are normal, below 2^-510, above 2^510, zero
ROW_SCALES = {"normal": 1.0, "tiny": 1e-200, "huge": 1e200, "zero": 0.0}


class TestCachedNorms:
    """``pool_affinities`` and ``classify_batch`` read the reference side's
    squared norms from a cache; their tables are ``affinity_matrix``'s."""

    @staticmethod
    def same(cached, uncached):
        """Both raise the same error, or give the same bits; returns the
        error type or None."""
        try:
            want = uncached()
        except (UndefinedAffinityError, DimensionError) as err:
            with pytest.raises(type(err)):
                cached()
            return type(err)
        got = cached()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return None

    @pytest.mark.parametrize("query", ["drawn", "zero", "wide"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cached_paths_equal_affinity_matrix(self, query, data):
        width = data.draw(st.integers(1, 6), label="width")
        kinds = st.lists(st.sampled_from(sorted(ROW_SCALES)), min_size=1,
                         max_size=5)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

        def rows(names):
            return np.stack([ROW_SCALES[name] * rng.normal(size=width)
                             for name in names])

        pool_kinds = [data.draw(kinds, label="pool rows")
                      for _ in range(data.draw(st.integers(1, 3)))]
        expected = None
        if query == "zero":
            # pool 0 holds a zero row, so an all-zero query cannot score it
            pool_kinds[0].append("zero")
            features, expected = np.zeros((2, width)), UndefinedAffinityError
        elif query == "wide":
            features = rng.normal(size=(2, width + 1))
            expected = DimensionError
        else:
            features = rows(data.draw(kinds, label="queries"))
        pools = {label: pool_from(rows(names), label=label)
                 for label, names in enumerate(pool_kinds)}

        for label, pool in pools.items():
            # the first call fills the pool's cache, the second reads it
            for _ in range(2):
                error = self.same(lambda: pool_affinities(features, pool),
                                  lambda: clonal.affinity_matrix(features,
                                                                 pool.matrix))
                if label == 0 and expected:
                    assert error is expected

        blocks = []
        real = clonal._affinity_table

        def recording(queries, references):
            blocks.append(real(queries, references))
            return blocks[-1]

        def classify_block():
            blocks.clear()
            classify_batch(features, pools, tau_match=0.5)
            (block,) = blocks
            return block

        stack = np.concatenate([pool.matrix for pool in pools.values()])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clonal, "_affinity_table", recording)
            # the first call builds the classifier's stack, the second reads it
            for _ in range(2):
                error = self.same(classify_block,
                                  lambda: clonal.affinity_matrix(features,
                                                                 stack))
                if expected:
                    assert error is expected


class TestInitNewClass:
    def test_capacity_one_is_exact_seed(self):
        config = CloneConfig(memory_capacity=1)
        pool = init_new_class(np.array([1.0, 2.0]), 9, config,
                              np.random.default_rng(0), existing={})
        assert len(pool) == 1
        assert np.array_equal(pool.matrix, [[1.0, 2.0]])

    def test_pool_size_equals_capacity(self):
        config = CloneConfig(memory_capacity=7)
        pool = init_new_class(np.ones(4), 2, config, np.random.default_rng(1),
                              existing={})
        assert len(pool) == 7
        assert pool.capacity == 7

    def test_small_sigma_members_stay_close_to_seed(self):
        config = CloneConfig(sigma=0.01, memory_capacity=10, tau=0.6)
        seed_feature = np.random.default_rng(2).normal(size=64)
        for seed in range(5):
            pool = init_new_class(seed_feature, 1, config,
                                  np.random.default_rng(seed), existing={})
            for row in pool.matrix:
                assert affinity_naive(row, seed_feature) >= config.tau

    @pytest.mark.parametrize("label", [2.5, -1, True, [1]],
                             ids=["2.5", "-1", "True", "[1]"])
    def test_label_that_is_not_a_class_id_rejected_before_any_draw(self,
                                                                  label):
        # a label of 2.5 used to build a pool that save_pools wrote and
        # load_pools refused, and [1] to raise a bare "unhashable" TypeError
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="class_label"):
            init_new_class(np.ones(3), label, CloneConfig(memory_capacity=3),
                           rng, existing={})
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("existing", [[0], "ab"], ids=["list", "str"])
    def test_existing_that_is_not_a_set_of_pools_rejected_before_any_draw(
            self, existing):
        # a list used to raise "'list' object is not a mapping", and a
        # string "'in <string>' requires string as left operand"
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError,
                           match=f"pools must be a dict, got "
                                 f"{type(existing).__name__}"):
            init_new_class(np.ones(3), 1, CloneConfig(memory_capacity=3),
                           rng, existing=existing)
        assert rng.bit_generator.state == state

    def test_label_collision_rejected(self):
        config = CloneConfig(memory_capacity=2)
        existing = {4: pool_from([np.ones(2)], label=4)}
        with pytest.raises(ConfigurationError):
            init_new_class(np.ones(2), 4, config,
                           np.random.default_rng(0), existing=existing)

    def test_feature_that_misfits_the_set_rejected_before_any_draw(self):
        # a width-7 pool used to join a width-4 set, and every classify on
        # the set then failed
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        existing = {0: pool_from([np.ones(4)], label=0),
                    2: MemoryPool(class_label=2, capacity=3)}
        with pytest.raises(DimensionError,
                           match=re.escape("class 0 has width 4, class 1 "
                                           "width 7")):
            init_new_class(np.ones(7), 1, CloneConfig(memory_capacity=3),
                           rng, existing=existing)
        assert rng.bit_generator.state == state

    def test_feature_that_fits_the_set_joins_it(self):
        config = CloneConfig(memory_capacity=3)
        existing = {0: pool_from([unit(0)], label=0)}
        alone = init_new_class(unit(1), 1, config, np.random.default_rng(4),
                               existing={})
        joined = init_new_class(unit(1), 1, config, np.random.default_rng(4),
                                existing=existing)
        assert joined.matrix.tobytes() == alone.matrix.tobytes()
        assert joined.scores.tobytes() == alone.scores.tobytes()
        existing[1] = joined
        assert classify(unit(1), existing, 0.9).predicted_class == 1
        # a set of empty pools has no width to fit
        empty = {0: MemoryPool(class_label=0, capacity=2)}
        assert len(init_new_class(np.ones(7), 1, config,
                                  np.random.default_rng(4),
                                  existing=empty)) == 3

    @pytest.mark.parametrize("shape", [(2, 3), (1, 4), ()],
                             ids=["matrix", "row", "scalar"])
    def test_feature_that_is_not_a_vector_rejected(self, shape):
        # a (2, 3) feature used to raise numpy's bare broadcast ValueError
        with pytest.raises(DimensionError,
                           match=re.escape(f"got shape {shape}")):
            init_new_class(np.ones(shape), 0, CloneConfig(memory_capacity=3),
                           np.random.default_rng(0), existing={})

    def test_member_scores_match_scalar_affinity(self):
        config = CloneConfig(sigma=0.3, memory_capacity=9)
        seed_feature = np.random.default_rng(4).normal(size=16)
        pool = init_new_class(seed_feature, 0, config, np.random.default_rng(5),
                              existing={})
        for row, score in zip(pool.matrix, pool.scores):
            assert abs(score - affinity_naive(row, seed_feature)) < 1e-12

    @pytest.mark.parametrize("capacity", [1, 2, 6, 30, 150])
    def test_variants_equal_one_draw_per_variant(self, capacity):
        """All variants come from one ``mutate`` call; they equal one call per
        variant, and leave the generator in the same state."""
        config = CloneConfig(sigma=0.4, memory_capacity=capacity)
        seed_feature = np.random.default_rng(6).normal(size=12)
        rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
        pool = init_new_class(seed_feature, 0, config, rng, existing={})
        variants = [mutate(seed_feature, 1.0, config.sigma, loop_rng)
                    for _ in range(capacity - 1)]
        expected = [seed_feature.tolist()] + [v.tolist() for v in variants]
        assert sorted(pool.matrix.tolist()) == sorted(expected)
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("capacity", [1, 2, 9])
    def test_pool_is_one_merge_of_the_seed_and_its_variants(self, capacity):
        # the seed's one-row pool takes the variants: the pool one merge of
        # the seed and the variants gives, byte for byte
        config = CloneConfig(sigma=0.3, memory_capacity=capacity)
        seed_feature = np.random.default_rng(8).normal(size=5)
        pool = init_new_class(seed_feature, 2, config,
                              np.random.default_rng(9), existing={})
        variants = mutate(np.broadcast_to(seed_feature, (capacity - 1, 5)),
                          1.0, config.sigma, np.random.default_rng(9))
        expected = clonal.update_memory(
            MemoryPool(class_label=2, capacity=capacity),
            np.vstack([seed_feature, variants]),
            [1.0, *clonal.affinity_matrix(variants, seed_feature)[:, 0]])
        assert pool.matrix.tobytes() == expected.matrix.tobytes()
        assert pool.scores.tobytes() == expected.scores.tobytes()

    def test_members_sorted_by_score(self):
        config = CloneConfig(memory_capacity=6)
        pool = init_new_class(np.ones(8), 0, config, np.random.default_rng(3),
                              existing={})
        scores = pool.scores.tolist()
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == 1.0


def written_records(tmp_path, decisions, class_ids):
    """The lines ``write_decision_records`` writes, split at commas."""
    path = tmp_path / "decisions.csv"
    write_decision_records(path, decisions, class_ids)
    text = path.read_text()
    assert text.endswith("\n")
    return [line.split(",") for line in text.splitlines()]


class TestDecisionRecords:
    def test_header_lists_classes_in_order(self, tmp_path):
        header, = written_records(tmp_path, [], [2, 0, 1])
        assert header == ["test_id", "predicted",
                          "count_0", "avidity_0", "score_0",
                          "count_1", "avidity_1", "score_1",
                          "count_2", "avidity_2", "score_2"]

    def test_record_for_match(self, tmp_path):
        decision = Decision(predicted_class=1, no_match=False,
                            counts={0: 0, 1: 2},
                            avidities={1: 0.75}, scores={1: 1.75})
        _, fields = written_records(tmp_path, [decision], [1, 0])
        assert fields[0] == "0"
        assert fields[1] == "1"
        assert fields[2] == "0"          # class 0 count
        assert fields[3] == "" and fields[4] == ""
        assert fields[5] == "2"
        assert float(fields[6]) == 0.75
        assert fields[7] == "1.75"

    def test_record_for_no_match(self, tmp_path):
        decision = Decision(predicted_class=None, no_match=True,
                            counts={0: 0})
        _, fields = written_records(tmp_path, [decision], [0])
        assert fields == ["0", NOMATCH, "0", "", ""]

    def test_file_round_trip(self, tmp_path):
        decisions = [
            Decision(predicted_class=0, no_match=False, counts={0: 1},
                     avidities={0: 1.0}, scores={0: 2.0}),
            Decision(predicted_class=None, no_match=True, counts={0: 0}),
        ]
        lines = written_records(tmp_path, decisions, [0])
        assert len(lines) == 3
        assert lines[0] == ["test_id", "predicted", "count_0", "avidity_0",
                            "score_0"]
        assert lines[1] == ["0", "0", "1", "1.0", "2.0"]
        assert lines[2][:2] == ["1", NOMATCH]


def test_one_image_decision_enters_no_numpy_python_helpers(
        numpy_helpers_entered):
    # numpy helpers written in Python (as_strided, np.prod, the
    # ndarray.min/max wrappers) cost more per image than the arithmetic
    # they wrap, so the per-image path keeps to C entry points
    params = nn.init_params(0, nn.ArchConfig())
    rng = np.random.default_rng(0)
    pools = {label: pool_from(rng.normal(size=(5, 64)), label)
             for label in range(3)}
    image = rng.random((28, 28))
    # the first decision builds the pools' stack
    classify(nn.forward_features(params, image)[0], pools, 0.5)
    decision, entered = numpy_helpers_entered(
        lambda: classify(nn.forward_features(params, image)[0], pools, 0.5))
    assert not decision.no_match
    assert entered == set()
