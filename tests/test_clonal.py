import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clonalnet import clonal
from clonalnet.clonal import (
    Antibody, CloneConfig, ClonalExpander, MemoryPool, affinity_naive,
    clonalg_run, clone_count, crossover, generate_clones, load_pools, mutate,
    mutation_rate, pool_affinities, save_pools, update_memory,
)
from clonalnet.errors import (ConfigurationError, DimensionError,
                              UndefinedAffinityError)


def finite_vectors(width):
    return st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=width, max_size=width,
    ).map(lambda xs: np.array(xs, dtype=np.float64))


class TestAffinity:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, -3.0])
        assert affinity_naive(v, v) == 1.0

    def test_orthogonal(self):
        assert affinity_naive(np.array([1.0, 0.0]),
                              np.array([0.0, 1.0])) == 0.5

    def test_opposite(self):
        v = np.array([2.0, -1.0])
        assert affinity_naive(v, -v) == 0.0

    def test_both_zero_undefined(self):
        z = np.zeros(3)
        with pytest.raises(UndefinedAffinityError):
            affinity_naive(z, z)

    def test_single_zero_counts_as_orthogonal(self):
        assert affinity_naive(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.5

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            affinity_naive(np.zeros(2), np.zeros(3))

    def test_subnormal_norm_is_not_a_zero_vector(self):
        # squared norm underflows to 0.0 but the vector has a direction
        tiny = np.array([0.0, 0.0, 0.0, 1.4309679698518183e-256])
        assert affinity_naive(np.zeros(4), tiny) == 0.5
        assert affinity_naive(tiny, np.zeros(4)) == 0.5

    def test_extreme_magnitudes_renormalized(self):
        tiny = np.full(4, 1e-200)
        assert affinity_naive(tiny, tiny) == 1.0
        assert affinity_naive(tiny, -tiny) == 0.0
        huge = np.full(4, 1e200)
        assert affinity_naive(huge, huge) == 1.0
        assert affinity_naive(huge, tiny) == 1.0
        assert affinity_naive(np.array([1e-270, 0.0]),
                              np.array([0.0, 1e-270])) == 0.5

    def test_extreme_magnitudes_emit_no_warnings(self):
        huge, tiny = np.full(4, 1e200), np.full(4, 1e-200)
        pairs = [(np.array([1e200, 1.0]), np.array([1.0, 1e200]), 0.5),
                 (np.array([1e200, 1.0]), np.array([1e200, 1.0]), 1.0),
                 (huge, huge, 1.0), (huge, -huge, 0.0), (huge, tiny, 1.0),
                 (tiny, -tiny, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b, expected in pairs:
                assert affinity_naive(a, b) == expected

    @given(finite_vectors(4), finite_vectors(4))
    def test_symmetric_and_bounded(self, a, b):
        if not a.any() and not b.any():
            return
        x = affinity_naive(a, b)
        assert affinity_naive(b, a) == x
        assert 0.0 <= x <= 1.0

    @given(finite_vectors(4), st.floats(0.01, 100))
    def test_scale_invariant(self, v, c):
        if not v.any():
            return
        # scaling must keep every nonzero component a normal float: once a
        # component underflows, the direction itself is gone and no
        # implementation could recover it
        nonzero = v != 0
        tiny = np.finfo(np.float64).tiny
        if np.any(np.abs(v)[nonzero] < tiny) \
                or np.any(np.abs(c * v)[nonzero] < tiny):
            return
        other = np.arange(1.0, 5.0)
        assert abs(affinity_naive(c * v, other)
                   - affinity_naive(v, other)) < 1e-12


class TestCloneCount:
    def test_formula_at_full_affinity(self):
        assert clone_count(1.0, eta=10, tau=0.5) == 10

    def test_below_threshold_is_zero(self):
        assert clone_count(0.3, eta=10, tau=0.5) == 0

    def test_minimum_one_above_threshold(self):
        assert clone_count(0.9, eta=0.1, tau=0.5) == 1

    def test_eta_zero_disables_cloning(self):
        assert clone_count(1.0, eta=0.0, tau=0.5) == 0

    def test_round_half_up(self):
        assert clone_count(0.7, eta=5, tau=0.0) == 4   # 3.5 rounds up

    def test_monotone_over_grid(self):
        grid = np.linspace(0.0, 1.0, 100)
        counts = [clone_count(a, eta=7.0, tau=0.4) for a in grid]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))


class TestMutationRate:
    def test_formula(self):
        assert mutation_rate(1.0, alpha=0.1) == 0.1

    def test_cap_near_zero_affinity(self):
        assert mutation_rate(0.001, alpha=0.1) == 1.0

    def test_zero_affinity_saturates(self):
        assert mutation_rate(0.0, alpha=0.1) == 1.0

    def test_monotone_non_increasing_over_grid(self):
        grid = np.linspace(0.0, 1.0, 100)
        rates = [mutation_rate(a, alpha=0.2) for a in grid]
        assert all(r2 <= r1 for r1, r2 in zip(rates, rates[1:]))


class TestMutate:
    def test_zero_scale_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        rng = np.random.default_rng(0)
        assert np.array_equal(mutate(v, rate=0.5, sigma=0.0, rng=rng), v)

    def test_width_preserved(self):
        rng = np.random.default_rng(1)
        assert mutate(np.zeros(17), 0.3, 0.2, rng).shape == (17,)

    def test_empirical_std(self):
        rng = np.random.default_rng(2)
        rate, sigma = 0.4, 0.25
        draws = np.stack([mutate(np.zeros(10), rate, sigma, rng)
                          for _ in range(1000)])
        measured = draws.ravel().std()
        assert abs(measured - rate * sigma) / (rate * sigma) < 0.05

    def test_zero_mean(self):
        rng = np.random.default_rng(3)
        draws = np.stack([mutate(np.zeros(10), 1.0, 0.5, rng)
                          for _ in range(1000)])
        se = 0.5 / np.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * se


class TestCrossover:
    def test_identical_parents(self):
        v = np.array([3.0, 1.0, 4.0])
        rng = np.random.default_rng(0)
        assert np.array_equal(crossover(v, v, rng), v)

    def test_components_come_from_parents(self):
        rng = np.random.default_rng(4)
        a = np.arange(10.0)
        b = -np.arange(10.0) - 1.0
        child = crossover(a, b, rng)
        assert all(child[i] in (a[i], b[i]) for i in range(10))

    def test_source_proportion_half(self):
        rng = np.random.default_rng(5)
        a = np.ones(100)
        b = np.zeros(100)
        total = sum(crossover(a, b, rng).sum() for _ in range(100))
        n = 100 * 100
        se = 0.5 * np.sqrt(n)
        assert abs(total - n / 2) < 3 * se

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            crossover(np.zeros(3), np.zeros(4), np.random.default_rng(0))


def pool_of(features, label=0, capacity=10):
    matrix = np.asarray(features, dtype=np.float64)
    return MemoryPool(label, capacity, matrix=matrix,
                      scores=1.0 - 0.01 * np.arange(len(matrix)))


class TestPoolAffinities:
    def test_matches_scalar_affinity(self):
        rng = np.random.default_rng(6)
        pool = pool_of(rng.normal(size=(5, 8)))
        queries = rng.normal(size=(4, 8))
        table = pool_affinities(queries, pool)
        for i in range(4):
            for j in range(5):
                expected = affinity_naive(queries[i], pool.matrix[j])
                assert abs(table[i, j] - expected) < 1e-12

    def test_matches_scalar_at_extreme_magnitudes(self):
        rng = np.random.default_rng(11)
        members = np.array([
            [1e-200, 2e-200, -1e-200, 0.0],
            [0.0, 0.0, 0.0, 1.4309679698518183e-256],
            [1.0, -2.0, 3.0, 4.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        pool = pool_of(members)
        queries = np.stack([
            np.array([1e-201, 0.0, 0.0, 0.0]),
            rng.normal(size=4),
            np.full(4, 1e190),
        ])
        table = pool_affinities(queries, pool)
        for i in range(queries.shape[0]):
            for j in range(members.shape[0]):
                expected = affinity_naive(queries[i], members[j])
                assert abs(table[i, j] - expected) < 1e-12

    def test_zero_query_against_nonzero_pool(self):
        pool = pool_of([[1.0, 0.0], [0.0, 2.0]])
        table = pool_affinities(np.zeros((1, 2)), pool)
        assert np.allclose(table, 0.5)

    def test_zero_query_against_zero_member(self):
        pool = pool_of([[0.0, 0.0]])
        with pytest.raises(UndefinedAffinityError):
            pool_affinities(np.zeros((1, 2)), pool)

    def test_empty_pool_rejected(self):
        empty = MemoryPool(class_label=0, capacity=3)
        with pytest.raises(ConfigurationError):
            pool_affinities(np.ones((1, 2)), empty)


class TestPoolNorms:
    def test_reference_side_rescaled_once_per_pool(self, monkeypatch):
        rng = np.random.default_rng(14)
        pool = pool_of(rng.normal(size=(4, 3)))
        seen = []
        real = clonal._rescaled

        def counting(x):
            seen.append(x)
            return real(x)

        monkeypatch.setattr(clonal, "_rescaled", counting)

        def reference_calls(p):
            return sum(x is p.matrix for x in seen)

        pool_affinities(rng.normal(size=(2, 3)), pool)
        pool_affinities(rng.normal(size=(1, 3)), pool)
        feature = pool.matrix[:1].copy()
        config = CloneConfig(eta=3.0, tau=0.0, memory_capacity=6)
        assert generate_clones(feature, np.ones(1), [0], {0: pool}, config,
                               np.random.default_rng(0))
        assert (reference_calls(pool), len(seen)) == (1, 4)
        grown = update_memory(pool, rng.normal(size=(2, 3)), [0.5, 0.4])
        pool_affinities(rng.normal(size=(1, 3)), grown)
        pool_affinities(rng.normal(size=(1, 3)), grown)
        assert (reference_calls(pool), reference_calls(grown)) == (1, 1)
        assert len(seen) == 7

    def test_cached_norms_are_read_only(self):
        pool = pool_of([[1e-200, 0.0], [0.0, 0.0], [1.0, 2.0]])
        rows, sq, zero = pool.rescaled
        assert zero and not rows.flags.writeable and not sq.flags.writeable
        assert pool.rescaled is pool.rescaled


class TestAffinityMatrix:
    @pytest.mark.parametrize("special", [("zero", "tiny", "huge"), ("zero",),
                                         ("tiny",), ("huge",)])
    def test_mixed_batch_matches_scalar_and_normal_rows(self, special):
        """Zero and extreme-magnitude rows in one call with normal rows: every
        entry matches the scalar ``affinity_naive``, and the normal rows keep
        the values the same-shaped all-normal call gives them, bit for bit."""
        rng = np.random.default_rng(12)
        references = rng.normal(size=(7, 6))
        rows = {"zero": np.zeros(6), "tiny": np.full(6, 1e-200),
                "huge": rng.normal(size=6) * 1e200}
        plain = rng.normal(size=(6, 6))
        mixed = plain.copy()
        at = [1, 3, 4][:len(special)]
        mixed[at] = [rows[name] for name in special]
        normal = [i for i in range(len(mixed)) if i not in at]

        table = clonal.affinity_matrix(mixed, references)
        reference_table = clonal.affinity_matrix(plain, references)
        for i in range(len(mixed)):
            for j in range(len(references)):
                expected = affinity_naive(mixed[i], references[j])
                assert abs(table[i, j] - expected) < 1e-12
        assert np.array_equal(table[normal], reference_table[normal])
        # a call of another shape may block the matrix product differently
        alone = clonal.affinity_matrix(mixed[normal], references)
        assert np.max(np.abs(table[normal] - alone)) <= 1e-15

    def test_extreme_rows_emit_no_warnings(self):
        batch = np.stack([np.ones(3), np.zeros(3), np.full(3, 1e-200),
                          np.full(3, 1e200)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = clonal.affinity_matrix(batch, batch[[0, 2, 3]])
        assert np.all(table[:, 0] == table[:, 1])
        assert np.all(table[1] == 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["query", "reference"])
    def test_non_finite_rows_raise(self, value, side):
        rng = np.random.default_rng(13)
        queries, references = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        (queries if side == "query" else references)[1, 0] = value
        with pytest.raises(UndefinedAffinityError):
            clonal.affinity_matrix(queries, references)
        if side == "query":
            with pytest.raises(UndefinedAffinityError):
                pool_affinities(queries, pool_of(references))
        else:   # a pool refuses a non-finite member when it is built
            with pytest.raises(ConfigurationError, match="not finite"):
                pool_of(references)
        with pytest.raises(UndefinedAffinityError):
            affinity_naive(queries[1], references[1])

    def test_subnormal_norm_pair_matches_exact_value(self):
        # the first row's squared norm is subnormal, the second's overflows
        tiny = np.array([1.3e-160, -0.7e-160, 0.9e-160, 0.2e-160])
        huge = np.array([1.1e150, 0.3e150, 0.5e150, -0.2e150])
        fa, fb = [Fraction(x) for x in tiny], [Fraction(x) for x in huge]
        dot = sum(x * y for x, y in zip(fa, fb))
        norms = sum(x * x for x in fa) * sum(y * y for y in fb)
        exact = (1.0 + math.copysign(math.sqrt(dot * dot / norms), dot)) / 2.0
        assert abs(clonal.affinity_matrix(tiny, huge)[0, 0] - exact) < 1e-12
        assert abs(clonal.affinity_matrix(huge, tiny)[0, 0] - exact) < 1e-12
        assert abs(affinity_naive(tiny, huge) - exact) < 1e-12
        # an underflowed squared norm does not make a zero vector
        assert clonal.affinity_matrix(np.zeros(4), tiny)[0, 0] == 0.5


def best_match(feature, pool):
    """Scalar oracle for a feature's best affinity against a pool."""
    return max(affinity_naive(feature, row) for row in pool.matrix)


def one_class(pool, features, scores, config, rng):
    """``generate_clones`` of a batch whose rows all have ``pool``'s class."""
    features = np.asarray(features, dtype=np.float64)
    return generate_clones(features, np.asarray(scores, dtype=np.float64),
                           [pool.class_label] * len(features),
                           {pool.class_label: pool}, config, rng)


class TestGenerateClones:
    def test_all_below_threshold_empty(self):
        pool = pool_of([[1.0, 0.0, 0.0, 0.0]])
        feature = np.array([-1.0, 0.0, 0.0, 0.0])   # affinity 0.0
        config = CloneConfig(tau=0.6, memory_capacity=5)
        clones = one_class(pool, [feature], [0.0], config,
                           np.random.default_rng(0))
        assert len(clones) == 0
        assert clones.features.shape == (0, 4)

    def test_degenerate_operators_copy_parent(self):
        feature = np.array([0.5, -0.25, 1.0])
        pool = pool_of([feature])
        # crossover with the parent itself as the only peer is the parent
        config = CloneConfig(eta=5.0, sigma=0.0, tau=0.6, memory_capacity=5)
        clones = one_class(pool, [feature], [1.0], config,
                           np.random.default_rng(0))
        assert len(clones) == 5
        assert clones.parents.tolist() == [0] * 5
        for clone_feature, score in zip(clones.features, clones.scores):
            assert np.array_equal(clone_feature, feature)
            assert score == 1.0

    def test_emitted_count_matches_recount_at_tau_zero(self):
        rng = np.random.default_rng(8)
        pool_feats = rng.normal(size=(3, 6))
        pool = pool_of(pool_feats)
        peers = rng.normal(size=(4, 6))
        config = CloneConfig(eta=5.0, tau=0.0, memory_capacity=5)
        scores = [max(affinity_naive(feature, f) for f in pool_feats)
                  for feature in peers]
        clones = one_class(pool, peers, scores, config,
                           np.random.default_rng(9))
        expected = [clone_count(a, config.eta, config.tau) for a in scores]
        assert len(clones) == sum(expected)
        assert np.bincount(clones.parents, minlength=4).tolist() == expected

    def test_output_bounded_and_accepted(self):
        rng = np.random.default_rng(10)
        pool = pool_of(rng.normal(size=(4, 5)))
        peers = rng.normal(size=(6, 5))
        config = CloneConfig(eta=4.0, tau=0.55, memory_capacity=5)
        scores = [best_match(feature, pool) for feature in peers]
        clones = one_class(pool, peers, scores, config,
                           np.random.default_rng(11))
        per_parent = np.bincount(clones.parents, minlength=len(peers))
        for a, emitted in zip(scores, per_parent.tolist()):
            assert emitted <= clone_count(a, config.eta, config.tau)
        assert clones.parents.tolist() == sorted(clones.parents.tolist())
        for clone_feature, score in zip(clones.features, clones.scores):
            assert clone_feature.shape == (5,)
            assert score >= config.tau
            assert abs(score - best_match(clone_feature, pool)) < 1e-12
        assert len(clones) > 0

    @pytest.mark.parametrize("rows, scores, width", [
        (3, 2, 4), (2, 2, 5)], ids=["count", "width"])
    def test_batch_that_does_not_fit_rejected(self, rows, scores, width):
        rng = np.random.default_rng(13)
        pool = pool_of(rng.normal(size=(3, 4)))
        config = CloneConfig(tau=0.0, memory_capacity=5)
        with pytest.raises(DimensionError):
            generate_clones(rng.normal(size=(rows, width)), np.ones(scores),
                            [0] * rows, {0: pool}, config, rng)

    def test_label_without_pool_rejected_before_any_draw(self):
        # used to raise a bare KeyError after the generator had advanced
        rng = np.random.default_rng(14)
        pool = pool_of(rng.normal(size=(3, 4)))
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="label 7 has no pool"):
            generate_clones(np.ones((3, 4)), np.ones(3), [0, 7, 7], {0: pool},
                            CloneConfig(tau=0.0, memory_capacity=5), rng)
        assert rng.bit_generator.state == state

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        pool = pool_of(rng.normal(size=(3, 4)))
        peers = rng.normal(size=(3, 4))
        config = CloneConfig(memory_capacity=5)
        scores = [best_match(peers[0], pool), 0.0, 0.0]
        first = one_class(pool, peers, scores, config,
                          np.random.default_rng(7))
        second = one_class(pool, peers, scores, config,
                           np.random.default_rng(7))
        assert len(first) == len(second) > 0
        for name in ("features", "parents", "scores"):
            assert getattr(first, name).tobytes() == \
                getattr(second, name).tobytes()


# few distinct values, so that ties between scores are common
memory_scores = st.one_of(st.sampled_from([0.0, 0.5, 0.75, 1.0]),
                          st.floats(0.0, 1.0))
# any finite score, with ties and both signs of zero
ranked_scores = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0]),
                          st.floats(allow_nan=False, allow_infinity=False))


def column(values):
    """Candidate rows (k, 1) holding the given ids."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


class TestUpdateMemory:
    @pytest.mark.parametrize("scores, capacity, message", [
        ([0.9, 0.1], 1, "2 members exceed capacity 1"),
        ([0.1, 0.9], 2, "member 2 scores 0.9 after 0.1"),
        ([0.9, 0.5, 0.7], 3, "member 3 scores 0.7 after 0.5"),
        ([0.9, float("nan")], 2, "member 2 scores nan after 0.9"),
    ], ids=["over-capacity", "ascending", "ascending-late", "nan"])
    def test_pool_rejects_members_it_would_not_keep(self, scores, capacity,
                                                    message):
        # such a pool used to be accepted as given, and the next
        # update_memory re-sorted and trimmed it silently
        with pytest.raises(ConfigurationError, match=message):
            MemoryPool(0, capacity, matrix=np.zeros((len(scores), 2)),
                       scores=scores)

    @pytest.mark.parametrize("label", [2.5, "x", True, -1])
    def test_class_label_that_is_not_a_class_id_rejected(self, label):
        # such a pool used to be built, and save_pools wrote a class line
        # that load_pools refuses
        with pytest.raises(ConfigurationError, match="class_label"):
            MemoryPool(label, 4, matrix=np.ones((2, 3)), scores=[0.9, 0.5])
        with pytest.raises(ConfigurationError, match="class_label"):
            MemoryPool(label, 4)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("build", ["matrix", "antibodies",
                                       "update_memory"])
    def test_non_finite_rows_rejected(self, build, value):
        # such a row used to be accepted, and failed only at its pool's
        # first classify or pool_affinities call
        row = np.array([value, 1.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError,
                           match="pool of class 5: .* not finite"):
            if build == "matrix":
                MemoryPool(5, 2, matrix=[np.ones(4), row], scores=[0.9, 0.5])
            elif build == "antibodies":
                MemoryPool(5, 2, [Antibody(np.ones(4), 5, 0.9),
                                  Antibody(row, 5, 0.5)])
            else:
                update_memory(pool_of([np.ones(4)], label=5, capacity=3),
                              np.stack([np.zeros(4), row]), [0.4, 0.3])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("build", ["matrix", "antibodies",
                                       "update_memory", "update_full_pool"])
    def test_non_finite_scores_rejected(self, build, value):
        # a lone NaN score used to make a pool, and the next update_memory
        # blamed the ordering; a full pool dropped a NaN candidate silently
        with pytest.raises(ConfigurationError,
                           match="pool of class 5: .* score is not finite"):
            if build == "matrix":
                MemoryPool(5, 2, matrix=np.ones((1, 4)), scores=[value])
            elif build == "antibodies":
                MemoryPool(5, 2, [Antibody(np.ones(4), 5, value)])
            elif build == "update_memory":
                update_memory(MemoryPool(5, 3), np.ones((1, 4)), [value])
            else:
                update_memory(pool_of([np.ones(4)], label=5, capacity=1),
                              np.zeros((1, 4)), [value])

    def test_empty_candidates_no_change(self):
        pool = pool_of([[1.0, 0.0], [0.0, 1.0]], capacity=4)
        updated = update_memory(pool, np.empty((0, 2)), [])
        assert np.array_equal(updated.scores, pool.scores)
        assert np.array_equal(updated.matrix, pool.matrix)

    def test_top_k_retained(self):
        pool = MemoryPool(class_label=0, capacity=3)
        updated = update_memory(pool, column(range(5)),
                                [0.2, 0.9, 0.5, 0.7, 0.1])
        assert updated.scores.tolist() == [0.9, 0.7, 0.5]
        assert updated.matrix[:, 0].tolist() == [1.0, 3.0, 2.0]

    def test_tie_keeps_existing_member(self):
        pool = update_memory(MemoryPool(class_label=0, capacity=1),
                             column([1.0]), [0.8])
        updated = update_memory(pool, column([2.0]), [0.8])
        assert updated.matrix[0, 0] == 1.0

    def test_strictly_better_candidate_evicts(self):
        pool = update_memory(MemoryPool(class_label=0, capacity=1),
                             column([1.0]), [0.8])
        updated = update_memory(pool, column([2.0]), [0.81])
        assert updated.matrix[0, 0] == 2.0

    def test_kept_rows_are_copies(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        scores = np.array([0.5, 0.25])
        pool = update_memory(MemoryPool(class_label=0, capacity=2),
                             rows, scores)
        rows[:] = 0.0
        scores[:] = 0.0
        assert pool.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert pool.scores.tolist() == [0.5, 0.25]

    def test_constructor_copies_caller_arrays(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        scores = np.array([0.5, 0.25])
        pool = MemoryPool(0, 2, matrix=rows, scores=scores)
        rows[:] = 0.0
        scores[:] = 0.0
        assert pool.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert pool.scores.tolist() == [0.5, 0.25]
        assert rows.flags.writeable and scores.flags.writeable

    @pytest.mark.parametrize("features, scores", [
        (np.zeros((3, 2)), [0.1, 0.2]),
        (np.zeros((2, 2)), [0.1, 0.2, 0.3]),
        (np.zeros((1, 2)), 0.5),
        (np.zeros(2), [0.1, 0.2]),
    ])
    def test_count_mismatch_rejected(self, features, scores):
        # zip over rows and scores would silently drop the extras
        pool = MemoryPool(class_label=0, capacity=4)
        with pytest.raises(DimensionError):
            update_memory(pool, features, scores)

    def test_width_mismatch_rejected(self):
        pool = pool_of([[1.0, 0.0], [0.0, 1.0]], capacity=4)
        with pytest.raises(DimensionError):
            update_memory(pool, np.ones((1, 3)), [0.9])

    def test_members_cannot_be_replaced_in_place(self):
        # pools are immutable, so a stack of their matrices cannot go stale
        pool = pool_of([[1.0, 0.0], [0.0, 1.0]])
        before = pool_affinities(np.array([[0.0, 1.0]]), pool)
        with pytest.raises(ValueError, match="read-only"):
            pool.matrix[1] = [1.0, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            pool.scores[0] = 0.5
        with pytest.raises(AttributeError):
            pool.matrix = np.zeros((2, 2))
        assert np.array_equal(pool_affinities(np.array([[0.0, 1.0]]), pool),
                              before)

    def test_best_affinity_never_decreases(self):
        rng = np.random.default_rng(13)
        pool = MemoryPool(class_label=0, capacity=5)
        best = 0.0
        for _ in range(100):
            k = rng.integers(0, 4)
            pool = update_memory(pool, rng.normal(size=(k, 3)), rng.random(k))
            assert len(pool) <= 5
            if len(pool):
                assert pool.scores[0] >= best
                best = pool.scores[0]
                assert np.all(np.diff(pool.scores) <= 0)

    @given(st.lists(memory_scores), st.lists(memory_scores),
           st.integers(1, 8))
    def test_policy_properties(self, incumbent_scores, candidate_scores,
                               capacity):
        # incumbents carry ids 0, 1, ... and candidates -1, -2, ...
        pool = update_memory(MemoryPool(class_label=0, capacity=capacity),
                             column(range(len(incumbent_scores))),
                             incumbent_scores)
        incumbents = list(zip(pool.matrix.ravel(), pool.scores))
        candidates = [(-1.0 - i, s) for i, s in enumerate(candidate_scores)]
        updated = update_memory(pool, column([c for c, _ in candidates]),
                                candidate_scores)
        kept = list(zip(updated.matrix.ravel(), updated.scores))
        # the ranking key of the Python sort it replaces
        oracle = sorted(
            [(ab, 0, i) for i, ab in enumerate(incumbents)]
            + [(ab, 1, i) for i, ab in enumerate(candidates)],
            key=lambda t: (-t[0][1], t[1], t[2]),
        )[:capacity]
        assert kept == [ab for ab, _, _ in oracle]
        assert len(kept) == min(capacity, len(incumbents) + len(candidates))
        scores = [s for _, s in kept]
        assert scores == sorted(scores, reverse=True)
        dropped = [ab for ab in incumbents + candidates if ab not in kept]
        for _, s in dropped:
            assert s <= min(scores)
        kept_candidate_scores = {s for i, s in kept if i < 0}
        for ab in incumbents:
            if ab not in kept:
                assert ab[1] not in kept_candidate_scores

    @given(st.lists(memory_scores, max_size=8), st.lists(memory_scores),
           st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_ties_match_reference_rank_and_gather(self, incumbent_scores,
                                                  candidate_scores, capacity,
                                                  width, seed):
        rng = np.random.default_rng(seed)
        incumbent_scores = sorted(incumbent_scores, reverse=True)[:capacity]
        pool = MemoryPool(0, capacity,
                          matrix=rng.normal(size=(len(incumbent_scores), width)),
                          scores=incumbent_scores)
        candidates = rng.normal(size=(len(candidate_scores), width))
        updated = update_memory(pool, candidates, candidate_scores)
        # reference: members before candidates on equal scores, each side
        # in its own order, then the kept rows and scores gathered one by one
        keys = [(-s, 0, i) for i, s in enumerate(incumbent_scores)]
        keys += [(-s, 1, i) for i, s in enumerate(candidate_scores)]
        kept = sorted(keys)[:capacity]
        rows = [(pool.matrix, candidates)[side][i] for _, side, i in kept]
        expected = np.array(rows).reshape(len(kept), width)
        assert updated.matrix.tobytes() == expected.tobytes()
        assert updated.scores.tolist() == [-s for s, _, _ in kept]
        # kept candidate rows are copies, and the pool's arrays are read-only
        candidates[:] = np.nan
        assert updated.matrix.tobytes() == expected.tobytes()
        for array in (updated.matrix, updated.scores):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    @given(label=st.integers(0, 20), width=st.integers(1, 4),
           capacity=st.integers(1, 6),
           steps=st.lists(st.lists(ranked_scores, max_size=9), min_size=1,
                          max_size=4),
           seed=st.integers(0, 2**31 - 1))
    # empty candidates into an empty pool, then exactly capacity of them
    @example(label=0, width=2, capacity=3, steps=[[], [0.5, 0.5, 0.5]],
             seed=0)
    # ties of 0.0 and -0.0 between members and candidates, over capacity
    @example(label=1, width=3, capacity=2,
             steps=[[0.0, -0.0], [-0.0, 0.0, 0.0], []], seed=1)
    def test_ranked_pool_equals_the_validated_pool(self, label, width,
                                                   capacity, steps, seed):
        # update_memory skips the constructor's checks; the pool it
        # returns must be the one the constructor builds from its arrays
        rng = np.random.default_rng(seed)
        pool = MemoryPool(label, capacity)
        for scores in steps:
            rows = rng.normal(size=(len(scores), width))
            rows[rng.random(rows.shape) < 0.2] = -0.0
            pool = update_memory(pool, rows, scores)
            checked = MemoryPool(pool.class_label, pool.capacity,
                                 matrix=pool.matrix, scores=pool.scores)
            for got, want in ((pool.matrix, checked.matrix),
                              (pool.scores, checked.scores)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            assert (pool.class_label, pool.capacity) == (label, capacity)
            assert len(pool) <= capacity and len(pool.members) == len(pool)
            assert np.all(pool.scores[:-1] >= pool.scores[1:])
            assert np.isfinite(pool.matrix).all()
            assert np.isfinite(pool.scores).all()


def generate_clones_naive(feature, a, pool, peers, config, rng):
    """One parent's clones, proposed one ``mutate`` call at a time and
    scored in one ``pool_affinities`` call: the per-parent step of
    :func:`expand_naive`. Returns (clone, score) pairs of the accepted."""
    n_clones = clone_count(a, config.eta, config.tau)
    if n_clones == 0:
        return []
    rate = mutation_rate(a, config.alpha)
    proposals = []
    for _ in range(n_clones):
        base = feature
        if rng.random() < clonal.CROSSOVER_PROB:
            partner = peers[int(rng.integers(len(peers)))]
            base = crossover(base, partner, rng)
        proposals.append(mutate(base, rate, config.sigma, rng))
    scores = pool_affinities(np.stack(proposals), pool).max(axis=1)
    return [(clone, float(s)) for clone, s in zip(proposals, scores)
            if s >= config.tau]


def expand_naive(expander, features, labels):
    """``ClonalExpander.__call__`` one original at a time: one
    ``pool_affinities`` call per original and one
    :func:`generate_clones_naive` call per parent. The reference for the
    batched hook, which must return and store the same bytes and leave
    the generator in the same state."""
    labels = [int(l) for l in labels]
    peers = {}
    for feature, label in zip(features, labels):
        peers.setdefault(label, []).append(feature)
    config = expander.config
    for label in sorted(peers):
        if label in expander.pools and len(expander.pools[label]):
            continue
        seeds = np.stack(peers[label])
        centroid = seeds.mean(axis=0)
        expander.pools[label] = update_memory(
            MemoryPool(label, config.memory_capacity), seeds,
            clonal.affinity_matrix(seeds, centroid)[:, 0])
    accepted = {label: [] for label in peers}
    originals = {label: [] for label in peers}
    clones = []
    for i, (feature, label) in enumerate(zip(features, labels)):
        pool = expander.pools[label]
        a = float(pool_affinities(np.asarray(feature)[None, :], pool).max())
        for clone, score in generate_clones_naive(
                feature, a, pool, peers[label], config, expander.rng):
            clones.append((clone, i))
            accepted[label].append((clone, score))
        originals[label].append((feature, a))
    for label in sorted(peers):
        rows, scores = zip(*accepted[label], *originals[label])
        expander.pools[label] = update_memory(expander.pools[label],
                                              np.stack(rows), scores)
    return clones


def pools_with_sizes(sizes, width, zero_row, rng):
    """Pools of the given sizes, best first; with ``zero_row`` the first
    pool's last member is a zero row."""
    pools = {}
    for label, size in sorted(sizes.items()):
        matrix = rng.normal(size=(size, width))
        if zero_row and not pools:
            matrix[-1] = 0.0
        pools[label] = MemoryPool(label, 6, matrix=matrix,
                                  scores=np.sort(rng.random(size))[::-1])
    return pools


def assert_same_state(a, b):
    assert a.pools.keys() == b.pools.keys()
    for label, pool in a.pools.items():
        assert pool.matrix.tobytes() == b.pools[label].matrix.tobytes()
        assert pool.scores.tobytes() == b.pools[label].scores.tobytes()
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


# one batch row: its label and the magnitude of its components; 1e-200
# and 1e200 put its squared norm outside [2^-510, 2^510]
batch_rows = st.tuples(st.integers(0, 3),
                       st.sampled_from([1.0, 1e-200, 1e200]))


class TestExpandMatchesNaive:
    @given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(1, 5),
           sizes=st.dictionaries(st.integers(0, 2), st.integers(1, 5),
                                 max_size=3),
           zero_row=st.booleans(),
           batch_list=st.lists(st.lists(batch_rows, min_size=1, max_size=8),
                               min_size=1, max_size=2),
           eta=st.sampled_from([0.0, 1.0, 5.0]),
           tau=st.sampled_from([0.0, 0.6, 1.0]),
           sigma=st.sampled_from([0.1, 1.0]))
    # pools of different sizes in one batch
    @example(seed=1, width=4, sizes={0: 1, 1: 5, 2: 3}, zero_row=False,
             batch_list=[[(0, 1.0), (1, 1.0), (2, 1.0), (1, 1.0)] * 2],
             eta=5.0, tau=0.6, sigma=0.1)
    # one class, against an existing pool and then a bootstrapped one
    @example(seed=2, width=3, sizes={1: 4}, zero_row=False,
             batch_list=[[(1, 1.0)] * 6, [(3, 1.0)] * 5],
             eta=5.0, tau=0.0, sigma=1.0)
    @example(seed=3, width=4, sizes={0: 2, 1: 3}, zero_row=False,
             batch_list=[[(0, 1.0), (1, 1.0), (3, 1.0)] * 2],
             eta=0.0, tau=0.6, sigma=0.1)
    @example(seed=4, width=2, sizes={0: 3}, zero_row=False,
             batch_list=[[(0, 1.0), (0, 1.0)], [(0, 1.0)]],
             eta=5.0, tau=1.0, sigma=0.1)
    @example(seed=5, width=3, sizes={0: 4, 2: 2}, zero_row=True,
             batch_list=[[(0, 1.0), (2, 1.0), (0, 1.0)]],
             eta=5.0, tau=0.0, sigma=0.1)
    @example(seed=6, width=5, sizes={0: 3, 1: 3}, zero_row=True,
             batch_list=[[(0, 1e-200), (1, 1e200), (0, 1.0), (3, 1e200),
                          (3, 1e-200), (1, 1.0)]],
             eta=5.0, tau=0.0, sigma=0.1)
    def test_same_clones_pools_and_draws(self, seed, width, sizes, zero_row,
                                         batch_list, eta, tau, sigma):
        rng = np.random.default_rng(seed)
        config = CloneConfig(eta=eta, tau=tau, sigma=sigma,
                             memory_capacity=6, rng_seed=seed)
        batched, naive = ClonalExpander(config), ClonalExpander(config)
        batched.pools = pools_with_sizes(sizes, width, zero_row, rng)
        naive.pools = dict(batched.pools)
        for rows in batch_list:
            labels = [label for label, _ in rows]
            scale = np.array([magnitude for _, magnitude in rows])
            features = rng.normal(size=(len(rows), width)) * scale[:, None]
            got = batched(features, labels)
            want = expand_naive(naive, features, labels)
            assert len(got) == len(want)
            for fa, pa, (fb, pb) in zip(got.features, got.parents.tolist(),
                                        want):
                assert fa.tobytes() == fb.tobytes() and pa == pb
            assert_same_state(batched, naive)


class TestBadBatchChangesNothing:
    """A batch that cannot be scored raises before it bootstraps a pool,
    scores an original or draws a clone."""

    def trained(self):
        rng = np.random.default_rng(30)
        expander = ClonalExpander(CloneConfig(eta=5.0, tau=0.0,
                                              memory_capacity=10, rng_seed=3))
        expander(rng.normal(size=(6, 4)), [0, 1, 0, 1, 0, 1])
        return expander, rng

    def assert_refused(self, expander, features, labels, error):
        pools = dict(expander.pools)
        state = expander.rng.bit_generator.state
        with pytest.raises(error):
            expander(features, labels)
        assert expander.pools.keys() == pools.keys()
        assert all(expander.pools[l] is pools[l] for l in pools)
        assert expander.rng.bit_generator.state == state

    def test_non_finite_late_row(self):
        expander, rng = self.trained()
        features = rng.normal(size=(6, 4))
        features[4, 0] = np.nan
        self.assert_refused(expander, features, [0, 1, 0, 1, 0, 1],
                            UndefinedAffinityError)

    def test_non_finite_row_in_bootstrap_batch(self):
        expander = ClonalExpander(CloneConfig(memory_capacity=10))
        features = np.random.default_rng(31).normal(size=(4, 4))
        features[3, 1] = np.nan
        self.assert_refused(expander, features, [0, 0, 1, 1],
                            UndefinedAffinityError)
        assert expander.pools == {}

    def test_wrong_width(self):
        expander, rng = self.trained()
        self.assert_refused(expander, rng.normal(size=(4, 5)), [2, 0, 1, 2],
                            DimensionError)
        self.assert_refused(expander, rng.normal(size=4), [2, 0, 1, 2],
                            DimensionError)

    def test_fractional_labels(self):
        expander = ClonalExpander(CloneConfig(rng_seed=0))
        features = np.random.default_rng(32).normal(size=(2, 4))
        self.assert_refused(expander, features, np.array([0.0, 1.7]),
                            ConfigurationError)
        assert expander.pools == {}

    def test_label_column(self):
        expander, rng = self.trained()
        self.assert_refused(expander, rng.normal(size=(2, 4)),
                            np.array([[0], [1]]), DimensionError)


class TestClonalExpander:
    def test_bootstrap_builds_sorted_pools(self):
        rng = np.random.default_rng(14)
        feats = [rng.normal(size=6) for _ in range(8)]
        labels = [0, 0, 1, 1, 0, 1, 0, 1]
        expander = ClonalExpander(CloneConfig(memory_capacity=3, rng_seed=0))
        expander(feats, labels)
        assert set(expander.pools) == {0, 1}
        for pool in expander.pools.values():
            assert len(pool) <= 3
            scores = pool.scores.tolist()
            assert scores == sorted(scores, reverse=True)

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        feats = [rng.normal(size=5) for _ in range(6)]
        labels = [0, 1, 0, 1, 0, 1]
        runs = []
        for _ in range(2):
            expander = ClonalExpander(CloneConfig(memory_capacity=4, rng_seed=9))
            clones = expander(list(feats), list(labels))
            runs.append((clones, expander.pools))
        assert len(runs[0][0]) == len(runs[1][0])
        assert np.array_equal(runs[0][0].features, runs[1][0].features)
        assert np.array_equal(runs[0][0].parents, runs[1][0].parents)
        for label in runs[0][1]:
            assert np.array_equal(runs[0][1][label].matrix,
                                  runs[1][1][label].matrix)
            assert np.array_equal(runs[0][1][label].scores,
                                  runs[1][1][label].scores)

    def test_new_members_scored_against_the_pool_before_the_call(self):
        rng = np.random.default_rng(19)
        expander = ClonalExpander(CloneConfig(eta=3.0, tau=0.55, sigma=0.3,
                                              memory_capacity=20, rng_seed=4))
        labels = [0, 1, 0, 1, 0, 1]
        centres = 2.0 * rng.normal(size=(2, 5))
        # zero-scored starting pools, so that later candidates enter them
        expander.pools = {
            l: MemoryPool(l, 20, matrix=c + rng.normal(size=(4, 5)),
                          scores=np.zeros(4))
            for l, c in enumerate(centres)}
        originals = clones_checked = 0
        for _ in range(6):
            features = [centres[l] + rng.normal(size=5) for l in labels]
            before = dict(expander.pools)
            clones = expander(features, labels)
            for label, pool in expander.pools.items():
                old = before[label].matrix
                for row, score in zip(pool.matrix, pool.scores):
                    # a row of the pool before the call is no new member
                    if (old == row).all(axis=1).any():
                        continue
                    expected = max(affinity_naive(row, m) for m in old)
                    assert abs(score - expected) < 1e-12
                    if any(np.array_equal(row, f) for f in features):
                        originals += 1
                    else:
                        assert any(np.array_equal(row, c)
                                   for c in clones.features)
                        clones_checked += 1
        assert originals > 0 and clones_checked > 0

    @pytest.mark.parametrize("count", [2, 4])
    def test_feature_and_label_counts_must_agree(self, count):
        # 3 features with 2 labels used to pool the first 2 and drop the third
        feats = list(np.random.default_rng(16).normal(size=(3, 4)))
        expander = ClonalExpander(CloneConfig(memory_capacity=3, rng_seed=1))
        with pytest.raises(DimensionError, match="3 features but"):
            expander(feats, [0, 1, 0, 1][:count])
        assert expander.pools == {}

    def test_eta_zero_builds_pools_but_no_clones(self):
        rng = np.random.default_rng(16)
        feats = [rng.normal(size=4) for _ in range(4)]
        expander = ClonalExpander(CloneConfig(eta=0.0, memory_capacity=3,
                                              rng_seed=1))
        clones = expander(feats, [0, 0, 1, 1])
        assert len(clones) == 0 and clones.features.shape == (0, 4)
        assert set(expander.pools) == {0, 1}


@st.composite
def finite_pools(draw):
    width = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pools = {}
    for label in draw(st.lists(st.integers(0, 20), unique=True, max_size=4)):
        count = draw(st.integers(0, 4))
        # a pool holds its members best first
        scores = sorted(draw(st.lists(finite, min_size=count,
                                      max_size=count)), reverse=True)
        matrix = [draw(st.lists(finite, min_size=width, max_size=width))
                  for _ in scores]
        pools[label] = MemoryPool(label, draw(st.integers(max(count, 1), 6)),
                                  matrix=matrix, scores=scores)
    return pools


@st.composite
def pool_sets(draw):
    """1-4 pools of widths 1-5, each of 0-3 members and a capacity of 0-5
    that holds them; about half the sets share one width."""
    shared = draw(st.integers(1, 5)) if draw(st.booleans()) else None
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pools = {}
    for label in draw(st.lists(st.integers(0, 20), unique=True, min_size=1,
                               max_size=4)):
        width = shared or draw(st.integers(1, 5))
        count = draw(st.integers(0, 3))
        scores = sorted(draw(st.lists(finite, min_size=count,
                                      max_size=count)), reverse=True)
        matrix = [draw(st.lists(finite, min_size=width, max_size=width))
                  for _ in scores]
        pools[label] = MemoryPool(label, draw(st.integers(count, 5)),
                                  matrix=matrix, scores=scores)
    return pools


class TestCheckPools:
    def test_non_empty_pools_share_one_width(self):
        pools = {0: pool_of(np.ones((2, 3)), label=0),
                 2: MemoryPool(class_label=2, capacity=0),
                 5: pool_of(np.ones((1, 3)), label=5)}
        clonal.check_pools(pools)
        pools[7] = pool_of(np.ones((1, 4)), label=7)
        with pytest.raises(DimensionError,
                           match="^pools must share one width: class 0 has "
                                 "width 3, class 7 width 4$"):
            clonal.check_pools(pools)

    @pytest.mark.parametrize("pools, error, message", [
        ({0: pool_of(np.ones((1, 3)), label=0),
          True: pool_of(np.ones((1, 3)), label=1)}, ConfigurationError,
         "^pools key must be an integer >= 0, got True$"),
        ({0.0: pool_of(np.ones((1, 3)), label=0)}, ConfigurationError,
         "^pools key must be an integer >= 0, got 0.0$"),
        ({0: pool_of(np.empty((2, 0)), label=0)}, DimensionError,
         "^pools must share one width of at least 1: class 0 has width 0$"),
    ], ids=["bool-key", "float-key", "width-0"])
    def test_keys_are_class_ids_and_the_width_at_least_1(self, pools, error,
                                                         message):
        # each of these passed: a bool or float key equal to its pool's
        # class, and members with no coordinates
        with pytest.raises(error, match=message):
            clonal.check_pools(pools)

    def test_numpy_integer_keys_and_width_1_pass(self):
        clonal.check_pools({np.int64(2): pool_of(np.ones((1, 1)), label=2),
                            0: MemoryPool(class_label=0, capacity=0)})

    def test_mixed_set_leaves_an_existing_file_as_it_was(self, tmp_path):
        # save_pools used to write this set, which load_pools then refused
        # with "line 6: 4 coordinates, expected 3"
        path = tmp_path / "pools.txt"
        path.write_text("kept\n")
        pools = {0: pool_of(np.ones((2, 3)), label=0),
                 1: pool_of(np.ones((1, 4)), label=1)}
        with pytest.raises(DimensionError, match="class 0 has width 3, "
                                                 "class 1 width 4"):
            save_pools(pools, path)
        assert path.read_text() == "kept\n"

    @given(pools=pool_sets())
    @example(pools={0: MemoryPool(0, 2, matrix=np.ones((1, 3)),
                                  scores=np.ones(1)),
                    1: MemoryPool(1, 0),
                    4: MemoryPool(4, 1, matrix=np.ones((1, 2)),
                                  scores=np.ones(1))})
    @example(pools={3: MemoryPool(3, 0), 9: MemoryPool(9, 2)})
    def test_save_pools_writes_only_what_load_pools_reads(
            self, tmp_path_factory, pools):
        path = tmp_path_factory.mktemp("pools") / "pools.txt"
        widths = {pool.matrix.shape[1] for pool in pools.values() if len(pool)}
        if len(widths) > 1:
            with pytest.raises(DimensionError, match="share one width"):
                save_pools(pools, path)
            assert not path.exists()
            return
        save_pools(pools, path)
        loaded = load_pools(path)
        assert list(loaded) == sorted(pools)
        for label, pool in pools.items():
            assert loaded[label].class_label == label
            assert loaded[label].capacity == pool.capacity
            for name in ("matrix", "scores"):
                got, want = getattr(loaded[label], name), getattr(pool, name)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestPoolSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        pools = {
            0: pool_of(rng.normal(size=(3, 5)), label=0, capacity=6),
            4: pool_of(rng.normal(size=(2, 5)), label=4, capacity=4),
        }
        path = tmp_path / "pools.txt"
        save_pools(pools, path)
        loaded = load_pools(path)
        assert set(loaded) == {0, 4}
        for label, pool in pools.items():
            assert loaded[label].capacity == pool.capacity
            assert np.array_equal(loaded[label].matrix, pool.matrix)
            assert np.array_equal(loaded[label].scores, pool.scores)

    def test_rewrite_byte_identical(self, tmp_path):
        rng = np.random.default_rng(18)
        pools = {1: pool_of(rng.normal(size=(4, 3)), label=1)}
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        save_pools(pools, first)
        save_pools(load_pools(first), second)
        assert first.read_bytes() == second.read_bytes()

    @given(finite_pools())
    def test_round_trip_any_finite_pools(self, tmp_path_factory, pools):
        d = tmp_path_factory.mktemp("pools")
        save_pools(pools, d / "a.txt")
        loaded = load_pools(d / "a.txt")
        assert set(loaded) == set(pools)
        for label, pool in pools.items():
            assert loaded[label].capacity == pool.capacity
            assert len(loaded[label]) == len(pool)
            assert np.array_equal(loaded[label].matrix, pool.matrix)
            assert np.array_equal(loaded[label].scores, pool.scores)
        save_pools(loaded, d / "b.txt")
        assert (d / "a.txt").read_bytes() == (d / "b.txt").read_bytes()

    def test_arrays_agree_with_members(self, tmp_path):
        rng = np.random.default_rng(20)
        expander = ClonalExpander(CloneConfig(memory_capacity=6, rng_seed=3))
        for _ in range(4):
            expander(list(rng.normal(size=(8, 5))), [0, 1] * 4)
        save_pools(expander.pools, tmp_path / "pools.txt")
        for pools in (expander.pools, load_pools(tmp_path / "pools.txt")):
            assert set(pools) == {0, 1}
            for pool in pools.values():
                # the compatibility view shows the arrays bit for bit
                assert len(pool) == len(pool.members) == 6
                view = np.stack([ab.feature for ab in pool.members])
                assert view.tobytes() == pool.matrix.tobytes()
                assert np.array([ab.affinity_score for ab in pool.members]
                                ).tobytes() == pool.scores.tobytes()
                assert all(ab.class_label == pool.class_label
                           and type(ab.affinity_score) is float
                           and not ab.feature.flags.writeable
                           for ab in pool.members)
        empty = MemoryPool(class_label=0, capacity=3)
        assert len(empty) == 0 and empty.members == ()
        assert empty.matrix.shape == (0, 0) and empty.scores.shape == (0,)

    def test_antibody_list_constructor(self):
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        pool = MemoryPool(0, 2, [Antibody(features[0], 0, 0.75),
                                 Antibody(features[1], 0, 0.5)])
        features[:] = 0.0
        assert pool.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert pool.scores.tolist() == [0.75, 0.5]
        with pytest.raises(ConfigurationError, match="exceed capacity 1"):
            MemoryPool(0, 1, [Antibody(np.zeros(2), 0, 0.9),
                              Antibody(np.zeros(2), 0, 0.1)])
        with pytest.raises(ConfigurationError, match="scores must not increase"):
            MemoryPool(0, 2, [Antibody(np.zeros(2), 0, 0.1),
                              Antibody(np.zeros(2), 0, 0.9)])
        with pytest.raises(DimensionError, match="class 0"):
            MemoryPool(0, 2, [Antibody(np.zeros(2), 0, 0.9),
                              Antibody(np.zeros(3), 0, 0.1)])

    def test_versioned_header(self, tmp_path):
        path = tmp_path / "pools.txt"
        save_pools({}, path)
        assert path.read_text().startswith("clonalnet-pools v1")

    def test_unrecognized_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(ConfigurationError):
            load_pools(path)

    @pytest.mark.parametrize("body, line", [
        ("class 0 3 4\n0.9 1.0 2.0\n0.8 1.0 2.0\n", 5),
        ("class 0 2 4\n0.9 1.0 2.0\n0.8 1.0\n", 4),
        ("class 0 1 2\n0.9 1.0 2.0\nclass 1 1 2\n0.9 1.0\n", 5),
        ("class 0 1 4\n0.9\n", 3),
        ("class 0 1 4\n0.9 1.0 two\n", 3),
        ("class 0 1 4\n0.9 1.0 nan\n", 3),
        ("class 0 1 4\ninf 1.0 2.0\n", 3),
        ("class 0 3 2\n0.9 1\n0.8 1\n0.7 1\n", 2),
        ("class 0 x 2\n", 2),
        ("class 0 1 2\n0.9 1.0\nclass 0 1 2\n0.8 2.0\n", 4),
        ("class 0 1 2\n0.9 1.0\nclass 1 2 2\n0.1 1.0\n0.9 2.0\n", 4),
        ("class 0 1 2\n0.9 1.0\nclass -1 1 2\n0.8 2.0\n", 4),
    ], ids=["truncated", "ragged", "width-across-classes", "no-coordinates",
            "unparseable", "nan", "inf-score", "over-capacity", "bad-count",
            "repeated-class", "scores-increase", "negative-class"])
    def test_malformed_body_names_line(self, tmp_path, body, line):
        path = tmp_path / "bad.txt"
        path.write_text("clonalnet-pools v1\n" + body)
        with pytest.raises(ConfigurationError, match=f"line {line}:"):
            load_pools(path)

    def test_undecodable_byte_names_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"clonalnet-pools v1\nclass 0 1 2\n0.9 1.0\xff\n")
        with pytest.raises(ConfigurationError, match="bad.txt: undecodable"):
            load_pools(path)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                              st.integers(0, 10**6), st.integers(0, 255)),
                    min_size=1, max_size=6))
    def test_mutated_bytes_raise_only_configuration_error(
            self, tmp_path_factory, edits):
        rng = np.random.default_rng(21)
        pools = {0: pool_of(rng.normal(size=(3, 4)), label=0, capacity=4),
                 7: pool_of(rng.normal(size=(2, 4)), label=7, capacity=2)}
        path = tmp_path_factory.mktemp("fuzz") / "pools.txt"
        save_pools(pools, path)
        data = bytearray(path.read_bytes())
        for kind, position, byte in edits:
            if kind == "insert":
                data.insert(position % (len(data) + 1), byte)
            elif kind == "replace":
                data[position % len(data)] = byte
            elif len(data) > 1:
                del data[position % len(data)]
        path.write_bytes(bytes(data))
        try:
            load_pools(path)
        except ConfigurationError:
            pass


def clonalg_naive(pattern, population_size, generations, config, select_n):
    """``clonalg_run`` on one pattern with one ``mutate`` call per clone:
    the reference for its one-draw offspring."""
    rng = np.random.default_rng(config.rng_seed)
    population = rng.uniform(0.0, 1.0, size=(population_size, len(pattern)))
    memory = MemoryPool(class_label=0, capacity=config.memory_capacity)
    history = []
    for _ in range(generations):
        scores = clonal.affinity_matrix(population, pattern)[:, 0]
        children = []
        for idx in np.argsort(-scores)[:select_n]:
            a = float(scores[idx])
            rate = mutation_rate(a, config.alpha)
            children += [mutate(population[idx], rate, config.sigma, rng)
                         for _ in range(clone_count(a, config.eta, 0.0))]
        offspring = np.array(children).reshape(-1, len(pattern))
        merged = np.vstack([population, offspring])
        merged_scores = np.concatenate(
            [scores, clonal.affinity_matrix(offspring, pattern)[:, 0]])
        keep = np.argsort(-merged_scores)[:population_size]
        population = merged[keep]
        memory = update_memory(memory, merged[keep[:1]],
                               merged_scores[keep[:1]])
        history.append(float(memory.scores[0]))
    return population, memory, history


class TestClonalgRun:
    @pytest.mark.parametrize("eta, alpha, sigma, population, select_n", [
        (10.0, 0.2, 0.1, 50, 10), (0.0, 0.2, 0.1, 12, 4),
        (10.0, 0.2, 0.0, 12, 4), (3.0, 0.9, 0.5, 12, 12),
        (7.5, 0.3, 0.25, 5, 1),
    ])
    def test_matches_per_clone_oracle(self, eta, alpha, sigma, population,
                                      select_n):
        pattern = np.eye(4).ravel()
        config = CloneConfig(eta=eta, alpha=alpha, tau=0.0, sigma=sigma,
                             memory_capacity=3, rng_seed=41)
        result = clonalg_run(pattern, population, 6, config, select_n)
        want, memory, history = clonalg_naive(pattern, population, 6, config,
                                              select_n)
        assert result.population.tobytes() == want.tobytes()
        assert result.memory_vectors.tobytes() == memory.matrix.tobytes()
        assert result.memory_scores.tobytes() == memory.scores.tobytes()
        assert result.history == history

    def test_zero_mutation_keeps_initial_best(self):
        pattern = np.array([1.0, 0.0, 1.0, 0.0])
        config = CloneConfig(eta=5.0, sigma=0.0, tau=0.0, memory_capacity=3,
                             rng_seed=33)
        initial = np.random.default_rng(33).uniform(0.0, 1.0, size=(20, 4))
        expected = clonal.affinity_matrix(initial, pattern).max()
        assert abs(expected - max(affinity_naive(row, pattern)
                                  for row in initial)) < 1e-15
        result = clonalg_run(pattern, population_size=20, generations=1,
                             config=config, select_n=5)
        assert result.history[0] == expected

    def test_history_non_decreasing(self):
        pattern = np.eye(3).ravel()
        config = CloneConfig(eta=6.0, alpha=0.3, tau=0.0, sigma=0.2,
                             memory_capacity=4, rng_seed=2)
        result = clonalg_run(pattern, population_size=30, generations=40,
                             config=config, select_n=8)
        hist = result.history
        assert len(hist) == 40
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_affinity_improves(self):
        pattern = np.array([[1, 0], [0, 1]], dtype=np.float64)
        config = CloneConfig(eta=8.0, alpha=0.2, tau=0.0, sigma=0.15,
                             memory_capacity=5, rng_seed=3)
        result = clonalg_run(pattern, population_size=25, generations=60,
                             config=config, select_n=6)
        assert result.history[-1] > result.history[0]

    def test_memory_respects_capacity(self):
        pattern = np.ones(5)
        config = CloneConfig(memory_capacity=4, tau=0.0, rng_seed=4)
        result = clonalg_run(pattern, population_size=15, generations=5,
                             config=config, select_n=5)
        assert result.memory_vectors.shape[0] <= 4
        assert result.population.shape == (15, 5)

    def test_empty_patterns_rejected(self):
        with pytest.raises(ConfigurationError):
            clonalg_run(np.zeros(0), 10, 5, CloneConfig(memory_capacity=2))

    def test_population_smaller_than_selection_rejected(self):
        # select_n -1 used to select every member but the worst, and 0 to
        # run without clones
        for select_n in (10, 6, 0, -1):
            with pytest.raises(ConfigurationError, match="select_n"):
                clonalg_run(np.ones(4), population_size=5, generations=2,
                            config=CloneConfig(memory_capacity=2),
                            select_n=select_n)


class TestCloneConfigValidation:
    def test_defaults_valid(self):
        CloneConfig()

    @pytest.mark.parametrize("kwargs", [
        {"eta": -1.0}, {"alpha": 0.0}, {"tau": 1.5}, {"sigma": -0.1},
        {"tau": -0.1}, {"memory_capacity": -1}, {"memory_capacity": 0},
        {"eta": float("nan")}, {"alpha": float("nan")},
        {"sigma": float("nan")}, {"tau": float("nan")},
        {"eta": float("inf")}, {"alpha": float("inf")},
        {"sigma": float("inf")},
        {"memory_capacity": np.float64(30.0)}, {"memory_capacity": "30"},
        {"rng_seed": np.bool_(False)}, {"rng_seed": None},
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CloneConfig(**kwargs)
