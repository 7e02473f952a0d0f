"""Sliding-window RBF boost tests."""

import math
import random

import pytest

import _reference as ref
from proxima.posindex import build_document
from proxima.proxcore import KERNEL_SHAPES, InfluenceKernel, local_relevance, similarity
from proxima.querylang import Term, parse_query
from proxima.rbfwin import (
    RbfConfig,
    WindowStats,
    gaussian_rbf,
    rbf_eval_query_at,
    rbf_local_relevance,
    rbf_query_profile,
    rbf_similarity,
    rbf_term_profile,
    semantic_neighbors,
    window_neighbor_relevances,
    window_stats,
)

TRI5 = InfluenceKernel("triangular", 5)


def cfg(**kwargs) -> RbfConfig:
    kwargs.setdefault("kernel", TRI5)
    return RbfConfig(**kwargs)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="kf"):
            cfg(kf=0)
        with pytest.raises(ValueError, match="threshold"):
            cfg(threshold_scale=-0.1)

    def test_with_width(self):
        narrowed = cfg(kf=3).with_width(2)
        assert narrowed.kernel == TRI5.with_width(2)
        assert narrowed.kernel.k == 2
        assert narrowed.kf == 3


class TestWindowNeighbors:
    def test_left_boundary_clips(self):
        doc = build_document("d", list("abcde"))
        neighbors = window_neighbor_relevances(doc, 0, cfg(kf=2), term="a")
        assert [i for i, _ in neighbors] == [1, 2]

    def test_window_larger_than_document(self):
        doc = build_document("d", list("abc"))
        neighbors = window_neighbor_relevances(doc, 1, cfg(kf=10), term="a")
        assert [i for i, _ in neighbors] == [0, 2]

    def test_single_term_document_has_no_neighbors(self):
        doc = build_document("d", ["a"])
        assert window_neighbor_relevances(doc, 0, cfg(kf=3), term="a") == []

    def test_focal_values_measure_distance_to_focal_occurrences(self):
        doc = build_document("d", ["a", "x", "y"])
        neighbors = window_neighbor_relevances(doc, 0, cfg(kf=2), term="a")
        assert neighbors == [(1, 0.8), (2, 0.6)]

    def test_out_of_range_position_rejected(self):
        doc = build_document("d", ["a", "b"])
        with pytest.raises(ValueError, match="outside"):
            window_neighbor_relevances(doc, 2, cfg(), term="a")

    def test_focal_mode_needs_term(self):
        doc = build_document("d", ["a", "b"])
        with pytest.raises(TypeError, match="term"):
            window_neighbor_relevances(doc, 0, cfg())


class TestWindowStats:
    def test_constant(self):
        stats = window_stats([0.5, 0.5])
        assert stats == WindowStats(mu=0.5, sigma=0.0, count=2)

    def test_population_std(self):
        stats = window_stats([0.2, 0.4, 0.6])
        assert stats.mu == pytest.approx(0.4)
        assert stats.sigma == pytest.approx(math.sqrt(0.08 / 3))
        assert stats.sigma == pytest.approx(0.1633, abs=1e-4)
        assert stats.count == 3

    def test_empty_and_singleton(self):
        assert window_stats([]) == WindowStats(0.0, 0.0, 0)
        assert window_stats([0.7]) == WindowStats(0.7, 0.0, 1)


class TestGaussianRbf:
    def test_peak_value_is_inverse_of_sigma_root_two_pi(self):
        stats = WindowStats(mu=0.3, sigma=1 / math.sqrt(2 * math.pi), count=5)
        assert gaussian_rbf(0.3, stats) == pytest.approx(1.0)

    def test_degenerate_sigma(self):
        stats = WindowStats(mu=0.4, sigma=0.0, count=3)
        assert gaussian_rbf(0.4, stats) == 1.0
        assert gaussian_rbf(0.41, stats) == 0.0

    def test_one_sigma_point(self):
        stats = WindowStats(mu=0.5, sigma=0.2, count=4)
        peak = gaussian_rbf(0.5, stats)
        assert gaussian_rbf(0.7, stats) == pytest.approx(peak * math.exp(-0.5))


class TestSemanticNeighbors:
    def test_one_sigma_band(self):
        neighbors = [(1, 0.2), (2, 0.4), (3, 0.6)]
        stats = window_stats([v for _, v in neighbors])
        assert semantic_neighbors(neighbors, stats) == [(2, 0.4)]

    def test_constant_window_keeps_all(self):
        neighbors = [(1, 0.5), (2, 0.5)]
        stats = window_stats([0.5, 0.5])
        assert semantic_neighbors(neighbors, stats) == neighbors

    def test_empty(self):
        assert semantic_neighbors([], window_stats([])) == []

    def test_scale_widens_the_band(self):
        neighbors = [(1, 0.2), (2, 0.4), (3, 0.6)]
        stats = window_stats([v for _, v in neighbors])
        assert semantic_neighbors(neighbors, stats, scale=2.0) == neighbors


class TestRbfLocalRelevance:
    def test_no_neighbors_reduces_to_base(self):
        doc = build_document("d", ["a"])
        assert rbf_local_relevance(doc, "a", 0, cfg(kf=4)) == local_relevance(doc, "a", 0, TRI5)
        assert rbf_local_relevance(doc, "z", 0, cfg(kf=4)) == 0.0

    def test_clamp_caps_at_one(self):
        doc = build_document("d", ["a", "a", "a"])
        assert rbf_local_relevance(doc, "a", 1, cfg(kf=2)) == 1.0

    def test_unclamped_exceeds_one(self):
        doc = build_document("d", ["a", "a", "a"])
        value = rbf_local_relevance(doc, "a", 1, cfg(kf=2, clamp_output=False))
        assert value > 1.0

    def test_matches_straight_line_reference(self):
        rng = random.Random(99)
        vocabulary = list("abcd")
        for _ in range(400):
            stems = [rng.choice(vocabulary) for _ in range(rng.randint(1, 20))]
            doc = build_document("d", stems)
            shape = rng.choice(KERNEL_SHAPES)
            k = rng.randint(1, 7)
            kf = rng.randint(1, 6)
            scale = rng.choice([0.5, 1.0, 2.0])
            clamp = rng.random() < 0.5
            configuration = RbfConfig(
                kernel=InfluenceKernel(shape, k),
                kf=kf,
                threshold_scale=scale,
                clamp_output=clamp,
            )
            term = rng.choice(vocabulary)
            x = rng.randrange(len(stems))
            expected = ref.rbf_local_relevance(
                stems, term, x, shape, k, kf, scale=scale, clamp=clamp
            )
            assert rbf_local_relevance(doc, term, x, configuration) == pytest.approx(
                expected, abs=1e-9
            )

    def test_sigma_zero_paths_are_safe(self):
        # all-zero window (term absent nearby) and all-equal window
        doc = build_document("d", ["z", "z", "z", "z"])
        assert rbf_local_relevance(doc, "a", 1, cfg(kf=2)) == 0.0
        doc = build_document("d", ["a", "z", "a", "z", "a"])
        value = rbf_local_relevance(doc, "a", 2, cfg(kf=1, kernel=TRI5.with_width(2)))
        assert math.isfinite(value)


class TestReductionAndDominance:
    def test_two_distinct_value_window_filters_out_with_half_sigma_band(self):
        # a two-value window puts both values exactly one sigma from the mean,
        # so a 0.5-sigma band keeps neither and the boost vanishes
        doc = build_document("d", ["a", "b", "c"])
        configuration = cfg(kf=1, threshold_scale=0.5)
        for x in range(1, 2):
            neighbors = window_neighbor_relevances(doc, x, configuration, term="a")
            stats = window_stats([v for _, v in neighbors])
            assert semantic_neighbors(neighbors, stats, 0.5) == []
            assert rbf_local_relevance(doc, "a", x, configuration) == local_relevance(
                doc, "a", x, TRI5
            )

    def test_absent_term_reduces_exactly(self):
        doc = build_document("d", list("wxyz") * 3)
        configuration = cfg(kf=3)
        node = Term("q")
        assert rbf_similarity(doc, node, configuration) == similarity(doc, node, TRI5)

    def test_dominance_for_single_term_queries(self):
        rng = random.Random(314)
        for _ in range(200):
            stems = [rng.choice("abq") for _ in range(rng.randint(1, 30))]
            doc = build_document("d", stems)
            configuration = cfg(kf=rng.randint(1, 5))
            node = Term("q")
            assert rbf_similarity(doc, node, configuration) >= similarity(doc, node, TRI5)
            assert rbf_similarity(doc, node, configuration) <= 1.0


class TestWindowLocality:
    def test_distant_edit_does_not_move_the_value(self):
        rng = random.Random(2718)
        kf, k = 3, 4
        configuration = RbfConfig(kernel=InfluenceKernel("triangular", k), kf=kf)
        for _ in range(50):
            stems = [rng.choice("aqz") for _ in range(30)]
            doc = build_document("d", stems)
            x = rng.randrange(10)
            edit_at = x + kf + k + 1 + rng.randrange(30 - x - kf - k - 1)
            edited = list(stems)
            edited[edit_at] = "m" if edited[edit_at] != "m" else "n"
            other = build_document("d", edited)
            assert rbf_local_relevance(doc, "q", x, configuration) == rbf_local_relevance(
                other, "q", x, configuration
            )


class TestProfilesAndQueries:
    @staticmethod
    def _random_config(rng: random.Random) -> RbfConfig:
        # configs vary within the process, so memoised windows are reused
        # across kernels, window sizes and band multipliers
        return RbfConfig(
            kernel=InfluenceKernel(rng.choice(KERNEL_SHAPES), rng.randint(1, 9)),
            kf=rng.choice([1, 2, 3, 4, 5, 17]),
            threshold_scale=rng.choice([0.0, 0.5, 1.0, 2.0]),
            clamp_output=rng.random() < 0.5,
        )

    def test_profile_matches_scalar(self):
        rng = random.Random(55)
        for _ in range(200):
            stems = [rng.choice("abcq") for _ in range(rng.randint(1, 25))]
            doc = build_document("d", stems)
            configuration = self._random_config(rng)
            term = rng.choice("abcq")
            profile = rbf_term_profile(doc, term, configuration)
            pointwise = [rbf_local_relevance(doc, term, x, configuration) for x in range(doc.n)]
            assert profile.tolist() == pointwise

    def test_query_profile_matches_scalar(self):
        doc = build_document("d", ["a", "x", "b", "x", "a", "b"])
        configuration = cfg(kf=2)
        node = parse_query("a AND b OR a NEAR/3 b")
        profile = rbf_query_profile(doc, node, configuration)
        pointwise = [rbf_eval_query_at(doc, node, x, configuration) for x in range(doc.n)]
        assert profile.tolist() == pointwise
        rng = random.Random(56)
        queries = ["a AND b OR a NEAR/3 b", "(a OR c) AND b", "a NEAR/1 c OR q", "b"]
        for _ in range(100):
            doc = build_document("d", [rng.choice("abcqx") for _ in range(rng.randint(1, 25))])
            configuration = self._random_config(rng)
            node = parse_query(rng.choice(queries))
            profile = rbf_query_profile(doc, node, configuration)
            pointwise = [rbf_eval_query_at(doc, node, x, configuration) for x in range(doc.n)]
            assert profile.tolist() == pointwise

    def test_window_wider_than_any_index(self):
        doc = build_document("d", list("abaqcba"))
        wide, spanning = cfg(kf=2**63), cfg(kf=doc.n)
        for term in "abq":
            profile = rbf_term_profile(doc, term, wide).tolist()
            assert profile == rbf_term_profile(doc, term, spanning).tolist()
            assert profile == [rbf_local_relevance(doc, term, x, wide) for x in range(doc.n)]
        node = parse_query("a AND b")
        assert rbf_similarity(doc, node, wide) == rbf_similarity(doc, node, spanning)

    def test_single_term_doc_single_term_query(self):
        doc = build_document("d", ["a"])
        assert rbf_similarity(doc, Term("a"), cfg(kf=3)) == 1.0

    def test_empty_document(self):
        doc = build_document("d", [])
        assert rbf_similarity(doc, Term("a"), cfg()) == 0.0
