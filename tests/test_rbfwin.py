"""Sliding-window RBF boost tests."""

import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import _reference as ref
from proxima import proxcore, rbfwin
from proxima.classify import evaluate, generate_synthetic_corpus, uniform_synthetic_spec
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
    window_boost,
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


class TestWindowCodes:
    """The keyed window memo gives exactly the scalar oracle's floats, cold, warm or cleared."""

    # (k, kf): narrow windows, 19-digit keys, kf at least n (keys of up to 81
    # digits), a 1-digit window, a kernel wider than any document, and a
    # table of 301 values over the longest document, whose keys take two
    # bytes a digit
    WIDTHS = [(1, 1), (3, 2), (5, 5), (50, 9), (5, 40), (10**6, 7), (300, 7)]
    SETTINGS = [(0.0, True), (1.0, False), (2.0, True), (0.5, False)]

    @staticmethod
    def _documents():
        rng = random.Random(91)
        docs = [build_document("d0", ["a"]), build_document("d1", list("ab"))]
        for length in (9, 33, 75, 300):
            docs.append(build_document(f"n{length}", [rng.choice("abqqqqq") for _ in range(length)]))
        return docs

    @staticmethod
    def _assert_exact(doc, term, config):
        profile = rbf_term_profile(doc, term, config)
        scalar = [rbf_local_relevance(doc, term, x, config) for x in range(doc.n)]
        assert profile.tobytes() == np.array(scalar, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("memo", ["cold", "warm", "cleared"])
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_profile_bytes_equal_pointwise_scalar(self, monkeypatch, shape, memo):
        if memo == "cleared":
            monkeypatch.setattr(rbfwin, "_WINDOW_CACHE_SIZE", 3)
        rbfwin._WINDOWS.clear()
        longest = 0
        for (k, kf), (threshold, clamp) in zip(self.WIDTHS * 2, self.SETTINGS * 4):
            config = RbfConfig(InfluenceKernel(shape, k), kf, threshold, clamp)
            for doc in self._documents():
                if doc.n > 255 and k < 255:
                    continue  # one byte a digit, as in the shorter documents
                longest = max(longest, doc.n)
                for term in ("a", ("a", "b")):
                    if memo == "cold":
                        rbfwin._WINDOWS.clear()
                    self._assert_exact(doc, term, config)
                    if memo == "warm":
                        self._assert_exact(doc, term, config)
                    if memo == "cleared":
                        # past the cap the memo holds one call's windows at most
                        assert sum(map(len, rbfwin._WINDOWS.values())) <= max(3, longest)

    def test_a_key_is_its_digits(self):
        """One byte a digit while the table has at most 255 values, two bytes past that."""
        rbfwin._WINDOWS.clear()
        short, wide = self._documents()[-2:]
        for doc, (k, kf) in ((short, (50, 9)), (short, (5, 40)), (wide, (300, 7))):
            rbf_term_profile(doc, "a", RbfConfig(InfluenceKernel("gaussian", k), kf))
        sizes = {(k, dtype.name): {len(key) for key in memo} for (_, k, dtype, _), memo in rbfwin._WINDOWS.items()}
        assert sizes == {(50, "uint8"): {19}, (5, "uint8"): {81}, (300, "uint16"): {30}}

    def test_a_second_pass_at_the_cli_defaults_is_all_memo_hits(self, monkeypatch):
        """C5 at k=5, kf=5 holds more distinct windows than 4,096, and the memo keeps them all."""
        spec = uniform_synthetic_spec(
            3, 2, 4, docs_per_category=200, doc_length=150,
            injection_rate=0.7, noise_rate=0.30, cross_rate=0.52,
        )
        corpus, models = generate_synthetic_corpus(spec, 7)
        config = RbfConfig(InfluenceKernel("triangular", 5), kf=5)
        computed = []
        batch = rbfwin._batch_boosts

        def counting(keys, geometry, table):
            computed.extend(keys)
            return batch(keys, geometry, table)

        monkeypatch.setattr(rbfwin, "_batch_boosts", counting)
        rbfwin._WINDOWS.clear()
        first = evaluate(corpus, models, config, "rbf")
        # one computed boost per distinct window: nothing was cleared
        assert len(computed) == sum(map(len, rbfwin._WINDOWS.values())) > 4096
        computed.clear()
        assert evaluate(corpus, models, config, "rbf") == first
        assert computed == []

    def test_the_memo_charges_what_it_holds(self, monkeypatch):
        """Each entry costs its key's length plus ``_ENTRY_BYTES``, also after a clear at the cap."""
        config = RbfConfig(InfluenceKernel("triangular", 5), 5)
        short, wide = self._documents()[-2:]

        def held():
            ((geometry, memo),) = rbfwin._WINDOWS.items()
            (width,) = set(map(len, memo))
            assert rbfwin._CHARGED[geometry] == len(memo) * (width + rbfwin._ENTRY_BYTES)
            return geometry, dict(memo)

        rbfwin._WINDOWS.clear()
        self._assert_exact(short, "a", config)
        geometry, _ = held()
        # the next call's misses would pass the cap, so the memo is cleared and
        # then holds that call's windows alone
        monkeypatch.setattr(rbfwin, "_WINDOW_CACHE_SIZE", rbfwin._CHARGED[geometry] + 1)
        self._assert_exact(wide, "a", config)
        _, after = held()
        rbfwin._WINDOWS.clear()
        rbf_term_profile(wide, "a", config)
        assert held() == (geometry, after)
        # one call's misses alone pass the cap: every boost is still returned
        monkeypatch.setattr(rbfwin, "_WINDOW_CACHE_SIZE", 1)
        rbfwin._WINDOWS.clear()
        self._assert_exact(wide, ("a", "b"), config)
        held()


@st.composite
def _window_batches(draw):
    """Windows of one width as ``_rbf_term_profiles`` keys them, with their geometry and table.

    A batch holds 200 windows of random digits, so that the rare
    inputs where two roundings part (``y * y`` against ``y ** 2`` parts on
    about 1 in 1,000) come up.  A window may be cut at a segment edge
    (outside digits at one end), hold one digit throughout (sigma 0) or one
    neighbour only.  k >= 255 gives tables of more than 255 values and two
    bytes a digit.
    """
    shape = draw(st.sampled_from(KERNEL_SHAPES))
    k = draw(st.one_of(st.integers(1, 12), st.integers(255, 300)))
    top = draw(st.integers(1, k))
    table = proxcore._kernel_table(shape, k, top + 1)
    dtype = np.min_scalar_type(len(table))
    outside = int(np.iinfo(dtype).max)
    kf = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    windows = []
    for _ in range(200):
        left = rng.randint(1, kf) if rng.random() < 0.3 else 0
        right = min(rng.randint(1, kf) if rng.random() < 0.3 else 0, 2 * kf - 1 - left)
        inside = 2 * kf - left - right
        if rng.random() < 0.2:
            digits = [rng.randint(0, top)] * inside
        else:
            digits = [rng.randint(0, top) for _ in range(inside)]
        cut = kf - left
        windows.append([outside] * left + digits[:cut] + [outside] + digits[cut:] + [outside] * right)
    threshold = draw(st.sampled_from([0.0, 1.0, 2.0, 0.5]))
    return (shape, k, dtype, threshold), table, windows


class TestBatchedBoosts:
    """``_batch_boosts`` gives each window the float ``window_boost`` sums for it."""

    @staticmethod
    def _scalar(geometry, table, windows) -> list[str]:
        outside = np.iinfo(geometry[2]).max
        values = table.tolist()
        return [
            window_boost(tuple(values[d] for d in row if d != outside), geometry[3]).hex()
            for row in windows
        ]

    @staticmethod
    def _batched(geometry, table, windows) -> list[str]:
        keys = [np.array(row, geometry[2]).tobytes() for row in windows]
        return [boost.hex() for boost in rbfwin._batch_boosts(keys, geometry, table)]

    @settings(max_examples=300, deadline=None)
    @given(batch=_window_batches(), run=st.sampled_from([1, 40, proxcore.RUN_POSITIONS]))
    def test_batched_boosts_are_the_scalar_floats(self, batch, run):
        with pytest.MonkeyPatch.context() as patch:
            # runs of 1 and 40 positions compute a batch one or a few windows at a time
            patch.setattr(proxcore, "RUN_POSITIONS", run)
            assert self._batched(*batch) == self._scalar(*batch)

    def test_values_on_the_band_edge_keep_their_side(self):
        """As many 1s as 0s: mu = sigma = 0.5, so every value sits exactly on the one-sigma edge."""
        table = proxcore._kernel_table("rectangular", 3, 4)
        windows = [[0, 3, 255, 3, 0], [3, 1, 255, 2, 3], [255, 0, 255, 3, 255], [3, 0, 255, 0, 3]]
        for row in windows:
            stats = window_stats(table[d] for d in row if d != 255)
            assert (stats.mu, stats.sigma) == (0.5, 0.5)
        boosts = {}
        for threshold in (1.0, math.nextafter(1.0, 0.0), 2.0, 0.0):
            geometry = ("rectangular", 3, np.dtype(np.uint8), threshold)
            boosts[threshold] = self._batched(geometry, table, windows)
            assert boosts[threshold] == self._scalar(geometry, table, windows)
        # on the edge every value is kept; a band one ulp narrower keeps none
        assert boosts[1.0] == boosts[2.0] != boosts[math.nextafter(1.0, 0.0)] == boosts[0.0]

    @settings(max_examples=150, deadline=None)
    @given(
        docs=st.lists(st.lists(st.sampled_from("abxy"), min_size=1, max_size=30), min_size=1, max_size=5),
        shape=st.sampled_from(KERNEL_SHAPES),
        k=st.integers(1, 12),
        kf=st.integers(1, 12),
        threshold=st.sampled_from([0.0, 1.0, 2.0]),
        clamp=st.booleans(),
    )
    def test_a_cold_run_gives_the_scalar_floats(self, docs, shape, k, kf, threshold, clamp):
        """A run of documents from an empty memo, its windows cut at every segment edge."""
        segments = [(build_document(f"d{i}", stems), "a") for i, stems in enumerate(docs) if "a" in stems]
        assume(segments)
        config = RbfConfig(InfluenceKernel(shape, k), kf, threshold, clamp)
        rbfwin._WINDOWS.clear()
        profile = rbfwin._rbf_term_profiles(segments, config)
        scalar = [rbf_local_relevance(doc, stem, x, config) for doc, stem in segments for x in range(doc.n)]
        assert [v.hex() for v in profile.tolist()] == [v.hex() for v in scalar]
