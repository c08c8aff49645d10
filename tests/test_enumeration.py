import math
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oligoforge.enumeration import (
    DEFAULT_ORACLE_CAP,
    ORACLE_CAP_ENV,
    OracleCapError,
    complement_free_predicate,
    count_brute_force,
    count_mu1,
    dominant_root,
    g_boundary,
    g_recursive,
    g_series,
    g_values,
    gj_coefficients,
    gj_rows,
    growth_check,
    mu1_equals_predicate,
    mu_zero_predicate,
    oracle_cap,
    psi,
)
from oligoforge.seqcore import packed_image, sequence_from_even_odd

import oracles


class TestBruteForce:
    def test_single_shift_free_pairs(self):
        # 16 two-letter words minus the complementary AT, TA, CG, GC
        assert count_brute_force(2, mu_zero_predicate(1)) == 12

    def test_length_one_counts_every_base(self):
        assert count_brute_force(1, mu_zero_predicate(3)) == 4

    def test_two_shift_constraint(self):
        assert count_brute_force(3, mu_zero_predicate(2)) == 28

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "2")
        assert oracle_cap() == 2
        with pytest.raises(OracleCapError):
            count_brute_force(3, mu_zero_predicate(1))
        monkeypatch.delenv(ORACLE_CAP_ENV)
        assert oracle_cap() == DEFAULT_ORACLE_CAP

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "zero")
        with pytest.raises(ValueError):
            oracle_cap()

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            count_brute_force(0, mu_zero_predicate(1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_walks_every_word_once(self, n):
        evens = []

        def record(even, length):
            evens.append(even)
            return (1 << (1 << length)) - 1

        # each even image is asked once, and its 2^n odd images all count
        assert count_brute_force(n, record) == 4**n
        assert sorted(evens) == list(range(1 << n))
        # a mask holding one word's bit counts that word, once
        for word in oracles.all_words(n):
            even, odd = packed_image(word)
            assert count_brute_force(n, lambda e, length: 1 << odd if e == even else 0) == 1, word

    def test_zero_mask_rejects_every_odd_image(self):
        # a predicate passing only even image 0 counts its 2^n odd images
        assert count_brute_force(3, lambda even, n: 0 if even else (1 << (1 << n)) - 1) == 8

    def test_counts_at_the_cap(self):
        n = DEFAULT_ORACLE_CAP
        for s in range(1, 5):
            assert count_brute_force(n, mu_zero_predicate(s)) == g_recursive(s, n), s
        assert count_brute_force(n, complement_free_predicate()) == g_boundary(n)
        for m in range(n):
            assert count_brute_force(n, mu1_equals_predicate(m)) == count_mu1(n, m), m


WORDS = st.text(alphabet="ACGT", min_size=1, max_size=12)


def staged(predicate, word: str) -> bool:
    """Bit odd of predicate(even, n), the mask of word's even image."""
    even, odd = packed_image(word)
    return bool(predicate(even, len(word)) >> odd & 1)


class TestPackedPredicates:
    """Each predicate on the packed image against a walk over the word's bases."""

    @given(word=WORDS, s=st.integers(min_value=1, max_value=12))
    def test_mu_zero(self, word, s):
        n = len(word)
        expected = all(oracles.direct_mu(word, i) == 0 for i in range(1, min(s, n - 1) + 1))
        assert staged(mu_zero_predicate(s), word) == expected

    @given(word=WORDS, m=st.integers(min_value=0, max_value=12))
    def test_mu1_equals(self, word, m):
        expected = oracles.direct_mu(word, 1) == m
        assert staged(mu1_equals_predicate(m), word) == expected

    @given(word=WORDS)
    def test_complement_free(self, word):
        expected = not any(oracles.COMPLEMENT[b] in word for b in word)
        assert staged(complement_free_predicate(), word) == expected

    @given(n=st.integers(min_value=1, max_value=9), data=st.data())
    def test_every_bit_of_a_mask(self, n, data):
        even = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1), label="even")
        s = data.draw(st.integers(min_value=1, max_value=n + 2), label="s")
        m = data.draw(st.integers(min_value=0, max_value=n), label="m")
        masks = [
            mu_zero_predicate(s)(even, n),
            mu1_equals_predicate(m)(even, n),
            complement_free_predicate()(even, n),
        ]
        for odd in range(1 << n):
            word = sequence_from_even_odd(f"{even:0{n}b}", f"{odd:0{n}b}").text
            expected = [
                all(oracles.direct_mu(word, i) == 0 for i in range(1, min(s, n - 1) + 1)),
                oracles.direct_mu(word, 1) == m,
                not any(oracles.COMPLEMENT[b] in word for b in word),
            ]
            assert [bool(mask >> odd & 1) for mask in masks] == expected, (word, s, m)
        assert all(mask >> (1 << n) == 0 for mask in masks)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_a_walk_over_every_word(self, n):
        # shift profiles of all 4^n words, by the character walk
        profiles = [
            (word, [oracles.direct_mu(word, i) for i in range(1, n)])
            for word in oracles.all_words(n)
        ]
        for s in range(1, n + 3):  # s >= n constrains every shift
            expected = sum(not any(profile[:s]) for _, profile in profiles)
            assert count_brute_force(n, mu_zero_predicate(s)) == expected, s
        for m in range(n + 2):  # m > n - 1 counts no word
            expected = sum(oracles.direct_mu(word, 1) == m for word, _ in profiles)
            assert count_brute_force(n, mu1_equals_predicate(m)) == expected, m
        expected = sum(
            not any(oracles.COMPLEMENT[b] in word for b in word) for word, _ in profiles
        )
        assert count_brute_force(n, complement_free_predicate()) == expected


class TestBoundaryCount:
    def test_known_values(self):
        assert g_boundary(2) == 12
        assert g_boundary(3) == 28

    def test_matches_oracle(self):
        pred = complement_free_predicate()
        for n in range(2, 8):
            assert g_boundary(n) == count_brute_force(n, pred)

    def test_requires_n_above_one(self):
        with pytest.raises(ValueError):
            g_boundary(1)


class TestRecursiveCount:
    def test_depth_one_closed_form(self):
        for n in range(1, 13):
            assert g_recursive(1, n) == 4 * 3 ** (n - 1)

    def test_boundary_convention(self):
        assert g_recursive(2, 2) == 12
        assert g_recursive(5, 3) == g_boundary(3)
        assert g_recursive(4, 1) == 4

    def test_step_values(self):
        assert g_recursive(2, 3) == 28
        assert [g_recursive(2, n) for n in range(1, 6)] == [4, 12, 28, 68, 164]

    def test_matches_oracle(self):
        for s in (1, 2, 3):
            pred = mu_zero_predicate(s)
            for n in range(1, 8):
                assert g_recursive(s, n) == count_brute_force(n, pred), (s, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            g_recursive(0, 3)
        with pytest.raises(ValueError):
            g_recursive(2, 0)


class TestSeriesCount:
    def test_depth_one_series(self):
        table = g_series(1, 4)
        assert [table.value(n) for n in range(1, 5)] == [4, 12, 36, 108]

    def test_specific_value(self):
        assert g_series(2, 3).value(3) == 28

    def test_agrees_with_recursion(self):
        for s in range(1, 9):
            table = g_series(s, 200)
            for n in range(1, 201):
                assert table.value(n) == g_recursive(s, n), (s, n)

    @pytest.mark.parametrize("s", [15, 100, 10**4])
    def test_depth_far_past_the_rows(self, s):
        # every n <= 14 is below s: each value is the boundary count
        assert list(g_values(s, 14)) == [g_recursive(s, n) for n in range(1, 15)]

    def test_cost_does_not_grow_with_the_depth(self):
        # both sides of the division are cut at degree n - 1, not built to s
        tracemalloc.start()
        try:
            assert list(g_values(10**8, 3)) == [4, 12, 28]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            g_series(0, 5)
        with pytest.raises(ValueError):
            g_series(2, 0)
        # the streams refuse when called, before the first value is asked for
        with pytest.raises(ValueError):
            g_values(0, 5)
        with pytest.raises(ValueError):
            gj_rows(0)


def _size(values) -> int:
    """Bytes of the ints in values and of the lists holding them."""
    return sum(sys.getsizeof(v) + _size(v) if isinstance(v, list) else sys.getsizeof(v) for v in values)


@pytest.mark.parametrize("stream, collected", [
    pytest.param(lambda: gj_rows(600), lambda: gj_coefficients(600).rows, id="gj-600"),
    # s = 1: the recurrence reads one coefficient back, the shortest window
    pytest.param(lambda: g_values(1, 5000), lambda: g_series(1, 5000).values.values(), id="g1-5000"),
    pytest.param(lambda: g_values(8, 5000), lambda: g_series(8, 5000).values.values(), id="g8-5000"),
])
def test_streams_keep_the_last_rows_not_the_table(stream, collected):
    tracemalloc.start()
    try:
        for _ in stream():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak * 10 < _size(collected())


class TestDominantRoot:
    def test_depth_two_root_is_one_plus_sqrt2(self):
        analysis = dominant_root(2, 1e-12)
        assert abs(analysis.rho - (1 + math.sqrt(2))) <= 1e-12 + 1e-15

    def test_residual_small(self):
        for s in range(2, 9):
            analysis = dominant_root(s, 1e-12)
            assert abs(analysis.residual) <= 1e-9

    def test_strictly_decreasing_in_s(self):
        roots = [dominant_root(s).rho for s in range(2, 9)]
        assert all(a > b for a, b in zip(roots, roots[1:]))

    def test_limit_approaches_two(self):
        assert abs(dominant_root(8).rho - 2) < 0.02

    def test_root_inside_bracket(self):
        for s in range(2, 7):
            rho = dominant_root(s).rho
            assert 2 < rho < 3
            assert psi(s, 2) < 0 < psi(s, 3)

    def test_tolerance_scales(self):
        exact = 1 + math.sqrt(2)
        for tol in (1e-3, 1e-6, 1e-9, 1e-12):
            assert abs(dominant_root(2, tol).rho - exact) <= tol

    def test_psi_past_the_float_range(self):
        # 2.5^1024 overflows a float; psi is positive above 2 and -1 at 2
        assert psi(1024, 2.5) == math.inf
        assert psi(10**6, 2.0000000000004547) == math.inf
        assert psi(2000, 2.0) == -1.0
        with pytest.raises(OverflowError):
            psi(2000, -2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            dominant_root(1)
        with pytest.raises(ValueError):
            dominant_root(2, tol=0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            dominant_root(2, tol=float("nan"))

    @pytest.mark.parametrize("tol", [1, 2.5, float("inf")])
    def test_tolerance_of_bracket_width_rejected(self, tol):
        # the bracket (2, 3) is 1 wide: such a tolerance stops before the first step
        with pytest.raises(ValueError, match="tolerance must be below 1"):
            dominant_root(2, tol=tol)


class TestGrowthCheck:
    def test_depth_one_ratio_is_three(self):
        for n in (1, 5, 20):
            assert growth_check(1, n) == 3.0

    def test_ratio_converges_to_root(self):
        assert abs(growth_check(2, 40) - (1 + math.sqrt(2))) < 1e-3

    def test_scale_factor_stabilizes(self):
        # g(s, n) / rho^n settles to a positive constant
        rho = dominant_root(2, 1e-14).rho
        estimates = [g_recursive(2, n) / rho**n for n in (20, 30, 40)]
        assert all(e > 0 for e in estimates)
        assert abs(estimates[-1] - estimates[-2]) < 1e-6 * estimates[-1]


class TestCountMu1:
    def test_two_letter_single_match(self):
        assert count_mu1(2, 1) == 4

    def test_zero_matches_is_depth_one_count(self):
        for n in range(1, 12):
            assert count_mu1(n, 0) == g_recursive(1, n)

    def test_rows_sum_to_alphabet_power(self):
        for n in range(1, 12):
            assert sum(count_mu1(n, m) for m in range(n)) == 4**n

    def test_matches_census(self):
        for n in range(1, 7):
            census = oracles.census_mu1(n)
            for m in range(n):
                assert count_mu1(n, m) == census.get(m, 0), (n, m)

    def test_matches_brute_force_op(self):
        for m in range(4):
            assert count_mu1(4, m) == count_brute_force(4, mu1_equals_predicate(m))

    def test_validation(self):
        with pytest.raises(ValueError):
            count_mu1(3, 3)
        with pytest.raises(ValueError):
            count_mu1(3, -1)


class TestGjCoefficients:
    def test_low_order_values(self):
        series = gj_coefficients(4)
        assert series.coefficient(0, 0) == 1
        assert series.coefficient(1, 0) == 2
        assert series.coefficient(1, 1) == 2
        assert series.coefficient(2, 1) == 8

    def test_heavier_than_long_is_zero(self):
        series = gj_coefficients(5)
        for n in range(6):
            assert series.coefficient(n, n + 1) == 0

    def test_row_sums_match_depth_one_count(self):
        series = gj_coefficients(12)
        for n in range(1, 13):
            assert sum(series.coefficient(n, w) for w in range(n + 1)) == g_recursive(1, n)

    def test_rows_sum_and_mirror_to_order_300(self):
        # complementing every base keeps mu_1 = 0 and swaps GC for AT,
        # so row n is symmetric under w <-> n - w
        series = gj_coefficients(300)
        for n in range(1, 301):
            row = [series.coefficient(n, w) for w in range(n + 1)]
            assert sum(row) == g_recursive(1, n), n
            assert row == row[::-1], n

    def test_matches_census(self):
        series = gj_coefficients(7)
        for n in range(1, 8):
            census = oracles.census_mu1zero_by_gc(n)
            for w in range(n + 1):
                assert series.coefficient(n, w) == census.get(w, 0), (n, w)

    def test_out_of_order_access(self):
        series = gj_coefficients(3)
        with pytest.raises(ValueError):
            series.coefficient(4, 0)
        with pytest.raises(ValueError):
            series.coefficient(2, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            gj_coefficients(0)
