"""Selector verifier and construction tests.

naive_min_count recounts isolations with plain set arithmetic and is the
oracle for the vectorized verifier.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiosched import selectors as sel
from radiosched.errors import ConstructionError, FormatError, ParameterError, SizeError


def naive_min_count(m, k):
    row_sets = [frozenset(np.flatnonzero(r).tolist()) for r in m.rows]
    best, witness = m.t + 1, None
    for combo in itertools.combinations(range(m.n), k):
        s = frozenset(combo)
        for a in combo:
            count = sum(1 for r in row_sets if r & s == {a})
            if count < best:
                best, witness = count, (combo, a)
    return best, witness


def count_pair(m, combo, a):
    s = frozenset(combo)
    return sum(1 for r in (frozenset(np.flatnonzero(x).tolist()) for x in m.rows) if r & s == {a})


def small_matrices():
    return st.integers(2, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 22),
            st.integers(1, min(4, n)),
            st.integers(0, 10**6),
        )
    )


class TestMinCount:
    def test_identity(self):
        m = sel.SelectorMatrix(np.eye(6, dtype=np.uint8))
        res = sel.uss_min_count(m, 2)
        assert res.min_count == 1
        assert res.eps == Fraction(1, 3)

    def test_all_zero(self):
        m = sel.SelectorMatrix(np.zeros((4, 5), dtype=np.uint8))
        res = sel.uss_min_count(m, 3)
        assert res.min_count == 0 and res.eps == 0

    def test_empty_matrix(self):
        m = sel.SelectorMatrix(np.zeros((0, 4), dtype=np.uint8))
        assert sel.uss_min_count(m, 2).min_count == 0

    @settings(max_examples=100, deadline=None)
    @given(small_matrices())
    def test_matches_naive(self, params):
        n, t, k, seed = params
        rng = np.random.default_rng(seed)
        m = sel.SelectorMatrix((rng.random((t, n)) < 0.4).astype(np.uint8))
        res = sel.uss_min_count(m, k)
        expect, _ = naive_min_count(m, k)
        assert res.min_count == expect
        assert res.eps == (Fraction(k * expect, t) if t else Fraction(0))
        combo, a = res.witness
        assert a in combo and len(combo) == k
        if t:
            assert count_pair(m, combo, a) == res.min_count

    def test_wide_matrix_path(self):
        # crosses the 64-column word boundary
        rng = np.random.default_rng(7)
        m = sel.SelectorMatrix((rng.random((24, 70)) < 0.1).astype(np.uint8))
        res = sel.uss_min_count(m, 2)
        expect, _ = naive_min_count(m, 2)
        assert res.min_count == expect

    def test_budget_error_suggests_sampling(self):
        m = sel.SelectorMatrix(np.zeros((1, 120), dtype=np.uint8))
        with pytest.raises(SizeError, match="sample"):
            sel.uss_min_count(m, 5)

    @settings(max_examples=30, deadline=None)
    @given(small_matrices())
    def test_column_removal_monotone(self, params):
        n, t, k, seed = params
        if n < 3 or k >= n:
            return
        rng = np.random.default_rng(seed)
        rows = (rng.random((t, n)) < 0.4).astype(np.uint8)
        full = sel.uss_min_count(sel.SelectorMatrix(rows), k).min_count
        trimmed = sel.uss_min_count(sel.SelectorMatrix(rows[:, :-1]), k).min_count
        assert trimmed >= full


class TestSampleCheck:
    def test_pass_and_fail(self):
        m = sel.SelectorMatrix(np.eye(8, dtype=np.uint8))
        ok = sel.uss_sample_check(m, 2, Fraction(1, 4), trials=200, seed=3)
        assert ok.ok and ok.threshold == 1
        bad = sel.uss_sample_check(m, 2, Fraction(1, 2), trials=200, seed=3)
        assert not bad.ok and bad.witness is not None
        combo, a, count = bad.witness
        assert count < bad.threshold and a in combo

    @pytest.mark.parametrize("trials", [0, -5])
    def test_needs_a_trial(self, trials):
        m = sel.SelectorMatrix(np.eye(8, dtype=np.uint8))
        with pytest.raises(ParameterError, match="at least one trial"):
            sel.uss_sample_check(m, 2, Fraction(1, 4), trials=trials, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        m = sel.SelectorMatrix((rng.random((40, 12)) < 0.3).astype(np.uint8))
        r1 = sel.uss_sample_check(m, 3, Fraction(1, 10), trials=50, seed=11)
        r2 = sel.uss_sample_check(m, 3, Fraction(1, 10), trials=50, seed=11)
        assert r1 == r2


class TestRandomConstruction:
    def test_size_formula(self):
        eps = Fraction(math.exp(-1))
        assert sel.random_uss_size(8, 2, eps) == 628

    def test_size_rejects_eps_at_or_above_c(self):
        with pytest.raises(ParameterError):
            sel.random_uss_size(8, 2, 0.5)
        with pytest.raises(ParameterError):
            sel.random_uss_size(8, 2, 0.6)
        with pytest.raises(ParameterError):
            sel.random_uss_size(4, 8, 0.1)

    def test_log_growth_in_n(self):
        small = sel.random_uss_size(2**10, 2, 0.2)
        big = sel.random_uss_size(2**20, 2, 0.2)
        assert 1.7 < big / small < 2.05

    def test_verified_output(self):
        eps = Fraction(math.exp(-1))
        m = sel.random_uss(8, 2, eps, seed=42)
        assert m.t == 628 and m.claimed_k == 2 and m.claimed_eps == eps
        assert sel.uss_min_count(m, 2).eps >= eps

    def test_deterministic(self):
        m1 = sel.random_uss(6, 2, Fraction(1, 4), seed=5)
        m2 = sel.random_uss(6, 2, Fraction(1, 4), seed=5)
        assert np.array_equal(m1.rows, m2.rows)

    def test_degenerate_k_one(self):
        m = sel.random_uss(5, 1, Fraction(1, 2), seed=0)
        assert m.rows.all()
        assert sel.uss_min_count(m, 1).eps == 1

    def test_retry_exhaustion(self, monkeypatch):
        never = sel.MinCountResult(0, Fraction(0), ((0, 1), 0))
        monkeypatch.setattr(sel, "uss_min_count", lambda *a, **k: never)
        with pytest.raises(ConstructionError, match="64 draws"):
            sel.random_uss(8, 2, Fraction(1, 4), seed=1)

    def test_oversized_draw_refused(self):
        # eps this close to c calls for ~1e9 rows; refuse instead of OOM
        with pytest.raises(SizeError):
            sel.random_uss(8, 2, Fraction(4999, 10000), seed=1)


class TestPolyConstruction:
    def test_frozen_parameters(self):
        cases = {
            (8, 2): (3, 13),
            (16, 2): (4, 17),
            (16, 4): (2, 17),
            (27, 3): (3, 19),
            (64, 4): (3, 29),
        }
        for (n, k), (d, q) in cases.items():
            m = sel.poly_uss(n, k)
            assert m.t == q * q
            assert m.claimed_eps == Fraction(k * (q - k * d), q * q)

    def test_smallest_case(self):
        m = sel.poly_uss(2, 2)
        assert m.t == 25
        assert m.claimed_eps == Fraction(6, 25)

    def test_column_structure(self):
        m = sel.poly_uss(27, 3)
        q, d = math.isqrt(m.t), 3  # least d with 3**d >= 27
        assert (m.rows.sum(axis=0) == q).all()
        # distinct degree <= d polynomials agree on at most d arguments
        for i, j in itertools.combinations(range(0, 27, 5), 2):
            assert int((m.rows[:, i] & m.rows[:, j]).sum()) <= d

    def test_exhaustive_verification(self):
        for n, k in [(8, 2), (16, 4)]:
            m = sel.poly_uss(n, k)
            assert sel.uss_min_count(m, k).eps >= m.claimed_eps

    def test_min_count_meets_field_guarantee(self):
        m = sel.poly_uss(16, 2)
        res = sel.uss_min_count(m, 2)
        q, d = math.isqrt(m.t), 4  # least d with 2**d >= 16
        assert res.min_count >= q - 2 * d

    def test_param_errors(self):
        for bad in [(1, 2), (4, 1), (3, 4)]:
            with pytest.raises(ParameterError):
                sel.poly_uss(*bad)


class TestClaims:
    def test_plain_matrix_has_no_claims(self):
        m = sel.SelectorMatrix(np.eye(4, dtype=np.uint8))
        assert m.claimed_k is None and m.claimed_eps is None
        assert (m.t, m.n) == (4, 4)

    def test_matrix_checks(self):
        for rows, message in [
            (np.ones(3, dtype=np.uint8), "2-D"),
            (np.zeros((2, 0), dtype=np.uint8), "one column"),
            (np.full((1, 2), 2, dtype=np.uint8), "0/1"),
        ]:
            with pytest.raises(ParameterError, match=message):
                sel.SelectorMatrix(rows)
        with pytest.raises(ParameterError, match="claimed k"):
            sel.SelectorMatrix(np.eye(2, dtype=np.uint8), claimed_k=3)


class TestSelectorFiles:
    def test_roundtrip(self, tmp_path):
        m = sel.poly_uss(8, 2)
        p = tmp_path / "sel.txt"
        sel.write_selector(m, p)
        back = sel.read_selector(p)
        assert np.array_equal(back.rows, m.rows)
        assert back.claimed_k == 2 and back.claimed_eps == m.claimed_eps

    def test_roundtrip_without_claims(self, tmp_path):
        m = sel.SelectorMatrix(np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8))
        p = tmp_path / "sel.txt"
        sel.write_selector(m, p)
        back = sel.read_selector(p)
        assert back.claimed_k is None and np.array_equal(back.rows, m.rows)

    def test_format_errors(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("nope\n")
        with pytest.raises(FormatError):
            sel.read_selector(p)
        p.write_text("uss n=3 t=2\n101\n")
        with pytest.raises(FormatError):
            sel.read_selector(p)
        p.write_text("uss n=3 t=1\n12x\n")
        with pytest.raises(FormatError):
            sel.read_selector(p)
        p.write_text("uss n=3 t=1 eps=1/0\n111\n")
        with pytest.raises(FormatError):
            sel.read_selector(p)
