"""Selector verifier and construction tests.

naive_min_count recounts isolations with plain set arithmetic and is the
oracle for the vectorized verifier; the constructions' ones are checked
against the dense matrices they were once built as.
"""

from __future__ import annotations

import itertools
import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiosched import selectors as sel
from radiosched.errors import ConstructionError, FormatError, ParameterError, SizeError

from dense_selector import dense, ones, selector


def naive_min_count(m, k):
    row_sets = [frozenset(np.flatnonzero(r).tolist()) for r in dense(m)]
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
    return sum(1 for r in (frozenset(np.flatnonzero(x).tolist()) for x in dense(m)) if r & s == {a})


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
        m = selector(np.eye(6, dtype=np.uint8))
        res = sel.uss_min_count(m, 2)
        assert res.min_count == 1
        assert res.eps == Fraction(1, 3)

    def test_all_zero(self):
        m = selector(np.zeros((4, 5), dtype=np.uint8))
        res = sel.uss_min_count(m, 3)
        assert res.min_count == 0 and res.eps == 0

    def test_empty_matrix(self):
        m = selector(np.zeros((0, 4), dtype=np.uint8))
        assert sel.uss_min_count(m, 2).min_count == 0

    @settings(max_examples=100, deadline=None)
    @given(small_matrices())
    def test_matches_naive(self, params):
        n, t, k, seed = params
        rng = np.random.default_rng(seed)
        m = selector((rng.random((t, n)) < 0.4).astype(np.uint8))
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
        m = selector((rng.random((24, 70)) < 0.1).astype(np.uint8))
        res = sel.uss_min_count(m, 2)
        expect, _ = naive_min_count(m, 2)
        assert res.min_count == expect

    def test_budget_error_suggests_sampling(self):
        m = selector(np.zeros((1, 120), dtype=np.uint8))
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
        full = sel.uss_min_count(selector(rows), k).min_count
        trimmed = sel.uss_min_count(selector(rows[:, :-1]), k).min_count
        assert trimmed >= full


class TestSampleCheck:
    def test_pass_and_fail(self):
        m = selector(np.eye(8, dtype=np.uint8))
        ok = sel.uss_sample_check(m, 2, Fraction(1, 4), trials=200, seed=3)
        assert ok.ok and ok.threshold == 1
        bad = sel.uss_sample_check(m, 2, Fraction(1, 2), trials=200, seed=3)
        assert not bad.ok and bad.witness is not None
        combo, a, count = bad.witness
        assert count < bad.threshold and a in combo

    @pytest.mark.parametrize("trials", [0, -5])
    def test_needs_a_trial(self, trials):
        m = selector(np.eye(8, dtype=np.uint8))
        with pytest.raises(ParameterError, match="at least one trial"):
            sel.uss_sample_check(m, 2, Fraction(1, 4), trials=trials, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        m = selector((rng.random((40, 12)) < 0.3).astype(np.uint8))
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
        assert ones(m1) == ones(m2)

    def test_degenerate_k_one(self):
        m = sel.random_uss(5, 1, Fraction(1, 2), seed=0)
        assert dense(m).all()
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
        rows = dense(m)
        assert (rows.sum(axis=0) == q).all()
        # distinct degree <= d polynomials agree on at most d arguments
        for i, j in itertools.combinations(range(0, 27, 5), 2):
            assert int((rows[:, i] & rows[:, j]).sum()) <= d

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
        m = selector(np.eye(4, dtype=np.uint8))
        assert m.claimed_k is None and m.claimed_eps is None
        assert (m.t, m.n) == (4, 4)

    def test_matrix_checks(self):
        for args, message in [
            (([0], [0], 1, 0), "one column"),
            (([0, 1], [0], 2, 2), "flat ones of one length"),
            (([0], [0], -1, 2), "t >= 0"),
            (([2], [0], 2, 2), "row 2 out of range"),
            (([0, 1], [1, -1], 2, 2), "column -1 out of range"),
            (([1, 0, 1], [0, 1, 0], 2, 2), "row 1, column 0 given twice"),
        ]:
            with pytest.raises(ParameterError, match=message):
                sel.SelectorMatrix(*args)
        with pytest.raises(ParameterError, match="claimed k"):
            selector(np.eye(2, dtype=np.uint8), claimed_k=3)

    def test_refuses_non_integer_shape(self):
        # a float t or n is refused, not truncated
        for t, n in ((1.5, 2.7), (1.0, 2), (1, 2.0)):
            with pytest.raises(TypeError):
                sel.SelectorMatrix([0], [0], t, n)

    def test_takes_numpy_integer_shape(self):
        m = sel.SelectorMatrix([0], [1], np.int64(1), np.int32(2))
        assert (m.t, m.n) == (1, 2)
        assert type(m.t) is int and type(m.n) is int

    def test_ones_sorted_and_read_only(self):
        m = sel.SelectorMatrix(np.array([2, 0, 2, 1]), [3, 1, 0, 1], 3, 4)
        assert ones(m) == ([0, 1, 2, 2], [1, 1, 0, 3])
        assert m.row_of.dtype == m.col_of.dtype == np.int64
        with pytest.raises(ValueError):
            m.row_of[0] = 1
        # every cell has an int64 index; 10^13 columns of one row fit
        assert sel.SelectorMatrix([0], [10**13 - 1], 1, 10**13).col_of.tolist() == [10**13 - 1]
        for t, n in ((2, 2**62), (0, 2**63)):
            with pytest.raises(ParameterError, match=f"{t} rows of {n} columns overflow"):
                sel.SelectorMatrix([], [], t, n)


class TestSelectorFiles:
    def test_roundtrip(self, tmp_path):
        m = sel.poly_uss(8, 2)
        p = tmp_path / "sel.txt"
        sel.write_selector(m, p)
        back = sel.read_selector(p)
        assert ones(back) == ones(m)
        assert back.claimed_k == 2 and back.claimed_eps == m.claimed_eps

    def test_roundtrip_without_claims(self, tmp_path):
        m = selector(np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8))
        p = tmp_path / "sel.txt"
        sel.write_selector(m, p)
        back = sel.read_selector(p)
        assert back.claimed_k is None and ones(back) == ones(m)

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
    def test_rows_are_checked_before_anything_is_sized(self, tmp_path):
        # 16 KB of rows of one char, under a header that claims 2000 x 3e6 cells
        p = tmp_path / "wide.txt"
        p.write_text("uss n=3000000 t=2000\n" + "0\n" * 2000)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="row 0: expected 3000000 chars of 0/1"):
                sel.read_selector(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 9), st.integers(0, 10**6), st.booleans())
    def test_roundtrip_matches_dense_rows(self, n, t, seed, claims):
        # the file holds one line of 0/1 per dense row, read back to the same ones
        rng = np.random.default_rng(seed)
        rows = (rng.random((t, n)) < rng.random()).astype(np.uint8)
        m = selector(rows, claimed_k=n if claims else None, claimed_eps=Fraction(1, 3) if claims else None)
        header = f"uss n={n} t={t}" + (f" k={n} eps=1/3" if claims else "")
        want = "".join(line + "\n" for line in [header, *("".join(map(str, row)) for row in rows.tolist())])
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "sel.txt"
            sel.write_selector(m, p)
            assert p.read_text() == want
            back = sel.read_selector(p)
        assert np.array_equal(dense(back), rows)
        assert (back.t, back.n, back.claimed_k, back.claimed_eps) == (m.t, m.n, m.claimed_k, m.claimed_eps)


def dense_poly_uss(n, k):
    """poly_uss's rows as the dense construction set them: a 1 in row
    x*q + P_i(x) of column i, in a q^2 x n uint8 matrix."""
    d = 1
    while k**d < n:
        d += 1
    q = sel._next_prime(sel.FIELD_FACTOR * k * d)
    idx = np.arange(n, dtype=np.int64)
    coeffs = np.empty((n, d + 1), dtype=np.int64)
    for j in range(d + 1):
        coeffs[:, j] = (idx // q**j) % q
    xs = np.arange(q, dtype=np.int64)[:, None]
    values = np.zeros((q, n), dtype=np.int64)
    for j in range(d, -1, -1):
        values = (values * xs + coeffs[None, :, j]) % q
    rows = np.zeros((q * q, n), dtype=np.uint8)
    rows[xs * q + values, np.arange(n)[None, :]] = 1
    return rows


def dense_random_uss(n, k, eps, seed):
    """random_uss's accepted draw as one rng.random((t, n)) call per attempt,
    checked as random_uss checks it."""
    t = sel.random_uss_size(n, k, eps)
    rng = np.random.default_rng(seed)
    for attempt in range(sel.MAX_DRAWS):
        rows = (rng.random((t, n)) < 1.0 / k).astype(np.uint8)
        m = selector(rows)
        if sel.exhaustive_fits(n, k):
            ok = sel.uss_min_count(m, k).eps >= eps
        else:
            ok = sel.uss_sample_check(m, k, eps, trials=sel.SAMPLE_TRIALS, seed=seed + attempt).ok
        if ok:
            return rows


class TestOnesMatchDenseConstruction:
    @pytest.mark.parametrize("n, k", [(2, 2), (8, 2), (27, 3), (30, 4), (100, 20), (220, 20)])
    def test_poly_uss(self, n, k):
        m = sel.poly_uss(n, k)
        assert ones(m) == tuple(a.tolist() for a in np.nonzero(dense_poly_uss(n, k)))

    @pytest.mark.parametrize("n, k, eps, seed", [(8, 2, Fraction(1, 4), 1), (12, 3, Fraction(1, 4), 2),
                                                 (5, 1, Fraction(1, 2), 0), (40, 8, Fraction(1, 10), 3)])
    def test_random_uss(self, n, k, eps, seed):
        m = sel.random_uss(n, k, eps, seed=seed)
        assert ones(m) == tuple(a.tolist() for a in np.nonzero(dense_random_uss(n, k, eps, seed)))

    @pytest.mark.parametrize("t, n, seed", [(1, 1, 0), (300, 7, 1), (3, 70_000, 2)])
    def test_block_draws_are_the_one_shot_draw(self, t, n, seed):
        # blocks of rows from one stream; the widest rows are drawn one a block
        want = np.nonzero(np.random.default_rng(seed).random((t, n)) < 0.25)
        got = sel._bernoulli_ones(np.random.default_rng(seed), t, n, 0.25)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


class TestMemory:
    def test_poly_uss_holds_its_ones(self):
        # 127,000 ones in 2.03 MB; the dense 16,129 x 1000 matrix held 16.1 MB
        tracemalloc.start()
        try:
            m = sel.poly_uss(1000, 20)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(m.row_of) == 127_000 and held <= 3_000_000

    def test_read_selector_peak(self, tmp_path):
        # poly_uss(300, 20)'s 24,900 ones in 6,889 rows of 300 columns, a
        # 2.1 MB file, read line by line: 0.9 MB at peak.  Holding the text
        # and its list of lines took 5.3 MB
        m = sel.poly_uss(300, 20)
        p = tmp_path / "sel.txt"
        sel.write_selector(m, p)
        tracemalloc.start()
        try:
            back = sel.read_selector(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.stat().st_size > 2_000_000 and ones(back) == ones(m) and peak < 2_100_000

    def test_random_uss_peak(self):
        # 727,580 ones of a 66,034 x 220 draw, checked by sample on per-column
        # bitsets of 1.8 MB: 20.1 MB at peak, of which the ones are 11.6 MB;
        # one float64 draw of the whole matrix would be 116 MB
        tracemalloc.start()
        try:
            m = sel.random_uss(220, 20, Fraction(1, 4), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m.t, len(m.row_of)) == (66_034, 727_580) and peak < 22_000_000
