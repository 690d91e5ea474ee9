"""Selector families: boolean matrices whose columns can be isolated.

A t x n matrix is a uniform strong selector of strength (k, eps) when for
every column set A with |A| <= k, every a in A is isolated (the row meets
A exactly in {a}) by at least eps*t/k rows, and is held as its ones,
never as t x n cells.  Two constructions are
provided: a randomized one with a retry-until-verified loop, and a
deterministic one from polynomials over a prime field.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, FormatError, ParameterError, SizeError, reads_format

SUBSET_BUDGET = 2_000_000
# random_uss: matrices drawn before giving up, and pairs per sample check
MAX_DRAWS = 64
SAMPLE_TRIALS = 2000
# poly_uss: the field has at least FIELD_FACTOR*k*d elements; the strength
# guarantee scales with (c - 1)/c^2 in this factor c, largest at c = 2
FIELD_FACTOR = 2


@dataclass(eq=False)
class SelectorMatrix:
    """A t x n 0/1 selector matrix held as its ones, with optional claims.

    The constructor takes the ones as (row_of[j], col_of[j]) pairs in any
    order, refuses a row outside [0, t), a column outside [0, n) and a pair
    given twice, and holds them as read-only int64 arrays sorted by (row,
    column).  claimed_k / claimed_eps are attached by a construction with a
    proven guarantee, after an exhaustive verifier pass, or by random_uss
    above exhaustive_fits after a sample check, which is evidence, not proof.
    """

    row_of: np.ndarray
    col_of: np.ndarray
    t: int
    n: int
    claimed_k: int | None = None
    claimed_eps: Fraction | None = None

    def __post_init__(self):
        t, n = int(self.t), int(self.n)
        row_of = np.asarray(self.row_of, dtype=np.int64)
        col_of = np.asarray(self.col_of, dtype=np.int64)
        if t < 0 or row_of.ndim != 1 or row_of.shape != col_of.shape:
            raise ParameterError("a selector needs t >= 0 and flat ones of one length")
        if n < 1:
            raise ParameterError("need at least one column")
        if max(t, 1) * n > np.iinfo(np.int64).max:
            raise ParameterError(f"{t} rows of {n} columns overflow an int64 cell index")
        for name, arr, size in (("row", row_of, t), ("column", col_of, n)):
            bad = (arr < 0) | (arr >= size)
            if bad.any():
                raise ParameterError(f"{name} {arr[bad][0]} out of range")
        key = row_of * n + col_of
        # ones in strict (row, column) order, as the constructions give them, are held as given
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            row_of, col_of, key = row_of[order], col_of[order], key[order]
            twice = np.flatnonzero(key[1:] == key[:-1])
            if twice.size:
                raise ParameterError(f"row {row_of[twice[0]]}, column {col_of[twice[0]]} given twice")
        row_of.setflags(write=False)
        col_of.setflags(write=False)
        self.row_of, self.col_of, self.t, self.n = row_of, col_of, t, n
        if self.claimed_k is not None and not 1 <= self.claimed_k <= self.n:
            raise ParameterError(f"claimed k={self.claimed_k} outside [1, {self.n}]")
        if self.claimed_eps is not None:
            self.claimed_eps = Fraction(self.claimed_eps)
            if not 0 <= self.claimed_eps <= 1:
                raise ParameterError(f"claimed eps={self.claimed_eps} outside [0, 1]")


class MinCountResult(NamedTuple):
    min_count: int
    eps: Fraction
    witness: tuple[tuple[int, ...], int]


class SampleCheck(NamedTuple):
    ok: bool
    trials: int
    threshold: int
    witness: tuple[tuple[int, ...], int, int] | None


def exhaustive_fits(n: int, k: int) -> bool:
    """Whether uss_min_count's C(n, k) column sets fit SUBSET_BUDGET; above
    it, a selector can only be checked by uss_sample_check."""
    return math.comb(n, k) <= SUBSET_BUDGET


def _pack(row_of: np.ndarray, col_of: np.ndarray, words: np.ndarray) -> np.ndarray:
    """OR the ones (row_of[j], col_of[j]) into rows of little-endian 64-bit
    words, one row per entry: bit i of word w is column 64 * w + i."""
    bits = np.left_shift(np.uint64(1), (col_of % 64).astype(np.uint64))
    np.bitwise_or.at(words, (row_of, col_of // 64), bits)
    return words


def _column_bits(m: SelectorMatrix) -> list[int]:
    """Each column's rows as one int: bit r of int c is set when row r has a
    1 in column c.  The ones are packed in blocks, to keep `_pack`'s
    temporaries small."""
    words = np.zeros((m.n, -(-m.t // 64)), dtype=np.uint64)
    for lo in range(0, len(m.row_of), 2**16):
        _pack(m.col_of[lo : lo + 2**16], m.row_of[lo : lo + 2**16], words)
    return [int.from_bytes(w.astype("<u8", copy=False).tobytes(), "little") for w in words]


def uss_min_count(m: SelectorMatrix, k: int) -> MinCountResult:
    """Exhaustive minimum isolation count over all (A, a) with |A| = k.

    Checking |A| = k exactly suffices: dropping elements from A can only
    increase counts.  eps is the exact rational k * min_count / t.
    """
    n, t = m.n, m.t
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= {n}, got {k}")
    if not exhaustive_fits(n, k):
        raise SizeError(
            f"C({n},{k}) = {math.comb(n, k)} subsets exceeds the enumeration "
            f"budget of {SUBSET_BUDGET}; use uss_sample_check instead"
        )
    if t == 0:
        return MinCountResult(0, Fraction(0), (tuple(range(k)), 0))

    # equal rows isolate the same pairs: each distinct row counts its copies
    nwords = -(-n // 64)
    words = _pack(m.row_of, m.col_of, np.zeros((t, nwords), dtype=np.uint64))
    words, copies = np.unique(words, axis=0, return_counts=True)
    # the (k - 1)-sets in lexicographic order, as members and as packed
    # words, packed a member position at a time to keep temporaries small
    sets = math.comb(n, k - 1)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k - 1))
    rest = np.fromiter(flat, np.intp, sets * (k - 1)).reshape(sets, k - 1)
    rest_words = np.zeros((sets, nwords), dtype=np.uint64)
    for j in range(k - 1):
        _pack(np.arange(sets), rest[:, j], rest_words)

    def witness_of(i: int, a: int) -> tuple[tuple[int, ...], int]:
        return tuple(sorted([*rest[i].tolist(), a])), a

    best = t + 1
    witness = (tuple(range(k)), 0)
    for a in range(n):
        word, bit = a // 64, np.uint64(1 << a % 64)
        own = (words[:, word] & bit) != 0
        isolating_rows, weight = words[own], copies[own]
        # k <= n, so some set avoids a
        keep = np.flatnonzero((rest_words[:, word] & bit) == 0)
        r = isolating_rows.shape[0]
        if r == 0:
            return MinCountResult(0, Fraction(0), witness_of(keep[0], a))
        # each temporary below holds at most r * chunk <= 16384 cells, or r
        chunk = max(1, 16_384 // r)
        for lo in range(0, keep.size, chunk):
            idx = keep[lo : lo + chunk]
            masks = rest_words[idx]
            ok = np.ones((r, idx.size), dtype=bool)
            for w in range(nwords):
                ok &= (isolating_rows[:, w : w + 1] & masks[None, :, w]) == 0
            counts = weight @ ok
            j = int(counts.argmin())
            if counts[j] < best:
                best = int(counts[j])
                witness = witness_of(idx[j], a)
                if best == 0:
                    return MinCountResult(0, Fraction(0), witness)
    return MinCountResult(best, Fraction(k * best, t), witness)


def uss_sample_check(
    m: SelectorMatrix, k: int, eps, trials: int, seed: int
) -> SampleCheck:
    """Spot-check the isolation guarantee on uniformly sampled (A, a) pairs.

    A pass is evidence, not proof; the exhaustive verifier is uss_min_count.
    """
    if not 1 <= k <= m.n:
        raise ParameterError(f"need 1 <= k <= {m.n}, got {k}")
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    eps = Fraction(eps)
    threshold = math.ceil(eps * m.t / k)
    rng = random.Random(seed)
    bits = _column_bits(m)
    for _ in range(trials):
        combo = tuple(sorted(rng.sample(range(m.n), k)))
        a = rng.choice(combo)
        # only rows with a 1 in column a and in no other member isolate it
        others = 0
        for c in combo:
            if c != a:
                others |= bits[c]
        count = (bits[a] & ~others).bit_count()
        if count < threshold:
            return SampleCheck(False, trials, threshold, (combo, a, count))
    return SampleCheck(True, trials, threshold, None)


# ---------------------------------------------------------------------------
# randomized construction


def random_uss_size(n: int, k: int, eps) -> int:
    """Row count from the probabilistic existence argument.

    With per-entry probability 1/k, a column survives a k-set with
    probability c/k where c = (1 - 1/k)^(k-1); any target eps below c
    admits a matrix of the returned size.  The k = 1 case degenerates to
    c = 1 (every row isolates every singleton).
    """
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    eps = float(eps)
    c = (1.0 - 1.0 / k) ** (k - 1)
    if not 0 < eps < c:
        raise ParameterError(f"need 0 < eps < {c:.6f}, got {eps}")
    num = 2 * c * k * math.log(k) + 2 * c * k * k * math.log(n * math.e / k)
    return math.ceil(num / (c - eps) ** 2) + 1


def random_uss(n: int, k: int, eps, seed: int) -> SelectorMatrix:
    """Draw Bernoulli(1/k) matrices until one verifies at strength eps.

    Verification is exhaustive when exhaustive_fits(n, k) and a seeded
    sample check otherwise.  Deterministic for a given seed.
    """
    eps = Fraction(eps)
    t = random_uss_size(n, k, eps)
    if t * n > 200_000_000:
        raise SizeError(
            f"a verified matrix at eps={eps} needs {t} rows; pick eps further below "
            "the survival constant or build the matrix yourself from random_uss_size"
        )
    exhaustive = exhaustive_fits(n, k)
    rng = np.random.default_rng(seed)
    for attempt in range(MAX_DRAWS):
        m = SelectorMatrix(*_bernoulli_ones(rng, t, n, 1.0 / k), t, n)
        if exhaustive:
            ok = uss_min_count(m, k).eps >= eps
        else:
            ok = uss_sample_check(m, k, eps, trials=SAMPLE_TRIALS, seed=seed + attempt).ok
        if ok:
            return replace(m, claimed_k=k, claimed_eps=eps)
    raise ConstructionError(f"no verified matrix within {MAX_DRAWS} draws")


def _bernoulli_ones(rng: np.random.Generator, t: int, n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The (row, column) ones of rng.random((t, n)) < p, drawn in blocks of
    rows from the same stream, so no t x n array is ever held."""
    block = max(1, 65_536 // n)
    flat = [np.flatnonzero(rng.random((min(block, t - lo), n)) < p) + lo * n for lo in range(0, t, block)]
    flat = np.concatenate(flat)  # frees the blocks before divmod doubles the ones
    return np.divmod(flat, n)


# ---------------------------------------------------------------------------
# polynomial construction


def _next_prime(x: int) -> int:
    def is_prime(v: int) -> bool:
        if v < 2:
            return False
        f = 2
        while f * f <= v:
            if v % f == 0:
                return False
            f += 1
        return True

    while not is_prime(x):
        x += 1
    return x


def poly_uss(n: int, k: int) -> SelectorMatrix:
    """Deterministic selector from degree-bounded polynomials.

    Column i holds the graph of the i-th polynomial of degree <= d over
    the field of q elements: a 1 in row x*q + P_i(x) for every x.  Two
    distinct columns then share at most d rows, so in any k-set a column
    is isolated on all but k*d arguments.  q is the least prime at or
    above FIELD_FACTOR*k*d; the guaranteed strength k*(q - k*d)/q^2 is attached.
    Columns are the first n polynomials ordered lexicographically by
    coefficients, constant term varying fastest.
    """
    if n < 2 or k < 2:
        raise ParameterError(f"need n >= 2 and k >= 2, got n={n}, k={k}")
    if k > n:
        raise ParameterError(f"need k <= n, got k={k}, n={n}")
    d = 1
    while k**d < n:
        d += 1
    q = _next_prime(FIELD_FACTOR * k * d)
    if q ** (d + 1) < n:
        raise ParameterError("field too small for the requested column count")

    idx = np.arange(n, dtype=np.int64)
    coeffs = np.empty((n, d + 1), dtype=np.int64)
    for j in range(d + 1):
        coeffs[:, j] = (idx // q**j) % q

    xs = np.arange(q, dtype=np.int64)[:, None]
    values = np.zeros((q, n), dtype=np.int64)
    for j in range(d, -1, -1):
        values = (values * xs + coeffs[None, :, j]) % q

    eps = Fraction(k * (q - k * d), q * q)
    row_of = (xs * q + values).ravel()
    return SelectorMatrix(row_of, np.tile(np.arange(n), q), q * q, n, claimed_k=k, claimed_eps=eps)


# ---------------------------------------------------------------------------
# on-disk format: "uss n=<n> t=<t> [k=<k> eps=<p>/<q>]" then t rows of 01


def parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            p, q = text.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational literal {text!r}") from exc


def parse_count(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise FormatError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def parse_header(line: str, kind: str, required: tuple[str, ...]) -> dict[str, str]:
    """Split a '<kind> key=value ...' header line into its fields, checking
    that the line starts with exactly ``kind``, names no key twice and
    carries every ``required`` key."""
    parts = line.split()
    if not parts or parts[0] != kind:
        raise FormatError(f"expected a {kind!r} header")
    fields: dict[str, str] = {}
    for token in parts[1:]:
        key, eq, value = token.partition("=")
        if not eq:
            raise FormatError(f"bad header token {token!r}")
        if key in fields:
            raise FormatError(f"header repeats {key}=")
        fields[key] = value
    if any(key not in fields for key in required):
        raise FormatError("header must carry " + " and ".join(f"{key}=" for key in required))
    return fields


def format_fraction(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def write_selector(m: SelectorMatrix, path) -> None:
    header = f"uss n={m.n} t={m.t}"
    if m.claimed_k is not None:
        header += f" k={m.claimed_k}"
    if m.claimed_eps is not None:
        header += f" eps={format_fraction(m.claimed_eps)}"
    # blocks of about 1 MB of text: lines of 0s, then each one set
    width = m.n + 1
    block = max(1, 2**20 // width)
    with Path(path).open("w") as f:
        f.write(header + "\n")
        for lo in range(0, m.t, block):
            hi = min(lo + block, m.t)
            a, b = np.searchsorted(m.row_of, (lo, hi)).tolist()
            text = np.full((hi - lo, width), ord("0"), dtype=np.uint8)
            text[:, -1] = ord("\n")
            text[m.row_of[a:b] - lo, m.col_of[a:b]] = ord("1")
            f.write(text.tobytes().decode())


@reads_format
def read_selector(path) -> SelectorMatrix:
    with Path(path).open(encoding="utf-8") as f:
        # the non-blank lines, split as str.splitlines splits the whole text
        lines = (ln for raw in f for ln in raw.splitlines() if ln.strip())
        fields = parse_header(next(lines, ""), "uss", ("n", "t"))
        n, t = parse_count(fields["n"]), parse_count(fields["t"])
        # a wrong row count is reported ahead of a bad row, so after the
        # first bad row, or past row t, lines are only counted; the ones'
        # columns gather as int64 bytes, with each row's count of ones
        cols, sizes, fault, found = bytearray(), [], None, 0
        for line in lines:
            if fault is None and found < t:
                bits = line.strip()
                if len(bits) != n or bits.count("0") + bits.count("1") != n:
                    fault = FormatError(f"row {found}: expected {n} chars of 0/1")
                else:
                    ones = np.flatnonzero(np.frombuffer(bits.encode(), dtype=np.uint8) == ord("1"))
                    cols += ones.astype(np.int64, copy=False).tobytes()
                    sizes.append(ones.size)
            found += 1
    if found != t:
        raise FormatError(f"expected {t} rows, found {found}")
    if fault is not None:
        raise fault
    row_of = np.repeat(np.arange(t), sizes)
    claimed_k = parse_count(fields["k"]) if "k" in fields else None
    claimed_eps = parse_fraction(fields["eps"]) if "eps" in fields else None
    col_of = np.frombuffer(cols, dtype=np.int64)
    return SelectorMatrix(row_of, col_of, t, n, claimed_k=claimed_k, claimed_eps=claimed_eps)
