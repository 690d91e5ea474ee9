"""Selector families: boolean matrices whose columns can be isolated.

A t x n matrix is a uniform strong selector of strength (k, eps) when for
every column set A with |A| <= k, every a in A is isolated (the row meets
A exactly in {a}) by at least eps*t/k rows.  Two constructions are
provided: a randomized one with a retry-until-verified loop, and a
deterministic one from polynomials over a prime field.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, FormatError, ParameterError, SizeError

SUBSET_BUDGET = 2_000_000
# random_uss: matrices drawn before giving up, and pairs per sample check
MAX_DRAWS = 64
SAMPLE_TRIALS = 2000
# poly_uss: the field has at least FIELD_FACTOR*k*d elements; the strength
# guarantee scales with (c - 1)/c^2 in this factor c, largest at c = 2
FIELD_FACTOR = 2


@dataclass(eq=False)
class SelectorMatrix:
    """Boolean t x n selector matrix with optional verified strength claims.

    claimed_k / claimed_eps are attached only by a construction with a
    proven guarantee or after an exhaustive verifier pass.
    """

    rows: np.ndarray
    claimed_k: int | None = None
    claimed_eps: Fraction | None = None
    t: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.uint8))
        if rows.ndim != 2:
            raise ParameterError(f"rows must be a 2-D matrix, got shape {rows.shape}")
        self.t, self.n = rows.shape
        if self.n < 1:
            raise ParameterError("need at least one column")
        if rows.size and rows.max() > 1:
            raise ParameterError("matrix entries must be 0/1")
        rows.setflags(write=False)
        self.rows = rows
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


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into little-endian 64-bit words, one row per entry:
    bit i of word w is column 64 * w + i."""
    padded = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 64)))
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


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

    words = _pack(m.rows)
    nwords = words.shape[1]
    # the (k - 1)-sets in lexicographic order, as members and as a 0/1 matrix
    sets = math.comb(n, k - 1)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k - 1))
    rest = np.fromiter(flat, np.intp, sets * (k - 1)).reshape(sets, k - 1)
    member = np.zeros((sets, n), dtype=np.uint8)
    member[np.arange(sets)[:, None], rest] = 1
    rest_words = _pack(member)

    def witness_of(i: int, a: int) -> tuple[tuple[int, ...], int]:
        return tuple(sorted([*rest[i].tolist(), a])), a

    best = t + 1
    witness = (tuple(range(k)), 0)
    for a in range(n):
        isolating_rows = words[m.rows[:, a] == 1]
        # k <= n, so some set avoids a
        keep = np.flatnonzero(member[:, a] == 0)
        r = isolating_rows.shape[0]
        if r == 0:
            return MinCountResult(0, Fraction(0), witness_of(keep[0], a))
        chunk = max(1, 4_000_000 // r)
        for lo in range(0, keep.size, chunk):
            idx = keep[lo : lo + chunk]
            masks = rest_words[idx]
            ok = np.ones((r, idx.size), dtype=bool)
            for w in range(nwords):
                ok &= (isolating_rows[:, w : w + 1] & masks[None, :, w]) == 0
            counts = ok.sum(axis=0)
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
    rows = m.rows
    for _ in range(trials):
        combo = tuple(sorted(rng.sample(range(m.n), k)))
        a = rng.choice(combo)
        # only rows with a 1 in column a can isolate it
        own = rows[np.flatnonzero(rows[:, a])]
        count = int((own[:, combo].sum(axis=1) == 1).sum())
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
        rows = (rng.random((t, n)) < 1.0 / k).astype(np.uint8)
        m = SelectorMatrix(rows)
        if exhaustive:
            ok = uss_min_count(m, k).eps >= eps
        else:
            ok = uss_sample_check(m, k, eps, trials=SAMPLE_TRIALS, seed=seed + attempt).ok
        if ok:
            return replace(m, claimed_k=k, claimed_eps=eps)
    raise ConstructionError(f"no verified matrix within {MAX_DRAWS} draws")


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

    rows = np.zeros((q * q, n), dtype=np.uint8)
    rows[xs * q + values, np.arange(n)[None, :]] = 1
    eps = Fraction(k * (q - k * d), q * q)
    return SelectorMatrix(rows, claimed_k=k, claimed_eps=eps)


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
    body = "\n".join("".join("1" if v else "0" for v in row) for row in m.rows)
    Path(path).write_text(header + "\n" + (body + "\n" if m.t else ""))


def read_selector(path) -> SelectorMatrix:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    fields = parse_header(lines[0] if lines else "", "uss", ("n", "t"))
    n, t = parse_count(fields["n"]), parse_count(fields["t"])
    body = lines[1:]
    if len(body) != t:
        raise FormatError(f"expected {t} rows, found {len(body)}")
    rows = np.zeros((t, n), dtype=np.uint8)
    for i, line in enumerate(body):
        bits = line.strip()
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise FormatError(f"row {i}: expected {n} chars of 0/1")
        rows[i] = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
    claimed_k = parse_count(fields["k"]) if "k" in fields else None
    claimed_eps = parse_fraction(fields["eps"]) if "eps" in fields else None
    try:
        return SelectorMatrix(rows, claimed_k=claimed_k, claimed_eps=claimed_eps)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc
