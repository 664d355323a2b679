"""Cohen–Lenstra style probability measure on finite DVR-module types,
truncated moment sums with bracketed tails, and a Monte-Carlo sampler
that draws the cokernel of a uniform n x (n+1) matrix over the ring
truncated at 𝔪^prec.

The residue field size Q may be any prime power, p odd or even;
sampling over Q = p^f with f > 1 runs in the unramified extension ring
(Z/p^N)[z]/u(z).  The sampler draws and eliminates trials in batches of
CHUNK matrices with one numpy kernel for every Q; a batch consumes the
Philox stream exactly as one draw per trial would, so `sample_many`
returns the same table as repeated `sample` calls on one generator.
"""

import functools
import itertools as it
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abelian import _is_prime
from .dvrmod import ModuleType, aut_count, partitions_of, sur_count
from . import linalg

DEFAULT_TRUNC = 64


def _prime_power_split(Q):
    for p in range(2, Q + 1):
        if Q % p == 0:
            f = 0
            n = Q
            while n % p == 0:
                n //= p
                f += 1
            if n != 1 or not _is_prime(p):
                raise ValueError("Q must be a prime power")
            return p, f
    raise ValueError("Q must be >= 2")


@dataclass(frozen=True)
class MeasureContext:
    """Residue field size plus the truncation index for the constant
    Z(Q) = ∏_{i=2}^∞ (1 - Q^{-i})."""

    Q: int
    trunc: int = DEFAULT_TRUNC

    def __post_init__(self):
        _prime_power_split(self.Q)
        assert self.trunc >= 2

    def z_bracket(self):
        """(lower, upper) rational bracket for Z(Q).

        The partial product to index `trunc` is an upper bound; the tail
        ∏_{i>T}(1 - Q^{-i}) is at least 1 - Q^{-T}/(Q - 1).
        """
        Q = self.Q
        part = Fraction(1)
        for i in range(2, self.trunc + 1):
            part *= 1 - Fraction(1, Q**i)
        tail_low = 1 - Fraction(1, Q**self.trunc * (Q - 1))
        return part * tail_low, part


def measure(ctx: MeasureContext, M: ModuleType):
    """Rational bracket for μ(M) = Z(Q) / (#Aut(M)·|M|)."""
    if M.Q != ctx.Q:
        raise ValueError("residue field size mismatch")
    zlo, zhi = ctx.z_bracket()
    den = aut_count(M) * M.size
    return zlo / den, zhi / den


@dataclass(frozen=True)
class MomentBracket:
    lower: Fraction
    upper: Fraction
    tail_estimate: Fraction  # heuristic geometric extrapolation, included in upper

    @property
    def width(self):
        return self.upper - self.lower


def moment_truncated(ctx: MeasureContext, V: ModuleType, B: int) -> MomentBracket:
    """Bracket for ∫ #Sur(X, V) dμ(X) from partitions of total size <= B.

    The lower bound drops the tail entirely; the upper bound adds a
    heuristic geometric extrapolation of the last partial-sum increments
    (the tail estimate is reported so callers can label it as such).
    The exact value of the full sum is 1/|V|.
    """
    if V.Q != ctx.Q:
        raise ValueError("residue field size mismatch")
    if B < sum(V.parts):
        raise ValueError("truncation below the target size")
    Q = ctx.Q
    zlo, zhi = ctx.z_bracket()
    increments = []
    for b in range(B + 1):
        s = Fraction(0)
        for lam in partitions_of(b):
            M = ModuleType(Q, lam)
            sc = sur_count(M, V)
            if sc:
                s += Fraction(sc, aut_count(M) * M.size)
        increments.append(s)
    S = sum(increments)
    positive = [x for x in increments if x > 0]
    tail = Fraction(0)
    if len(positive) >= 2 and increments[-1] > 0:
        ratios = [b / a for a, b in zip(positive, positive[1:]) if a > 0][-3:]
        r = min(max(max(ratios), Fraction(1, Q)), Fraction(9, 10))
        tail = increments[-1] * r / (1 - r)
    return MomentBracket(lower=zlo * S, upper=zhi * (S + tail), tail_estimate=zhi * tail)


# ---------------------------------------------------------------------------
# sampling

@dataclass(frozen=True)
class SampleOutcome:
    """Partition of a sampled cokernel; parts are valuations capped at the
    working precision, overflow marks a part that hit the cap."""

    parts: tuple
    overflow: bool

    def label(self):
        if not self.parts:
            return "0"
        marks = [str(v) for v in self.parts]
        if self.overflow:
            marks[0] += "+"
        return ",".join(marks)


@functools.lru_cache(maxsize=None)
def _irreducible_poly(p, f):
    """Coefficients (ascending) of the first monic irreducible of degree f
    mod p, in lexicographic order of (u_0, ..., u_{f-1})."""
    divisors = [list(t) + [1] for d in range(1, f // 2 + 1) for t in it.product(range(p), repeat=d)]
    for tail in it.product(range(p), repeat=f):
        u = list(tail) + [1]
        if all(linalg.poly_divmod(u, h, p)[1] for h in divisors):
            return tuple(u)
    raise AssertionError("no irreducible polynomial found")


def _ring_mul(a, b, u, mod):
    """Elementwise products in (Z/mod)[z]/u(z) of broadcastable arrays
    whose first axis holds the f = deg u coefficients (ascending), as
    non-negative representatives below mod^2 (reduced only for f > 1)."""
    f = len(u) - 1
    if f == 1:
        return a * b
    c = [0] * (2 * f - 1)
    for i, j in it.product(range(f), repeat=2):
        c[i + j] = c[i + j] + a[i] * b[j]
    for k in range(2 * f - 2, f - 1, -1):  # z^k ≡ -z^(k-f)·(u(z) - z^f)
        top = c[k] % mod
        for i in range(f):
            c[k - f + i] = c[k - f + i] - top * u[i]
    return np.stack([x % mod for x in c[:f]])


def _divisor_count(A, p, prec):
    """#{1 <= j <= prec : p^j divides a} per entry: prec for zero."""
    V = np.zeros(A.shape, dtype=np.int64)
    for j in range(1, prec + 1):
        V += A % p**j == 0
    return V


@functools.lru_cache(maxsize=32)
def _valuation_table(p, prec):
    table = _divisor_count(np.arange(p**prec), p, prec).astype(np.int8)
    table.flags.writeable = False  # shared by every caller
    return table


def _valuations(A, p, prec):
    """Valuation of each ring entry, the minimum of `_divisor_count` over
    the coefficient axis (the first); moduli up to 2^16 are looked up in
    a table."""
    V = _valuation_table(p, prec)[A] if p**prec <= 2**16 else _divisor_count(A, p, prec)
    return V.min(axis=0)


def _coker_valuations(A, p, prec, u):
    """Diagonal valuations, shape (trials, n), of a batch of n x m matrices
    (n <= m) over (Z/p^prec)[z]/u(z); A has shape (trials, n, m, f) with
    coefficients in [0, p^prec).

    Each step takes an entry p^v·unit of least valuation as pivot in
    column j, clears that column in every other row by
    row_i <- unit·row_i - (a_ij / p^v)·pivot_row, which needs no inverse,
    and drops the pivot row and column: a column pass would only clear
    the rest of the pivot row.  int64 holds f·mod^2; larger moduli run
    the same code on Python integers (dtype object).
    """
    mod = p**prec
    trials, n, _, f = A.shape
    # coefficient axis first, so that ring arithmetic runs on whole planes
    A = np.moveaxis(A, -1, 0).astype(np.int64 if f * mod**2 < 2**63 else object, order="C")
    powers = np.array([p**j for j in range(prec + 1)], dtype=A.dtype)
    idx = np.arange(trials)
    vals = np.empty((trials, n), dtype=np.int64)
    for t in range(n):
        V = _valuations(A, p, prec).reshape(trials, -1)
        i, j = np.divmod(V.argmin(axis=1), A.shape[3])
        vals[:, t] = v = V[idx, i * A.shape[3] + j]
        pv = powers[v]
        # take out the pivot row P and column; row and column 0 move into
        # their slots, so rows and columns 1: hold everything else
        P = A[:, idx, i]
        A[:, idx, i] = A[:, idx, 0]
        unit = P[:, idx, j] // pv
        w = A[:, idx, 1:, j] // pv[:, None, None]  # split fancy index: shape (trials, f, r - 1)
        A[:, idx, :, j] = A[:, idx, :, 0]
        P[:, idx, j] = P[:, idx, 0]
        A = (_ring_mul(unit[:, :, None, None], A[:, :, 1:, 1:], u, mod)
             - _ring_mul(w.swapaxes(0, 1)[..., None], P[:, :, None, 1:], u, mod)) % mod
    return vals


CHUNK = 1024  # trials per batched draw; bounds the working arrays


def make_rng(seed: int):
    """Counter-based generator with an explicit 64-bit seed."""
    return np.random.Generator(np.random.Philox(seed))


def _sampler_ring(Q, n, prec):
    """(p, f, u) of the ring sampled for Q = p^f at precision prec, after
    checking the request."""
    if n < 1:
        raise ValueError(f"matrix size n must be >= 1, got {n}")
    if prec < 1:
        raise ValueError(f"precision must be >= 1, got {prec}")
    p, f = _prime_power_split(Q)
    if p**prec >= 2**62:
        raise ValueError(f"p^prec = {p}^{prec} does not fit the sampler's 62-bit draws")
    return p, f, _irreducible_poly(p, f)


def _tally(rng, n, prec, trials, ring, freq):
    """Draw `trials` uniform n x (n+1) matrices, one entry after another
    in the order of per-trial draws, and count their cokernel types
    into `freq` in order of first occurrence."""
    p, f, u = ring
    shape = (trials, n, n + 1) if f == 1 else (trials, n, n + 1, f)
    A = rng.integers(0, p**prec, size=shape).reshape(trials, n, n + 1, f)
    parts = -np.sort(-_coker_valuations(A, p, prec, u), axis=1)
    rows, first, counts = np.unique(parts, axis=0, return_index=True, return_counts=True)
    for k in np.argsort(first):
        key = tuple(int(v) for v in rows[k] if v > 0)
        out = SampleOutcome(parts=key, overflow=bool(key and key[0] >= prec))
        freq[out] = freq.get(out, 0) + int(counts[k])
    return freq


def sample(ctx: MeasureContext, n: int, prec: int, rng) -> SampleOutcome:
    """Partition of the cokernel of a uniform n x (n+1) matrix over the
    ring truncated at 𝔪^prec."""
    (out,) = _tally(rng, n, prec, 1, _sampler_ring(ctx.Q, n, prec), {})
    return out


def sample_many(ctx: MeasureContext, n: int, prec: int, trials: int, seed: int):
    """Frequency table {SampleOutcome: count} over `trials` draws; the
    same draws and outcomes as `trials` calls of `sample` on one rng."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    ring = _sampler_ring(ctx.Q, n, prec)
    rng = make_rng(seed)
    freq = {}
    for start in range(0, trials, CHUNK):
        _tally(rng, n, prec, min(CHUNK, trials - start), ring, freq)
    return freq
