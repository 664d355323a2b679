"""Cohen–Lenstra style probability measure on finite DVR-module types,
truncated moment sums with bracketed tails, and a Monte-Carlo sampler
that draws the cokernel of a uniform n x (n+1) matrix over the ring
truncated at 𝔪^prec.

The residue field size Q may be any prime power, p odd or even.  The
measure and the moments read Q from their ModuleType, the sampler takes
it as an int, and Z(Q) is bracketed once per Q.  Sampling over Q = p^f
with f > 1 runs in the unramified extension ring (Z/p^N)[z]/u(z).  The
sampler draws and eliminates trials in batches of at most CHUNK
matrices and BATCH_ENTRIES entries, with one numpy kernel for every Q;
a batch consumes the Philox stream exactly as one draw per trial would,
so `sample_many` returns the same table as repeated `sample` calls on
one generator.  The kernel keeps a batch as planes of shape (f, rows,
columns, trials) in the narrowest integer dtype that its bound allows
(int32 for the moduli the sampler usually sees) and reduces by floor
division, not `%`.  Valuations come from an int32 table of the residues
mod p^prec while p^prec <= 2^16; each elimination step finds its pivot
by one min over int32 keys (valuation << shift) + row-major position.
The tally keys each sorted row of valuations as one byte string.

numpy is imported inside the sampling functions, not at module level:
the measure, the moments and every other dvrstat module are exact, so
only a process that samples pays for loading numpy.
"""

import functools
import itertools as it
from dataclasses import dataclass
from fractions import Fraction

from .abelian import prime_power_split
from .dvrmod import ModuleType, aut_count, partitions_of, sur_count
from . import linalg

Z_TRUNC = 64


@functools.lru_cache(maxsize=32)
def z_bracket(Q):
    """(lower, upper) rational bracket for Z(Q) = ∏_{i=2}^∞ (1 - Q^{-i}),
    Q a prime power; cached for the last 32 Q.

    The partial product to index T = Z_TRUNC is an upper bound; the
    tail ∏_{i>T}(1 - Q^{-i}) is at least 1 - Q^{-T}/(Q - 1).
    """
    prime_power_split(Q)
    part = Fraction(1)
    for i in range(2, Z_TRUNC + 1):
        part *= 1 - Fraction(1, Q**i)
    tail_low = 1 - Fraction(1, Q**Z_TRUNC * (Q - 1))
    return part * tail_low, part


def measure(M: ModuleType):
    """Rational bracket for μ(M) = Z(Q) / (#Aut(M)·|M|), Q = M.Q."""
    zlo, zhi = z_bracket(M.Q)
    den = aut_count(M) * M.size
    return zlo / den, zhi / den


@dataclass(frozen=True)
class MomentBracket:
    lower: Fraction
    upper: Fraction
    tail_estimate: Fraction  # geometric tail after the last increment, included in upper

    @property
    def width(self):
        return self.upper - self.lower


def moment_truncated(V: ModuleType, B: int) -> MomentBracket:
    """Bracket for ∫ #Sur(X, V) dμ(X) from partitions of total size <= B.

    With v = Σ V.parts, the size-b increment is 0 for b < v, as no
    smaller module maps onto V, and c_k/|V| for b = v + k, with
    c_k = Q^{−2k}/∏_{j=1..k}(1 − Q^{−j}) (Cohen–Lenstra; Macdonald,
    Symmetric Functions and Hall Polynomials, ch. II).  The ratios
    c_{k+1}/c_k = Q^{−2}/(1 − Q^{−(k+1)}) are at most 1/(Q(Q − 1)) <= 1/Q,
    so the increments after the last one, I, sum to at most the
    geometric tail I/(Q − 1) of ratio 1/Q.  With S the sum of the
    increments for b = v..B, the lower bound is zlo·S, the upper bound
    zhi·(S + I/(Q − 1)), and the tail estimate zhi·I/(Q − 1).  The exact
    value of the full sum is 1/|V|.
    """
    v = sum(V.parts)
    if B < v:
        raise ValueError("truncation below the target size")
    Q = V.Q
    zlo, zhi = z_bracket(Q)
    S = Fraction(0)
    for b in range(v, B + 1):
        inc = Fraction(0)
        for lam in partitions_of(b):
            M = ModuleType(Q, lam)
            sc = sur_count(M, V)
            if sc:
                inc += Fraction(sc, aut_count(M) * M.size)
        S += inc
    tail = inc / (Q - 1)
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


def _reduce(x, mod):
    """x mod `mod` in [0, mod), elementwise.  numpy divides an integer
    array by a scalar with a multiply and shift instead of a hardware
    division per entry, which `%` still does: on int32 this is about
    fifteen times faster than `x % mod` (numpy 2.4, x86-64)."""
    return x - x // mod * mod


def _ring_mul(a, b, u, mod):
    """Elementwise products in (Z/mod)[z]/u(z) of broadcastable arrays
    whose first axis holds the f = deg u coefficients (ascending), as
    non-negative representatives below mod^2 (reduced only for f > 1).

    For factors in [0, mod) every intermediate lies strictly between
    -(f - 1)·mod^2 and f·mod^2: each coefficient of the product is a sum
    of at most f products, and folding z^k back takes at most f - 1
    subtractions of top·u_i < mod·p from any one coefficient."""
    import numpy as np

    f = len(u) - 1
    if f == 1:
        return a * b
    c = [0] * (2 * f - 1)
    for i, j in it.product(range(f), repeat=2):
        c[i + j] = c[i + j] + a[i] * b[j]
    for k in range(2 * f - 2, f - 1, -1):  # z^k ≡ -z^(k-f)·(u(z) - z^f)
        top = _reduce(c[k], mod)
        for i in range(f):
            c[k - f + i] = c[k - f + i] - top * u[i]
    return _reduce(np.stack(c[:f]), mod)


def _divisor_count(A, p, prec):
    """#{1 <= j <= prec : p^j divides a} per entry, as int32: prec for zero."""
    import numpy as np

    V = np.zeros(A.shape, dtype=np.int32)
    for j in range(1, prec + 1):
        V += _reduce(A, p**j) == 0
    return V


@functools.lru_cache(maxsize=32)
def _valuation_table(p, prec):
    """The valuation, capped at prec, of each x < p^prec, as int32."""
    import numpy as np

    table = _divisor_count(np.arange(p**prec), p, prec)
    table.flags.writeable = False  # shared by every caller
    return table


def _valuations(A, p, prec):
    """Valuation of each ring entry, as int32: the least over the
    coefficient axis (the first), and prec for zero; moduli up to 2^16
    are looked up in a table."""
    V = _valuation_table(p, prec).take(A) if p**prec <= 2**16 else _divisor_count(A, p, prec)
    return V[0] if len(V) == 1 else V.min(axis=0)


def _kernel_dtype(mod, f):
    """int32, int64 or object (Python integers): the narrowest that holds
    ±(f+1)·mod^2, the bound on every intermediate of `_coker_valuations`
    over a ring of modulus mod and degree f."""
    import numpy as np

    bound = (f + 1) * mod**2
    return np.int32 if bound <= 2**31 else np.int64 if bound <= 2**63 else object


def _coker_valuations(A, p, prec, u):
    """Diagonal valuations, shape (trials, n), of a batch of n x m matrices
    (n <= m) over (Z/p^prec)[z]/u(z); A has shape (trials, n, m, f) with
    coefficients in [0, p^prec).

    Each step takes an entry p^v·unit of least valuation as pivot in
    column j, clears that column in every other row by
    row_i <- unit·row_i - (a_ij / p^v)·pivot_row, which needs no inverse,
    and drops the pivot row and column: a column pass would only clear
    the rest of the pivot row.

    The pivot is the least (valuation, row-major position) of a trial,
    found by one min over int32 keys (v << shift) + position, where
    shift is the bit length of the largest position n·m - 1; a key stays
    below (prec + 1)·2^shift <= 2^31 for prec <= 61 and n·m <= 2^25,
    which `_sampler_ring` checks.  Rows and columns are then moved with
    flat gathers and scatters of index arrays sliced from one table of
    plane offsets built per call.

    With mod = p^prec, the update's two ring products lie in [0, mod^2)
    for f = 1 and, reduced, in [0, mod) for f > 1; inside `_ring_mul`
    intermediates stay above -(f-1)·mod^2 and below f·mod^2; and
    reducing x by x - (x // mod)·mod never leaves (x - mod, x].  So
    every intermediate has absolute value below (f+1)·mod^2, and the
    kernel runs on int32 while that bound is at most 2^31 (mod <= 2^15
    for f = 1), on int64 up to 2^63, and on Python integers (dtype
    object) above, all through the same code.
    """
    import numpy as np

    mod = p**prec
    trials, n, m, f = A.shape
    # coefficients first, so that ring arithmetic runs on whole planes,
    # and trials last, so that every block of rows and columns is made
    # of contiguous runs of `trials` entries
    A = np.ascontiguousarray(A.transpose(3, 1, 2, 0), dtype=_kernel_dtype(mod, f))
    powers = np.array([p**j for j in range(prec + 1)], dtype=A.dtype)
    # pivot key (valuation << shift) + row-major position, in int32
    shift = (n * m - 1).bit_length()
    positions = np.arange(n * m, dtype=np.int32)[:, None]
    # entry (x, y) of trial s sits at (x·c + y)·trials + s of a plane;
    # `stride` is a numpy scalar, so that offsets are computed in intp
    offsets = np.arange(n * m * trials).reshape(n * m, trials)
    stride = offsets.dtype.type(trials)
    vals = np.empty((trials, n), dtype=np.int64)
    for t in range(n):
        r, c = n - t, m - t
        key = ((_valuations(A, p, prec).reshape(r * c, trials) << shift) + positions[:r * c]).min(axis=0)
        v, k = key >> shift, key & ((1 << shift) - 1)
        j = k % c
        vals[:, t] = v
        # swap the pivot column, divided by p^v, with column 0, then move
        # row 0 into the pivot row's slot: rows and columns 1: hold all
        # but the pivot row P, whose entry 0 is the unit.  Scatters go
        # one plane at a time, which numpy does faster than (f, ·) at once
        flat = A.reshape(f, -1)
        col = offsets[:r * c:c] + j * stride
        row = offsets[:c] + (k - j) * stride
        pivot_col = flat.take(col, axis=1) // powers.take(v)
        for plane, col0 in zip(flat, A[:, :, 0]):
            plane[col] = col0
        A[:, :, 0] = pivot_col
        P = flat.take(row, axis=1)
        for plane, row0 in zip(flat, A[:, 0]):
            plane[row] = row0
        A = _reduce(_ring_mul(P[:, None, :1], A[:, 1:, 1:], u, mod)
                    - _ring_mul(A[:, 1:, :1], P[:, None, 1:], u, mod), mod)
    return vals


CHUNK = 1024  # trials per batched draw
# matrix entries per batched draw, n·(n+1)·f a trial; with CHUNK it
# bounds the working arrays, and a batch keeps all CHUNK trials while
# n·(n+1)·f <= 1024 (n <= 31 at f = 1, n <= 17 at f = 3)
BATCH_ENTRIES = 2**20


def make_rng(seed: int):
    """Counter-based generator with an explicit 64-bit seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    import numpy as np

    return np.random.Generator(np.random.Philox(seed))


def _sampler_ring(Q, n, prec):
    """(p, f, u) of the ring sampled for Q = p^f at precision prec, after
    checking the request."""
    p, f = prime_power_split(Q)
    if n < 1:
        raise ValueError(f"matrix size n must be >= 1, got {n}")
    if prec < 1:
        raise ValueError(f"precision must be >= 1, got {prec}")
    if prec >= 62 or p**prec >= 2**62:  # p >= 2, so p^prec >= 2^62 from prec 62 on
        raise ValueError(f"p^prec = {p}^{prec} does not fit the sampler's 62-bit draws")
    if n * (n + 1) > 2**25:
        raise ValueError(f"matrix size n = {n} has more entries than the sampler's "
                         f"int32 pivot keys can place (n(n+1) <= 2^25)")
    return p, f, _irreducible_poly(p, f)


def _tally(rng, n, prec, trials, ring, freq):
    """Draw `trials` uniform n x (n+1) matrices, one entry after another
    in the order of per-trial draws, and count their cokernel types
    into `freq` in order of first occurrence."""
    import numpy as np

    p, f, u = ring
    A = rng.integers(0, p**prec, size=(trials, n, n + 1, f))
    # each row of ascending valuations (at most prec <= 61) is one byte
    # string, so that np.unique compares rows as single keys
    rows = np.sort(_coker_valuations(A, p, prec, u).astype(np.uint8), axis=1)
    _, first, counts = np.unique(rows.view(np.dtype((np.void, n))).ravel(),
                                 return_index=True, return_counts=True)
    for k in np.argsort(first):
        key = tuple(int(v) for v in rows[first[k], ::-1] if v > 0)
        out = SampleOutcome(parts=key, overflow=bool(key and key[0] >= prec))
        freq[out] = freq.get(out, 0) + int(counts[k])
    return freq


def sample(Q: int, n: int, prec: int, rng) -> SampleOutcome:
    """Partition of the cokernel of a uniform n x (n+1) matrix over the
    ring of residue field size Q truncated at 𝔪^prec."""
    (out,) = _tally(rng, n, prec, 1, _sampler_ring(Q, n, prec), {})
    return out


def sample_many(Q: int, n: int, prec: int, trials: int, seed: int):
    """Frequency table {SampleOutcome: count} over `trials` draws; the
    same draws and outcomes as `trials` calls of `sample` on one rng."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    ring = _sampler_ring(Q, n, prec)
    batch = min(CHUNK, max(1, BATCH_ENTRIES // (n * (n + 1) * ring[1])))
    rng = make_rng(seed)
    freq = {}
    for start in range(0, trials, batch):
        _tally(rng, n, prec, min(batch, trials - start), ring, freq)
    return freq
