import itertools as it
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dvrstat import measure as measure_mod
from dvrstat.abelian import prime_power_split
from dvrstat.dvrmod import ModuleType
from dvrstat.measure import (
    BATCH_ENTRIES,
    CHUNK,
    SampleOutcome,
    _coker_valuations,
    _irreducible_poly,
    _kernel_dtype,
    _reduce,
    _ring_mul,
    _sampler_ring,
    _tally,
    _valuations,
    make_rng,
    measure,
    moment_truncated,
    sample,
    sample_many,
    z_bracket,
)


def slow_coker_valuations(A, p, prec, u):
    """Per-matrix Smith elimination over (Z/p^prec)[z]/u with inverses."""
    mod, f, one = p**prec, len(u) - 1, (1,) + (0,) * (len(u) - 2)
    def mul(a, b):
        c = [0] * (2 * f - 1)
        for (i, x), (j, y) in it.product(enumerate(a), enumerate(b)):
            c[i + j] += x * y
        for k, i in it.product(range(2 * f - 2, f - 1, -1), range(f)):
            c[k - f + i] -= c[k] * u[i]
        return tuple(x % mod for x in c[:f])
    def val(a):
        return min(next(v for v in range(prec) if x % p ** (v + 1)) if x % mod else prec for x in a)
    def inverse(a):
        # a^(#units - 1), the unit group having order (p^f - 1)·p^(f(prec-1))
        e, b, r = (p**f - 1) * p ** (f * (prec - 1)) - 1, a, one
        while e:
            r, b, e = mul(r, b) if e & 1 else r, mul(b, b), e >> 1
        assert mul(a, r) == one
        return r
    A, n, m, vals = [list(row) for row in A], len(A), len(A[0]), []
    for t in range(n):
        v, bi, bj = min((val(A[i][j]), i, j) for i in range(t, n) for j in range(t, m))
        if v == prec:
            return vals + [prec] * (n - t)
        A[t], A[bi] = A[bi], A[t]
        for row in A:
            row[t], row[bj] = row[bj], row[t]
        inv = inverse(tuple(x // p**v for x in A[t][t]))
        for i in range(t + 1, n):
            c = mul(tuple(x // p**v for x in A[i][t]), inv)
            A[i] = [tuple((x - y) % mod for x, y in zip(a, mul(c, b))) for a, b in zip(A[i], A[t])]
        for j in range(t + 1, m):
            c = mul(tuple(x // p**v for x in A[t][j]), inv)
            for i in range(t, n):
                A[i][j] = tuple((x - y) % mod for x, y in zip(A[i][j], mul(c, A[i][t])))
        vals.append(v)
    return vals


def int_coker(rows, p, prec):
    """Sorted diagonal valuations of one matrix over Z/p^prec."""
    A = np.array(rows)[None, :, :, None]
    return sorted(_coker_valuations(A, p, prec, (0, 1))[0].tolist())


def test_z_bracket_validates_prime_power():
    z_bracket(4)
    z_bracket(9)
    with pytest.raises(ValueError, match="is not a prime power"):
        z_bracket(6)


def test_z_bracket_ordered_and_tight():
    for Q in (2, 3, 4, 5):
        lo, hi = z_bracket(Q)
        assert 0 < lo <= hi < 1
        assert float(hi - lo) < 1e-15
    # numeric sanity for Q=2: prod_{i>=2} (1 - 2^{-i}) ~ 0.5776
    lo, _ = z_bracket(2)
    assert abs(float(lo) - 0.577576) < 1e-5


def test_measure_ratios():
    lo0, hi0 = measure(ModuleType(2, ()))
    lo1, hi1 = measure(ModuleType(2, (1,)))
    assert lo1 / lo0 == hi1 / hi0 == Fraction(1, 2)
    lo2, _ = measure(ModuleType(2, (1, 1)))
    # aut((1,1)) = 6, size 4
    assert lo2 == lo0 / 24


def test_moment_bracket_contains_reciprocal_size():
    for Q in (2, 3):
        for lam in [(), (1,), (2,), (1, 1)]:
            V = ModuleType(Q, lam)
            br = moment_truncated(V, 12)
            assert br.lower <= Fraction(1, V.size) <= br.upper
            assert br.width < Fraction(1, 100)


@pytest.mark.parametrize("Q", [2, 3, 4, 5])
def test_moment_bracket_contains_reciprocal_size_from_b_equal_v(Q):
    # from B = v = Σ V.parts, where only the last increment is positive
    # and the tail's ratio is 1/Q alone, up to B = v + 7
    for lam in [(), (1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1, 1)]:
        V = ModuleType(Q, lam)
        v = sum(lam)
        for B in range(v, v + 8):
            br = moment_truncated(V, B)
            assert br.lower <= Fraction(1, V.size) <= br.upper, (lam, B)


def test_moment_brackets_nested():
    V = ModuleType(2, (1,))
    prev = None
    for B in (4, 6, 8, 10):
        br = moment_truncated(V, B)
        if prev is not None:
            assert prev.lower <= br.lower
            assert br.upper <= prev.upper + prev.tail_estimate
        prev = br


def test_total_mass_monotone_bounded():
    for Q in (2, 3):
        prev = Fraction(0)
        for B in (0, 2, 4, 6, 8):
            mass = moment_truncated(ModuleType(Q, ()), B).lower
            assert prev <= mass <= 1
            prev = mass


def test_moment_truncation_too_small():
    with pytest.raises(ValueError):
        moment_truncated(ModuleType(2, (2, 1)), 2)


def test_coker_valuations_exhaustive_1x2():
    # over Z/8: fraction of (a, b) with a unit entry is 3/4
    unimodular = sum(
        1
        for a in range(8)
        for b in range(8)
        if int_coker([[a, b]], 2, 3) == [0]
    )
    assert Fraction(unimodular, 64) == Fraction(3, 4)
    # full valuation distribution: P(min val = v) = (1/2)^{2v} * 3/4 for v < 3
    for v in (0, 1, 2):
        cnt = sum(
            1
            for a in range(8)
            for b in range(8)
            if int_coker([[a, b]], 2, 3) == [v]
        )
        assert Fraction(cnt, 64) == Fraction(3, 4) * Fraction(1, 4) ** v
    assert int_coker([[0, 0]], 2, 3) == [3]


def test_coker_valuations_2x2():
    assert int_coker([[2, 0], [0, 4]], 2, 4) == [1, 2]
    assert int_coker([[0, 1], [2, 0]], 2, 4) == [0, 1]
    # row operations do not change the cokernel type
    assert int_coker([[2, 4], [2, 8]], 2, 4) == [1, 2]


def test_galois_ring_arithmetic():
    u = _irreducible_poly(2, 2)  # (Z/8)[z]/u, residue field F4
    ring = list(it.product(range(8), repeat=2))

    def mul(a, b):
        return tuple(int(x) for x in _ring_mul(np.array(a), np.array(b), u, 8) % 8)

    one = (1, 0)
    for a in [(1, 0), (3, 1), (5, 7), (1, 1)]:
        inverses = [b for b in ring if mul(a, b) == one]
        assert len(inverses) == 1
        assert mul(inverses[0], a) == one
    # coefficient axis first: the entries (0, 0) and (4, 2)
    assert _valuations(np.array([(0, 0), (4, 2)]).T, 2, 3).tolist() == [3, 1]
    assert mul((2, 0), (2, 1)) == (4, 2)  # (4, 2) = 2^1 · (2, 1)


def test_irreducible_poly_is_first_irreducible():
    z = sympy.symbols("z")
    for p, f in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        first = next(list(t) + [1] for t in it.product(range(p), repeat=f)
                     if sympy.Poly((list(t) + [1])[::-1], z, modulus=p).is_irreducible)
        assert list(_irreducible_poly(p, f)) == first


@st.composite
def ring_matrices(draw):
    """A few n x (n+1) matrices over the ring of a small Q, entries
    biased towards high valuation."""
    Q = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    p, f = prime_power_split(Q)
    prec = draw(st.integers(1, 4 if f == 1 else 3))
    n = draw(st.integers(1, 3))
    coeff = st.builds(lambda e, x: p**e * x % p**prec, st.integers(0, prec), st.integers(0, p**prec - 1))
    entry = st.tuples(*[coeff] * f)
    trials = draw(st.integers(1, 4))
    A = [[[draw(entry) for _ in range(n + 1)] for _ in range(n)] for _ in range(trials)]
    return p, f, prec, A


@settings(max_examples=150, deadline=None)
@given(ring_matrices())
def test_kernel_matches_slow_reference(case):
    p, f, prec, A = case
    u = _irreducible_poly(p, f)
    vals = _coker_valuations(np.array(A), p, prec, u)
    for k, matrix in enumerate(A):
        assert sorted(vals[k].tolist()) == sorted(slow_coker_valuations(matrix, p, prec, u))


def biased_matrices(p, f, prec, shape, rng):
    """Uniform coefficients times p^e mod p^prec, e = 0 for about half of
    them and up to prec for the rest, so that entries of high valuation,
    zeros and ties are common."""
    mod = p**prec
    A = rng.integers(0, mod, size=shape + (f,)).astype(object)
    A = A * p ** rng.integers(-prec, prec + 1, size=shape + (f,)).clip(0).astype(object) % mod
    return A.astype(np.int64) if mod < 2**62 else A


@pytest.mark.parametrize("n", [6, 8, 10, 12])
@pytest.mark.parametrize("Q", [2, 3, 5, 4, 8])
@pytest.mark.parametrize("prec", [1, 3, 5])
def test_kernel_matches_slow_reference_at_benchmark_sizes(n, Q, prec):
    p, f = prime_power_split(Q)
    u = _irreducible_poly(p, f)
    A = biased_matrices(p, f, prec, (3, n, n + 1), make_rng(100 * n + 10 * Q + prec))
    vals = _coker_valuations(A, p, prec, u)
    for k, matrix in enumerate(A.tolist()):
        assert sorted(vals[k].tolist()) == sorted(slow_coker_valuations(matrix, p, prec, u))


def frozen_coker_valuations(A, p, prec, u):
    """The batched kernel with its earlier pivot search: int64 keys
    V·(r·c) + position, split by divmod, and fancy-index swaps."""
    mod = p**prec
    trials, n, m, f = A.shape
    A = np.ascontiguousarray(A.transpose(3, 1, 2, 0), dtype=_kernel_dtype(mod, f))
    powers = np.array([p**j for j in range(prec + 1)], dtype=A.dtype)
    tr = np.arange(trials)
    vals = np.empty((trials, n), dtype=np.int64)
    for t in range(n):
        r, c = n - t, m - t
        V = _valuations(A, p, prec).astype(np.int64).reshape(r * c, trials)
        v, k = np.divmod((V * (r * c) + np.arange(r * c)[:, None]).min(axis=0), r * c)
        i, j = np.divmod(k, c)
        vals[:, t] = v
        pv = powers[v]
        flat = A.reshape(f, -1)
        row = i * c * trials + tr + np.arange(0, c * trials, trials)[:, None]
        P = flat.take(row, axis=1)
        flat[:, row] = A[:, 0]
        col = j * trials + tr + np.arange(c * trials, r * c * trials, c * trials)[:, None]
        w = flat.take(col, axis=1) // pv
        flat[:, col] = A[:, 1:, 0]
        unit = P[:, j, tr] // pv
        P[:, j, tr] = P[:, 0]
        A = _reduce(_ring_mul(unit[:, None, None], A[:, 1:, 1:], u, mod)
                    - _ring_mul(w[:, :, None], P[:, None, 1:], u, mod), mod)
    return vals


@pytest.mark.parametrize("Q, n, prec, trials", [
    (2, 12, 5, 300), (3, 8, 4, 300), (5, 10, 3, 200), (2, 6, 17, 100),
    (4, 6, 3, 100), (8, 4, 4, 100), (9, 3, 3, 50), (3, 4, 20, 40),
])
def test_kernel_equals_frozen_pivot_rule(Q, n, prec, trials):
    # the same pivots give the same arrays, entry for entry and unsorted
    p, f = prime_power_split(Q)
    u = _irreducible_poly(p, f)
    A = biased_matrices(p, f, prec, (trials, n, n + 1), make_rng(Q * n + prec))
    assert (_coker_valuations(A, p, prec, u) == frozen_coker_valuations(A, p, prec, u)).all()


def test_pivot_keys_hold_positions_past_2_16():
    # a 256 x 257 permuted diagonal has n(n+1) = 65,792 > 2^16 entries;
    # its least valuation sits alone in the last row, at a position past
    # 2^16, and the kernel returns the valuations in ascending order
    n, p, prec = 256, 2, 6
    gen = np.random.default_rng(8)
    v = 1 + np.arange(n) % (prec - 1)
    v[-1] = 0
    rows = np.concatenate([gen.permutation(n - 1), [n - 1]])
    cols = np.concatenate([gen.permutation(np.delete(np.arange(n + 1), 200))[:n - 1], [200]])
    A = np.zeros((1, n, n + 1, 1), dtype=np.int64)
    A[0, rows, cols, 0] = p**v * (2 * gen.integers(0, 2 ** (prec - 1), size=n) + 1) % p**prec
    assert (n - 1) * (n + 1) + 200 >= 2**16
    assert _coker_valuations(A, p, prec, (0, 1))[0].tolist() == sorted(v.tolist())


def test_kernel_object_dtype_matches_int64():
    # p^prec = 3^20 takes the object path; the same matrices scaled down
    # to 3^5 run in int32 and must give the valuations capped at 5
    rng = make_rng(3)
    A = rng.integers(0, 3**5, size=(50, 3, 4, 1)) * 3 ** rng.integers(0, 3, size=(50, 3, 4, 1))
    small = _coker_valuations(A % 3**5, 3, 5, (0, 1))
    big = _coker_valuations(A, 3, 20, (0, 1))
    assert (np.minimum(big, 5) == small).all()


@pytest.mark.parametrize("p, f, prec, below, above", [
    (5, 1, 6, np.int32, np.int64),
    (5, 1, 13, np.int64, object),
    (3, 2, 9, np.int32, np.int64),
    (3, 2, 19, np.int64, object),
    (3, 3, 9, np.int32, np.int64),
    (3, 3, 19, np.int64, object),
])
def test_kernel_dtype_switch_keeps_valuations(p, f, prec, below, above):
    # p^prec is the largest modulus on its rung of the dtype ladder and
    # p^(prec+1) the smallest on the next; both run the same matrices,
    # whose entries sit at or just under mod - 1 (the largest products)
    # or carry a valuation near prec.  The last row is the sum of the
    # first two, so an overflow that breaks its cancellation shows as a
    # wrong valuation.  p is odd: for p = 2 a wrapped fixed-width product
    # keeps its residue mod 2^prec, so an overflow would not show
    assert _kernel_dtype(p**prec, f) is below and _kernel_dtype(p ** (prec + 1), f) is above
    mod, u, rng = p ** (prec + 1), _irreducible_poly(p, f), make_rng(prec + f)
    shape = (60, 3, 4, f)
    high = (p ** rng.integers(prec - 2, prec + 2, size=shape).astype(object)
            * rng.integers(1, p**3, size=shape).astype(object)) % mod
    near_top = mod - 1 - rng.integers(0, 3, size=shape).astype(object)
    A = np.where(rng.integers(0, 3, size=shape) == 0, high, near_top)
    A[:, 2] = (A[:, 0] + A[:, 1]) % mod
    small = _coker_valuations(A % p**prec, p, prec, u)
    big = _coker_valuations(A, p, prec + 1, u)
    assert (np.minimum(np.sort(big, axis=1), prec) == np.sort(small, axis=1)).all()


@pytest.mark.parametrize("source", ["kernel", "pool"])
def test_tally_counts_sorted_rows_by_first_occurrence(monkeypatch, source):
    # n = 30 at prec 5: (prec + 1)^n > 2^62, so a row does not fit one
    # integer code.  "pool" replaces the kernel by rows drawn from a small
    # pool, several of them equal up to order or differing in one entry
    n, prec, trials = 30, 5, 300
    gen, seen = np.random.default_rng(4), []
    pool = gen.integers(0, prec + 1, size=(12, n))
    pool[1], pool[2] = pool[0][::-1], pool[0]
    pool[2, 7] = (pool[0, 7] + 1) % (prec + 1)
    kernel = measure_mod._coker_valuations

    def recorded(A, p, prec, u):
        vals = kernel(A, p, prec, u) if source == "kernel" else pool[gen.integers(0, len(pool), size=len(A))]
        seen.append(vals)
        return vals

    monkeypatch.setattr(measure_mod, "_coker_valuations", recorded)
    ring, freq = _sampler_ring(2, n, prec), {}
    for seed in (1, 2):
        _tally(make_rng(seed), n, prec, trials, ring, freq)
    want = {}
    for row in np.concatenate(seen).tolist():
        key = tuple(v for v in sorted(row, reverse=True) if v > 0)
        out = SampleOutcome(parts=key, overflow=bool(key and key[0] >= prec))
        want[out] = want.get(out, 0) + 1
    assert list(freq.items()) == list(want.items())
    assert len(want) > (1 if source == "kernel" else 8)


def test_sampler_reproducibility():
    a = [sample(2, 3, 4, make_rng(11)).parts for _ in range(1)]
    b = [sample(2, 3, 4, make_rng(11)).parts for _ in range(1)]
    assert a == b
    f1 = sample_many(2, 3, 4, 500, seed=9)
    f2 = sample_many(2, 3, 4, 500, seed=9)
    assert f1 == f2


def test_sampler_outcome_labels():
    outs = [sample(2, 2, 3, make_rng(s)) for s in range(50)]
    for o in outs:
        assert all(1 <= v <= 3 for v in o.parts)
        if o.parts and o.parts[0] == 3:
            assert o.overflow and o.label().startswith("3+")


def test_sampler_statistics_small():
    # P(trivial cokernel) for a 1x2 matrix over Z/8 is exactly 3/4
    freq = sample_many(2, 1, 3, 4000, seed=5)
    trivial = sum(c for o, c in freq.items() if o.parts == ())
    p = 3 / 4
    sigma = math.sqrt(p * (1 - p) / 4000)
    assert abs(trivial / 4000 - p) < 3 * sigma


def test_sampler_prime_power_field():
    freq = sample_many(4, 2, 3, 300, seed=3)
    assert sum(freq.values()) == 300
    # trivial cokernel should dominate strongly at Q = 4
    trivial = sum(c for o, c in freq.items() if o.parts == ())
    assert trivial > 200


def test_batched_draws_match_per_trial_draws():
    for mod, shape in [(2**3, (3, 4)), (3**5, (2, 3, 2)), (5**6, (4, 5)), (3**20, (2, 3)), (2**40, (2, 3, 3))]:
        a, b = make_rng(5), make_rng(5)
        per_trial = np.stack([a.integers(0, mod, size=shape) for _ in range(7)])
        assert (b.integers(0, mod, size=(7,) + shape) == per_trial).all()
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)


def test_sample_many_equals_repeated_sample(monkeypatch):
    # crosses a chunk boundary on the integer path; runs the ring path;
    # then batches cut by entries, of 10 and of 5 trials
    for Q, n, prec, trials, entries in [(2, 2, 3, CHUNK + 30, BATCH_ENTRIES), (4, 2, 3, 150, BATCH_ENTRIES),
                                        (2, 2, 3, 35, 60), (4, 2, 3, 35, 60)]:
        monkeypatch.setattr(measure_mod, "BATCH_ENTRIES", entries)
        rng, freq = make_rng(9), {}
        for _ in range(trials):
            out = sample(Q, n, prec, rng)
            freq[out] = freq.get(out, 0) + 1
        batched = sample_many(Q, n, prec, trials, seed=9)
        assert list(batched.items()) == list(freq.items())


def test_batches_are_bounded_by_entries(monkeypatch):
    # n = 300 has 300·301 entries a trial, so 11 trials fill a batch; the
    # sizes are recorded without drawing or eliminating any matrix
    sizes = []
    monkeypatch.setattr(measure_mod, "_tally", lambda rng, n, prec, trials, ring, freq: sizes.append(trials))
    sample_many(2, 300, 3, 25, seed=1)
    assert sizes == [11, 11, 3] and 11 * 300 * 301 <= BATCH_ENTRIES < 12 * 300 * 301
    # the largest benchmark matrices, n = 12 over Q = 8 (f = 3), keep whole CHUNKs
    sizes.clear()
    sample_many(8, 12, 3, CHUNK + 1, seed=1)
    assert sizes == [CHUNK, 1]


def test_sampler_rejects_bad_arguments():
    for n, prec, trials in [(0, 3, 10), (2, 0, 10), (2, 3, -1), (2, 62, 10), (5793, 3, 1)]:
        with pytest.raises(ValueError):
            sample_many(2, n, prec, trials, seed=1)
    assert _sampler_ring(2, 5792, 3) == (2, 1, (0, 1))  # 5792·5793 <= 2^25: pivot keys fit int32
    with pytest.raises(ValueError):
        sample(2, 0, 3, make_rng(1))
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        sample_many(2, 2, 3, 10, seed=-1)
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        make_rng(-1)
    assert sample_many(2, 2, 3, 0, seed=1) == {}
