import itertools as it
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dvrstat.dvrmod import ModuleType
from dvrstat.measure import (
    CHUNK,
    MeasureContext,
    _coker_valuations,
    _irreducible_poly,
    _prime_power_split,
    _ring_mul,
    _valuations,
    make_rng,
    measure,
    moment_truncated,
    sample,
    sample_many,
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
    A, n, m, vals = [list(row) for row in A], len(A), len(A[0]), []
    for t in range(n):
        v, bi, bj = min((val(A[i][j]), i, j) for i in range(t, n) for j in range(t, m))
        if v == prec:
            return vals + [prec] * (n - t)
        A[t], A[bi] = A[bi], A[t]
        for row in A:
            row[t], row[bj] = row[bj], row[t]
        inv = next(b for b in it.product(range(mod), repeat=f) if mul(tuple(x // p**v for x in A[t][t]), b) == one)
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


def test_context_validates_prime_power():
    MeasureContext(4)
    MeasureContext(9)
    with pytest.raises(ValueError):
        MeasureContext(6)


def test_z_bracket_ordered_and_tight():
    for Q in (2, 3, 4, 5):
        lo, hi = MeasureContext(Q).z_bracket()
        assert 0 < lo <= hi < 1
        assert float(hi - lo) < 1e-15
    # numeric sanity for Q=2: prod_{i>=2} (1 - 2^{-i}) ~ 0.5776
    lo, _ = MeasureContext(2).z_bracket()
    assert abs(float(lo) - 0.577576) < 1e-5


def test_measure_ratios():
    ctx = MeasureContext(2)
    lo0, hi0 = measure(ctx, ModuleType(2, ()))
    lo1, hi1 = measure(ctx, ModuleType(2, (1,)))
    assert lo1 / lo0 == hi1 / hi0 == Fraction(1, 2)
    lo2, _ = measure(ctx, ModuleType(2, (1, 1)))
    # aut((1,1)) = 6, size 4
    assert lo2 == lo0 / 24


def test_measure_requires_matching_Q():
    with pytest.raises(ValueError):
        measure(MeasureContext(2), ModuleType(3, (1,)))


def test_moment_bracket_contains_reciprocal_size():
    for Q in (2, 3):
        ctx = MeasureContext(Q)
        for lam in [(), (1,), (2,), (1, 1)]:
            V = ModuleType(Q, lam)
            br = moment_truncated(ctx, V, 12)
            assert br.lower <= Fraction(1, V.size) <= br.upper
            assert br.width < Fraction(1, 100)


def test_moment_brackets_nested():
    ctx = MeasureContext(2)
    V = ModuleType(2, (1,))
    prev = None
    for B in (4, 6, 8, 10):
        br = moment_truncated(ctx, V, B)
        if prev is not None:
            assert prev.lower <= br.lower
            assert br.upper <= prev.upper + prev.tail_estimate
        prev = br


def test_total_mass_monotone_bounded():
    for Q in (2, 3):
        ctx = MeasureContext(Q)
        prev = Fraction(0)
        for B in (0, 2, 4, 6, 8):
            mass = moment_truncated(ctx, ModuleType(Q, ()), B).lower
            assert prev <= mass <= 1
            prev = mass


def test_moment_truncation_too_small():
    with pytest.raises(ValueError):
        moment_truncated(MeasureContext(2), ModuleType(2, (2, 1)), 2)


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
    p, f = _prime_power_split(Q)
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


def test_kernel_object_dtype_matches_int64():
    # p^prec = 3^20 takes the object path; the same matrices scaled down
    # to 3^5 run in int64 and must give the valuations capped at 5
    rng = make_rng(3)
    A = rng.integers(0, 3**5, size=(50, 3, 4, 1)) * 3 ** rng.integers(0, 3, size=(50, 3, 4, 1))
    small = _coker_valuations(A % 3**5, 3, 5, (0, 1))
    big = _coker_valuations(A, 3, 20, (0, 1))
    assert (np.minimum(big, 5) == small).all()


def test_sampler_reproducibility():
    ctx = MeasureContext(2)
    a = [sample(ctx, 3, 4, make_rng(11)).parts for _ in range(1)]
    b = [sample(ctx, 3, 4, make_rng(11)).parts for _ in range(1)]
    assert a == b
    f1 = sample_many(ctx, 3, 4, 500, seed=9)
    f2 = sample_many(ctx, 3, 4, 500, seed=9)
    assert f1 == f2


def test_sampler_outcome_labels():
    ctx = MeasureContext(2)
    outs = [sample(ctx, 2, 3, make_rng(s)) for s in range(50)]
    for o in outs:
        assert all(1 <= v <= 3 for v in o.parts)
        if o.parts and o.parts[0] == 3:
            assert o.overflow and o.label().startswith("3+")


def test_sampler_statistics_small():
    # P(trivial cokernel) for a 1x2 matrix over Z/8 is exactly 3/4
    ctx = MeasureContext(2)
    freq = sample_many(ctx, 1, 3, 4000, seed=5)
    trivial = sum(c for o, c in freq.items() if o.parts == ())
    p = 3 / 4
    sigma = math.sqrt(p * (1 - p) / 4000)
    assert abs(trivial / 4000 - p) < 3 * sigma


def test_sampler_prime_power_field():
    ctx = MeasureContext(4)
    freq = sample_many(ctx, 2, 3, 300, seed=3)
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


def test_sample_many_equals_repeated_sample():
    # crosses a chunk boundary on the integer path; runs the ring path
    for Q, n, prec, trials in [(2, 2, 3, CHUNK + 30), (4, 2, 3, 150)]:
        ctx = MeasureContext(Q)
        rng, freq = make_rng(9), {}
        for _ in range(trials):
            out = sample(ctx, n, prec, rng)
            freq[out] = freq.get(out, 0) + 1
        batched = sample_many(ctx, n, prec, trials, seed=9)
        assert list(batched.items()) == list(freq.items())


def test_sampler_rejects_bad_arguments():
    ctx = MeasureContext(2)
    for n, prec, trials in [(0, 3, 10), (2, 0, 10), (2, 3, -1), (2, 62, 10)]:
        with pytest.raises(ValueError):
            sample_many(ctx, n, prec, trials, seed=1)
    with pytest.raises(ValueError):
        sample(ctx, 0, 3, make_rng(1))
    assert sample_many(ctx, 2, 3, 0, seed=1) == {}
