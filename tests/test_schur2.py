import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from dvrstat import schur2
from dvrstat.schur2 import NilClass2Cover


def test_cover_sizes():
    cov = NilClass2Cover((2, 2))
    assert cov.size == 32
    assert cov.kernel_size == 2
    assert NilClass2Cover((3, 2)).kernel_size == 2
    assert NilClass2Cover((2, 1)).kernel_size == 1
    assert NilClass2Cover((1,)).kernel_size == 1


def test_cover_is_a_group():
    cov = NilClass2Cover((2, 1))
    els = list(cov.elements())
    e = cov.identity()
    for x in els:
        assert cov.mul(e, x) == x == cov.mul(x, e)
    for x in els:
        for y in els:
            for z in els:
                assert cov.mul(cov.mul(x, y), z) == cov.mul(x, cov.mul(y, z))


def test_generator_orders_and_kernel_centrality():
    cov = NilClass2Cover((2, 2))
    for i, o in enumerate(cov.orders):
        g = (tuple(1 if j == i else 0 for j in range(cov.r)), cov.kernel_zero())
        assert cov.element_order(g) == o
    for c in cov.kernel_elements():
        kc = ((0,) * cov.r, c)
        for x in cov.elements():
            assert cov.mul(kc, x) == cov.mul(x, kc)


def test_sigma_is_an_automorphism():
    cov = NilClass2Cover((2, 2))
    els = list(cov.elements())
    for x in els:
        for y in els[::5]:
            assert cov.sigma(cov.mul(x, y)) == cov.mul(cov.sigma(x), cov.sigma(y))
        assert cov.sigma(cov.sigma(x)) == x


def test_square_of_lift():
    cov = NilClass2Cover((2, 2))
    assert cov.square_of_lift((0, 0)) == (0,)
    assert cov.square_of_lift((1, 1)) == (1,)
    assert cov.square_of_lift((1, 0)) == (0,)
    cov3 = NilClass2Cover((3, 3))
    assert cov3.square_of_lift((1, 1)) == (1,)
    assert cov3.square_of_lift((3, 1)) == (3,)


def test_t_exponent():
    cov = NilClass2Cover((3, 3))  # kernel Z/4
    assert schur2.t_exponent(cov, 3) == 3  # (q-1)/2 * q^{-1} = 1 * 3 mod 4
    assert schur2.t_exponent(cov, 5) == 2
    with pytest.raises(ValueError):
        schur2.t_exponent(cov, 4)


def test_nr_pow():
    cov = NilClass2Cover((2, 2))  # kernel Z/2
    assert schur2.nr_pow(cov, 3, (0,)) == 2
    assert schur2.nr_pow(cov, 3, (1,)) == 0
    cov3 = NilClass2Cover((3, 3))  # kernel Z/4
    assert schur2.nr_pow(cov3, 5, (0,)) == 4
    assert schur2.nr_pow(cov3, 5, (2,)) == 0
    assert schur2.nr_pow(cov3, 3, (2,)) == 2


def test_lattice_kernel_counts():
    cov = NilClass2Cover((1,))
    # reps {0, 1}; need m_0 + m_1 = n, m_1 even, n even
    assert schur2.lattice_kernel_count(cov, 4) == 3
    assert schur2.lattice_kernel_count(cov, 3) == 0
    assert len(schur2.lattice_kernel_vectors(cov, 4)) == 3
    cov22 = NilClass2Cover((2, 2))
    vecs = schur2.lattice_kernel_vectors(cov22, 4)
    assert len(vecs) == schur2.lattice_kernel_count(cov22, 4) == 11
    for v in vecs:
        assert sum(v) == 4


def test_b_exact_reference_values():
    assert schur2.b_exact((1,), 3, 4) == 3
    assert schur2.b_exact((1,), 3, 3) == 0
    # trivial-kernel covers agree with the closed form everywhere
    for ds in [(1,), (2,), (1, 1), (2, 1)]:
        for q, v in [(3, 1), (5, 2), (9, 3)]:
            for n in (2, 4, 6):
                assert schur2.b_exact(ds, q, n) == schur2.b_closed(ds, v, n)


def test_closed_form_departs_at_v1_with_nontrivial_kernel():
    # the closed form counts the n -> infinity limit; at finite n and
    # v = 1 the lifting map is not yet equidistributed on the kernel
    assert schur2.b_exact((2, 2), 3, 4) == 20
    assert schur2.b_closed((2, 2), 1, 4) == 11
    # at v >= 2 the map is identically zero on the kernel, so exact
    assert schur2.b_exact((2, 2), 5, 4) == schur2.b_closed((2, 2), 2, 4) == 22


SWEEP_COVERS = [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4), (3, 1),
                (2, 2, 2), (4, 2, 2), (4, 4, 2), (3, 2, 1)]


def test_dynamic_program_matches_vector_sweep():
    # every q from v = 1 to v = 4, so the v = 1 deviations (2,2) and (3,2)
    # at q = 3 are among the cases
    for ds in SWEEP_COVERS:
        cover = NilClass2Cover(ds)
        for n in range(11 if len(ds) < 3 else 9):
            vecs = schur2.lattice_kernel_vectors(cover, n)
            for q in (3, 5, 7, 9, 11, 13, 17):
                ws = [schur2.w_map(cover, q, m_vec) for m_vec in vecs]
                assert schur2.w_image_multiset(ds, q, n) == dict(Counter(ws))
                assert schur2.b_exact(ds, q, n) == sum(schur2.nr_pow(cover, q, w) for w in ws)
    for ds in ((2, 2), (3, 2)):
        assert schur2.b_exact(ds, 3, 6) != schur2.b_closed(ds, 1, 6)


def test_kernel_count_formula_matches_sweep_and_fibers():
    # the character sum, the reference sweep and the W-fiber dynamic
    # program count the same vectors; the nontrivial characters' term is
    # what makes the residue condition hold
    for ds in SWEEP_COVERS:
        cover = NilClass2Cover(ds)
        for n in range(11 if len(ds) < 3 else 9):
            count = schur2.lattice_kernel_count(cover, n)
            assert count == len(schur2.lattice_kernel_vectors(cover, n))
            for q in (3, 5):
                assert count == sum(schur2.w_image_multiset(ds, q, n).values())
    for ds in [ds for ds in SWEEP_COVERS if len(ds) <= 2]:
        cover = NilClass2Cover(ds)
        for n in range(25):
            assert schur2.lattice_kernel_count(cover, n) == sum(schur2.w_image_multiset(ds, 3, n).values())


def test_w_map_rejects_wrong_length():
    cover = NilClass2Cover((2, 2))
    assert schur2.w_map(cover, 3, (1, 1, 1, 1)) == (1,)
    with pytest.raises(ValueError, match="expected 4"):
        schur2.w_map(cover, 3, (1, 1, 1))


def test_w_image_law():
    # even n at least 2^r: image of the lifting map is 2^{v-1} ker
    for v, q in [(1, 3), (2, 5), (3, 9)]:
        img = set(schur2.w_image_multiset((2, 2), q, 6))
        assert img == schur2.scaled_kernel((2, 2), v)
    for v, q in [(1, 3), (2, 5)]:
        img = set(schur2.w_image_multiset((3, 3), q, 6))
        assert img == schur2.scaled_kernel((3, 3), v)


def test_w_fibers_depend_only_on_valuation():
    f1 = schur2.w_image_multiset((2, 2), 3, 8)
    f2 = schur2.w_image_multiset((2, 2), 11, 8)
    assert f1 == f2


def test_w_fiber_sizes_are_binomials():
    # ds = (2,2), v = 1: fibers of 0 and 1 are C(s+3,3) and C(s+1,3), n = 2s
    import math

    for n in (4, 8, 12, 24):
        s = n // 2
        fib = schur2.w_image_multiset((2, 2), 3, n)
        assert fib[(0,)] == math.comb(s + 3, 3)
        assert fib[(1,)] == math.comb(s + 1, 3)


def test_odd_n_vanishing():
    for ds in [(1,), (2, 2), (3, 2)]:
        for n in (1, 3, 5, 7):
            assert schur2.b_exact(ds, 3, n) == 0
            assert schur2.b_closed(ds, 1, n) == 0


def test_negative_n_raises():
    for n in (-1, -2):
        for fn, arg in ((schur2.b_exact, 3), (schur2.b_closed, 1), (schur2.w_image_multiset, 3)):
            with pytest.raises(ValueError, match="must be >= 0"):
                fn((2, 2), arg, n)
    assert schur2.b_exact((1,), 3, 0) == schur2.b_closed((1,), 1, 0) == 1


def test_moment_ratio():
    assert schur2.moment_ratio((2, 2), 1) == Fraction(1, 4)
    assert schur2.moment_ratio((2, 2), 2) == Fraction(1, 2)
    assert schur2.moment_ratio((2, 2), 3) == Fraction(1, 2)
    assert schur2.moment_ratio((1,), 1) == Fraction(1, 1)
    assert schur2.moment_ratio((2,), 1) == Fraction(1, 2)
    assert schur2.moment_ratio((3,), 2) == Fraction(1, 4)
    assert schur2.moment_ratio((3, 2), 2) == Fraction(1, 4)


def test_huge_v_is_capped_by_the_pair_moduli():
    # past v − 1 = log2 of every pair modulus, 2^{v−1} kills all of ∧²2H,
    # so a huge v gives the v = 3 answer without building 2^{v−1}
    for fn, args in ((schur2.moment_ratio, ()), (schur2.b_closed, (4,))):
        want = fn((3, 3), 3, *args)
        tracemalloc.start()
        try:
            assert fn((3, 3), 10**8, *args) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_cover_requires_sorted_exponents():
    with pytest.raises(ValueError, match="sorted descending"):
        NilClass2Cover((1, 2))
    with pytest.raises(ValueError, match="must be positive"):
        NilClass2Cover((0,))
