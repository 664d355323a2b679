import itertools as it
import math
import random

import pytest

from dvrstat.abelian import closure
from dvrstat.linalg import (
    congruence_kernel,
    hensel_lift_factor,
    lattice_quotient,
    poly_add_scaled,
    poly_divmod,
    poly_ext_gcd_modp,
    poly_mul,
    poly_trim,
)


def test_poly_ext_gcd_modp_exhaustive_small_fields():
    for p in (3, 5):
        polys = [list(c) for c in it.product(range(p), repeat=3)]  # degree <= 2
        for a, b in it.product(polys, repeat=2):
            if not poly_trim(list(a)) and not poly_trim(list(b)):
                continue
            g, s, t = poly_ext_gcd_modp(a, b, p)
            assert g and g[-1] == 1
            assert poly_add_scaled(poly_mul(s, a, p), poly_mul(t, b, p), 1, p) == g
            assert not poly_divmod(a, g, p)[1] and not poly_divmod(b, g, p)[1]


def test_poly_ext_gcd_modp_non_monic_remainder():
    # coprime over F_3; the first remainder 2 is not monic
    assert poly_ext_gcd_modp([1, 0, 1], [1, 2], 3)[0] == [1]


def test_hensel_lift_factor_odd_p():
    # z^2 + 1 = (z + 2)(z + 3) mod 5: lift the square root of -1 to Z/125
    U, V = hensel_lift_factor([1, 0, 1], [2, 1], 5, 3)
    assert poly_mul(U, V, 125) == [1, 0, 1]
    assert [x % 5 for x in U] == [2, 1] and U[-1] == V[-1] == 1
    assert (U[0] ** 2 + 1) % 125 == 0


def test_lattice_quotient_rejects_infinite_quotient():
    assert lattice_quotient(2, [[2, 0], [0, 3]])[0] == [6]
    # one column spans a rank-one lattice in Z^2: the quotient is infinite
    with pytest.raises(ValueError, match="lattice not of full rank"):
        lattice_quotient(2, [[1, 0]])


# (mods, n): m = len(mods) <= 3 rows mod 1, 2, 4, 8, 3 or 9, mixed rows
# among them, and n <= 3 unknowns
CONGRUENCE_SHAPES = [((), 2), ((1,), 2), ((8,), 3), ((9,), 2), ((2, 4), 3), ((3, 9), 2), ((8, 9), 2),
                     ((4, 3), 3), ((2, 3, 1), 3), ((8, 4, 2), 3), ((9, 3, 8), 1), ((9, 9, 9), 2)]


def test_congruence_kernel_matches_brute_force():
    rng = random.Random(0)
    for mods, n in CONGRUENCE_SHAPES:
        M = math.lcm(*mods)
        for _ in range(4):
            A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in mods]

            def image(w):
                return tuple(sum(a * x for a, x in zip(row, w)) % md for row, md in zip(A, mods))

            zero = image([0] * n)
            preimages = {}
            for w in it.product(range(M), repeat=n):
                preimages.setdefault(image(w), set()).add(w)
            basis, solve = congruence_kernel(A, mods, n)
            assert all(image(col) == zero for col in basis)
            span = closure([(0,) * n], lambda w: [tuple((x + c) % M for x, c in zip(w, col)) for col in basis])
            assert span == preimages[zero]
            for b in it.product(*(range(md) for md in mods)):
                w = solve(b)
                assert (w is None) == (b not in preimages)
                assert w is None or image(w) == b
