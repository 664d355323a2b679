import itertools as it

import pytest

from dvrstat.linalg import (
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
