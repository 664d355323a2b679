import dataclasses
import math

import pytest

from dvrstat.abelian import FiniteAbelianGroup, euler_phi_prime_power, mult_order, small_abelian_groups, val_p
from dvrstat.idempotents import (
    IdealPower,
    NORM_ANNIHILATES,
    ONE_MINUS_GAMMA_ANNIHILATES,
    WHOLE_RING,
    PrimitiveIdempotent,
    enumerate_idempotents,
    gamma_annihilation,
    ideal_image_valuation,
    ramtype_qualifies,
    residue_module_key,
    threshold_ideal,
)


def test_dimensions_sum_to_group_order():
    for G in small_abelian_groups(30):
        for p in (2, 3, 5):
            es = enumerate_idempotents(G, p)
            assert sum(e.dimension for e in es) == G.order


def test_cached_invariants_match_fresh_computations():
    # the cached invariants are the formulas, and caching leaves the
    # dataclass fields, equality and hash alone
    assert [f.name for f in dataclasses.fields(PrimitiveIdempotent)] == ["group", "p", "orbit"]
    for G in small_abelian_groups(12):
        for p in (2, 3, 5):
            for e in enumerate_idempotents(G, p):
                n = G.char_order(e.orbit[0])
                k = val_p(n, p)
                m = n // p**k
                f = mult_order(p, m)
                assert (e.char_order, e.k, e.m_prime, e.e_ram, e.f, e.Q) == (
                    n, k, m, euler_phi_prime_power(p, k), f, p**f)
                # e now holds its cached values, a fresh copy holds none
                fresh = PrimitiveIdempotent(e.group, e.p, e.orbit)
                assert e == fresh and hash(e) == hash(fresh)


def test_z3_at_p2():
    es = enumerate_idempotents(FiniteAbelianGroup((3,)), 2)
    assert len(es) == 2
    triv, chi = es
    assert triv.is_trivial and triv.dimension == 1 and triv.Q == 2
    assert chi.f == 2 and chi.Q == 4 and chi.dimension == 2
    assert chi.uniformizer_kind == "P"


def test_z4_at_p2():
    es = enumerate_idempotents(FiniteAbelianGroup((4,)), 2)
    dims = sorted(e.dimension for e in es)
    assert dims == [1, 1, 2]
    ram = next(e for e in es if e.e_ram == 2)
    assert ram.uniformizer_kind == "ONE_MINUS_GAMMA"
    assert ram.k == 2 and ram.m_prime == 1


def test_orbit_sizes():
    for G in small_abelian_groups(24):
        for p in (2, 3):
            for e in enumerate_idempotents(G, p):
                assert len(e.orbit) == e.f * e.e_ram


def test_threshold_whole_ring_iff_p_coprime():
    for G in small_abelian_groups(30):
        for p in (2, 3, 5):
            for e in enumerate_idempotents(G, p):
                assert threshold_ideal(e).is_whole_ring == (G.order % p != 0)


def test_threshold_trivial_idempotent_is_p_exponent():
    for G in small_abelian_groups(30):
        for p in (2, 3):
            if G.order % p:
                continue
            e = next(e for e in enumerate_idempotents(G, p) if e.is_trivial)
            assert threshold_ideal(e).d == val_p(G.exponent, p)


def test_threshold_is_max_of_image_valuations():
    # the threshold read off χ is the max over every nontrivial γ
    for G in small_abelian_groups(64):
        nontrivial = [g for g in G.elements() if any(g)]
        for p in (2, 3, 5, 7):
            for e in enumerate_idempotents(G, p):
                want = max((ideal_image_valuation(e, g).d for g in nontrivial), default=0)
                assert threshold_ideal(e).d == want, (G, p, e.rep)


def test_threshold_faithful_character_of_zp():
    for p in (2, 3, 5):
        G = FiniteAbelianGroup((p,))
        e = next(e for e in enumerate_idempotents(G, p) if not e.is_trivial)
        assert threshold_ideal(e).d == 1


def test_gamma_annihilation_dichotomy():
    G = FiniteAbelianGroup((4,))
    for p in (2, 3):
        for e in enumerate_idempotents(G, p):
            for g in G.elements():
                if not any(g):
                    continue
                verdict = gamma_annihilation(e, g)
                if e.value_exponent(g) == 0:
                    assert verdict == ONE_MINUS_GAMMA_ANNIHILATES
                else:
                    assert verdict == NORM_ANNIHILATES


def test_ideal_image_valuation_cases():
    G = FiniteAbelianGroup((12,))
    p = 2
    es = enumerate_idempotents(G, p)
    e = next(e for e in es if e.char_order == 12)
    # value of order 3 (prime to p): 1 - value is a unit
    g3 = (4,)
    assert ideal_image_valuation(e, g3) == WHOLE_RING
    # value of order 12 is divisible by 3, so still a unit
    assert ideal_image_valuation(e, (1,)) == WHOLE_RING
    # value of order 4 = p^2: valuation phi(4)/phi(4) = 1
    assert ideal_image_valuation(e, (3,)).d == 1


def test_ideal_image_valuation_trivial_idempotent():
    G = FiniteAbelianGroup((4,))
    e = next(e for e in enumerate_idempotents(G, 2) if e.is_trivial)
    # val(1 - 1) is infinite, realized as e_ram * v_p(|gamma|)
    assert ideal_image_valuation(e, (1,)).d == 2
    assert ideal_image_valuation(e, (2,)).d == 1


def test_residue_keys_group_by_cyclic_quotients_of_p_part():
    for G in small_abelian_groups(24):
        for p in (2, 3):
            es = enumerate_idempotents(G, p)
            by_key = {}
            for e in es:
                by_key.setdefault(residue_module_key(e), []).append(e)
            expect = len(G.p_part(p).cyclic_quotients())
            for group in by_key.values():
                assert len(group) == expect


def test_ramtype_rejects_beyond_threshold():
    G = FiniteAbelianGroup((4,))
    for e in enumerate_idempotents(G, 2):
        d = threshold_ideal(e).d
        gens = [(1,)]
        assert not ramtype_qualifies(e, IdealPower(d + 1), gens, gens)


def test_inertia_generators_share_their_image_ideal():
    # ramtype_qualifies tests one generator of the cyclic inertia group:
    # on the verify suite's catalog, every generator g^u (u prime to |g|)
    # of a cyclic subgroup <g> has the same image-ideal valuation
    for G in small_abelian_groups(36):
        for p in (2, 3, 5):
            for e in enumerate_idempotents(G, p):
                for g in G.elements():
                    n = G.element_order(g)
                    if n == 1:
                        continue
                    vals = {ideal_image_valuation(e, G.scalar_mul(u, g))
                            for u in range(1, n) if math.gcd(u, n) == 1}
                    assert len(vals) == 1, (G, p, e.rep, g)


def test_ramtype_noncyclic_inertia_rejected():
    G = FiniteAbelianGroup((2, 2))
    e = next(e for e in enumerate_idempotents(G, 2) if e.is_trivial)
    gens = [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        ramtype_qualifies(e, IdealPower(1), gens, gens)


def test_idempotents_listed_once_per_group_and_prime(monkeypatch):
    # a second call lists no orbit and returns an equal, new list; the
    # refusals of a non-prime p and of a Γ past the cap still come first
    from dvrstat import idempotents

    G = FiniteAbelianGroup((2, 6))
    first = enumerate_idempotents(G, 3)

    def unlisted(*args):
        pytest.fail("orbits listed again")

    monkeypatch.setattr(idempotents, "frobenius_orbits", unlisted)
    again = enumerate_idempotents(G, 3)
    assert again == first and again is not first
    again.reverse()
    assert enumerate_idempotents(G, 3) == first
    with pytest.raises(ValueError, match="is not prime"):
        enumerate_idempotents(G, 4)
    with pytest.raises(ValueError, match="listed only up to order"):
        enumerate_idempotents(FiniteAbelianGroup((idempotents.CHARACTER_ENUM_CAP * 2,)), 3)
