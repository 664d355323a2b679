import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from dvrstat import oracle
from dvrstat.abelian import (
    FiniteAbelianGroup,
    _is_prime,
    abelian_groups_of_order,
    closure,
    factorize,
    frobenius_orbits,
    galois_exponents,
    int_log,
    mult_order,
    orbits,
    parse_group,
    prime_power_split,
    small_abelian_groups,
    subgroup_lattice,
    val_p,
    wedge_square_p_part,
)
from dvrstat.dvrmod import ModuleType
from dvrstat.idempotents import enumerate_idempotents

small_orders = st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=3)


def test_from_orders_canonicalizes():
    assert FiniteAbelianGroup.from_orders([6, 4]).invariant_factors == (2, 12)
    assert FiniteAbelianGroup.from_orders([2, 3]).invariant_factors == (6,)
    assert FiniteAbelianGroup.from_orders([1, 1]).invariant_factors == ()


def _invariant_factors_per_prime(orders):
    """Invariant factors from the prime-power parts of the orders: the
    i-th largest factor takes the i-th largest power of each prime."""
    per_prime = {}
    for o in orders:
        for p, v in factorize(o):
            per_prime.setdefault(p, []).append(p**v)
    facs = [math.prod(x) for x in itertools.zip_longest(
        *(sorted(v, reverse=True) for v in per_prime.values()), fillvalue=1)]
    return tuple(sorted(facs))


def test_from_orders_matches_per_prime_reference():
    for orders in itertools.chain(itertools.product(range(1, 13), repeat=3),
                                  [[72, 108, 30, 5, 49], [2**20, 3**7, 6, 6, 6, 10], [97, 97 * 4]]):
        G = FiniteAbelianGroup.from_orders(orders)
        assert G.invariant_factors == _invariant_factors_per_prime(orders), orders


def test_invalid_invariant_factors():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))
    for orders in ([0], [3, -2]):
        with pytest.raises(ValueError, match="orders must be >= 1"):
            FiniteAbelianGroup.from_orders(orders)


@given(small_orders)
@settings(max_examples=60, deadline=None)
def test_order_and_exponent(orders):
    G = FiniteAbelianGroup.from_orders(orders)
    prod = math.prod(orders)
    assert G.order == prod
    assert all(G.exponent % G.element_order(g) == 0 for g in G.elements())


@given(small_orders)
@settings(max_examples=40, deadline=None)
def test_element_order_matches_iteration(orders):
    G = FiniteAbelianGroup.from_orders(orders)
    for g in itertools.islice(G.elements(), 20):
        o = 1
        x = g
        while x != G.identity():
            x = G.add(x, g)
            o += 1
        assert o == G.element_order(g)


def test_subgroup_count_klein():
    G = FiniteAbelianGroup((2, 2))
    assert len(G.subgroups()) == 5


def _cyclic_quotients_by_subgroups(G):
    """Every subgroup N of the lattice whose quotient has an element of
    order |G/N|, sorted as cyclic_quotients sorts."""
    def coset_order(N, g):
        o, x = 1, g
        while x not in N:
            x, o = G.add(x, g), o + 1
        return o

    out = [(N, G.order // len(N)) for N in G.subgroups()
           if any(coset_order(N, g) == G.order // len(N) for g in G.elements())]
    return sorted(out, key=lambda t: (t[1], sorted(t[0])))


def test_cyclic_quotients_reference_counts():
    assert len(FiniteAbelianGroup((2, 2)).cyclic_quotients()) == 4
    assert len(FiniteAbelianGroup((4,)).cyclic_quotients()) == 3
    # Z/2 x Z/4: quotients by the three order-4 subgroups, two of the
    # order-2 subgroups, and the whole group are cyclic
    assert len(FiniteAbelianGroup((2, 4)).cyclic_quotients()) == 6
    # Z/4096: one quotient per divisor 2^0, ..., 2^12
    quotients = FiniteAbelianGroup((4096,)).cyclic_quotients()
    assert [n for _, n in quotients] == [2**a for a in range(13)]
    assert all(len(N) * n == 4096 for N, n in quotients)


def test_cyclic_quotient_count_equals_cyclic_subgroup_count():
    # duality: cyclic quotients of G correspond to cyclic subgroups; and
    # the character kernels are exactly the subgroups with a cyclic
    # quotient found by searching the subgroup lattice
    for G in small_abelian_groups(64):
        quotients = G.cyclic_quotients()
        assert quotients == _cyclic_quotients_by_subgroups(G), G
        cyc_sub = sum(1 for H in G.subgroups() if any(G.element_order(g) == len(H) for g in H))
        assert len(quotients) == cyc_sub


def test_characters_biject_and_pair_nondegenerately():
    G = FiniteAbelianGroup((2, 4))
    chars = list(G.characters())
    assert len(chars) == G.order
    for chi in chars:
        if any(chi):
            assert any(G.char_value_exponent(chi, g) != 0 for g in G.elements())


def test_galois_exponents_basic():
    assert galois_exponents(1, 2) == [1]
    # E = 4, p = 2: all units mod 4
    assert galois_exponents(4, 2) == [1, 3]
    # E = 3, p = 2: Frobenius orbit {1, 2}
    assert galois_exponents(3, 2) == [1, 2]
    # E = 5, p = 2: ord_5(2) = 4, all units
    assert galois_exponents(5, 2) == [1, 2, 3, 4]
    # E = 7, p = 2: ord_7(2) = 3
    assert galois_exponents(7, 2) == [1, 2, 4]


def test_galois_exponents_form_a_group():
    for E, p in [(12, 2), (18, 3), (20, 2), (15, 2)]:
        units = galois_exponents(E, p)
        s = set(units)
        for a in units:
            for b in units:
                assert a * b % E in s


def test_frobenius_orbits_partition():
    for G in [FiniteAbelianGroup((6,)), FiniteAbelianGroup((2, 4)), FiniteAbelianGroup((9,))]:
        for p in (2, 3):
            orbits = frobenius_orbits(G, p)
            flat = [chi for orb in orbits for chi in orb]
            assert len(flat) == G.order
            assert len(set(flat)) == G.order
            for orb in orbits:
                o = G.char_order(orb[0])
                assert all(G.char_order(chi) == o for chi in orb)


def test_galois_exponents_are_the_units_over_frobenius_powers():
    # u ranges over the units mod E whose prime-to-p part is a power of p
    for E in range(1, 65):
        for p in (2, 3, 5, 7):
            m = E // p ** val_p(E, p)
            frob = {p**j % m for j in range(E)}
            ref = [u for u in range(1, E + 1) if math.gcd(u, E) == 1 and u % m in frob]
            assert galois_exponents(E, p) == ref


def test_frobenius_orbits_step_by_generators_as_by_all_exponents():
    # the orbit of each character under every Galois exponent mod exp(G);
    # a character already in an orbit is skipped, so Z/4096 and Z/3125 stay cheap
    inputs = [(G, p) for n in range(1, 65) for G in abelian_groups_of_order(n) for p in (2, 3, 5, 7)]
    for G, p in inputs + [(FiniteAbelianGroup((4096,)), 2), (FiniteAbelianGroup((3125,)), 5)]:
        units = galois_exponents(G.exponent, p)
        ref, seen = [], set()
        for chi in G.characters():
            if chi not in seen:
                ref.append(tuple(sorted({G.char_pow(chi, u) for u in units})))
                seen.update(ref[-1])
        assert frobenius_orbits(G, p) == sorted(ref, key=lambda o: o[0])


def test_crt_and_mult_order():
    assert mult_order(2, 7) == 3
    assert mult_order(3, 1) == 1
    for a, m in [(2, 4), (0, 5), (6, 9)]:
        with pytest.raises(ValueError, match="not a unit"):
            mult_order(a, m)
    assert val_p(48, 2) == 4
    with pytest.raises(ValueError):
        val_p(0, 2)


def test_factorize_and_prime_power_split():
    for n in range(1, 300):
        fs = factorize(n)
        assert math.prod(p**e for p, e in fs) == n
        assert [p for p, _ in fs] == sorted(p for p, _ in fs)
        assert all(e >= 1 and factorize(p) == ((p, 1),) for p, e in fs)
    assert prime_power_split(2) == (2, 1) and prime_power_split(243) == (3, 5)
    for Q in (-4, 0, 1, 6, 12, 100):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power_split(Q)


def test_primality_and_prime_power_split_agree_with_factorize():
    def split(n):
        try:
            return prime_power_split(n)
        except ValueError:
            return None

    for n in range(-2, 10**5):
        fs = factorize(n) if n >= 1 else ()
        assert _is_prime(n) == (fs == ((n, 1),))
        assert split(n) == (fs[0] if len(fs) == 1 else None)
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(3215031751)
    # past the proven range a witness still decides, and no witness is no answer
    assert not _is_prime(2**89 + 1)
    assert not _is_prime((2**61 - 1) * (2**31 - 1))
    with pytest.raises(ValueError, match="cannot decide"):
        _is_prime(2**89 - 1)
    assert prime_power_split((2**61 - 1) ** 3) == (2**61 - 1, 3)


@pytest.mark.parametrize("Q", [2, 4, 9])
def test_int_log_is_exact(Q):
    assert int_log(1, Q) == 0
    assert int_log(Q**60, Q) == 60
    for n in [Q**k + 1 for k in (1, 7, 60)] + [0, -Q]:
        with pytest.raises(ValueError, match="not a power"):
            int_log(n, Q)


def test_wedge_square():
    assert wedge_square_p_part(FiniteAbelianGroup((4,)), 2).order == 1
    assert wedge_square_p_part(FiniteAbelianGroup((4, 4)), 2).invariant_factors == (4,)
    assert wedge_square_p_part(FiniteAbelianGroup((2, 2, 2)), 2).order == 8


def test_group_counts_by_order():
    assert len(abelian_groups_of_order(1)) == 1
    assert len(abelian_groups_of_order(8)) == 3
    assert len(abelian_groups_of_order(16)) == 5
    assert len(abelian_groups_of_order(36)) == 4


def test_serialization_round_trip():
    for G in small_abelian_groups(20):
        assert parse_group(",".join(map(str, G.invariant_factors))) == G


def test_closure_and_orbits_hand_counts():
    assert closure([0], lambda x: [(x + 4) % 12]) == {0, 4, 8}
    assert closure([1, 2], lambda x: [(x + 4) % 12]) == {1, 2, 5, 6, 9, 10}
    # Z/12 under x -> x + 4: four orbits of size 3, listed by first member
    assert [sorted(o) for o in orbits(range(12), lambda x: [(x + 4) % 12])] == [
        [0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]]
    # under x -> 5x the orbits have size 1 or 2
    assert [sorted(o) for o in orbits(range(12), lambda x: [5 * x % 12])] == [
        [0], [1, 5], [2, 10], [3], [4, 8], [6], [7, 11], [9]]
    assert [min(o) for o in orbits(reversed(range(12)), lambda x: [(x + 4) % 12])] == [3, 2, 1, 0]


def _closed_subsets(elems, add, zero, maps=()):
    """Every subset containing zero and closed under add and each map,
    by brute force over all 2^|elems| subsets."""
    out = []
    for mask in range(1 << len(elems)):
        S = frozenset(x for i, x in enumerate(elems) if mask >> i & 1)
        if (zero in S and all(add(x, y) in S for x in S for y in S)
                and all(f(x) in S for f in maps for x in S)):
            out.append(S)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def test_subgroup_lattice_matches_brute_force():
    for G in small_abelian_groups(8):
        lattice = subgroup_lattice(G.elements(), G.identity(), G.subgroup_generated, G.add)
        assert lattice == _closed_subsets(list(G.elements()), G.add, G.identity())
        assert G.subgroups() == lattice


def _lattice_by_full_span(elems, add, zero, maps=(lambda x: x,)):
    """Reference walk: every subgroup S steps to S + the additive span of
    {f(x) : f in maps} for each x outside S.  maps must be the actions of
    all elements of a group, so this is the submodule S and x generate."""
    def step(S):
        for x in set(elems) - S:
            images = {f(x) for f in maps}
            yield closure(S, lambda y: [add(y, z) for z in images])

    return sorted(closure([frozenset({zero})], step), key=lambda s: (len(s), sorted(s)))


def test_subgroups_match_full_span_walk():
    for facs in [(2, 4, 8), (2, 2, 2, 2), (8, 8), (3, 9)]:
        G = FiniteAbelianGroup(facs)
        assert G.subgroups() == _lattice_by_full_span(list(G.elements()), G.add, G.identity())


def test_gamma_submodules_match_brute_force():
    z2 = enumerate_idempotents(FiniteAbelianGroup((2,)), 2)  # trivial, sign
    z3 = enumerate_idempotents(FiniteAbelianGroup((3,)), 2)  # trivial (Q = 2), F4 (Q = 4)
    sign = next(e for e in z2 if not e.is_trivial)
    mods = [oracle.realize(sign, ModuleType(2, (2, 1))),
            oracle.direct_sum(oracle.realize(z3[0], ModuleType(2, (1,))),
                              oracle.realize(z3[1], ModuleType(4, (1,))))]
    for H in mods:
        assert H.size == 8
        maps = [lambda x, g=g: H.act(g, x) for g in H.group.elements()]
        brute = _closed_subsets(list(H.elements()), H.add, H.zero(), maps)
        subs = oracle.gamma_submodules(H)
        assert isinstance(subs, list) and subs == brute
        inside = brute[-2]
        assert oracle.gamma_submodules(H, inside) == [S for S in brute if S <= inside]
    # order 32, too large for the subset sweep: Z/3 acting on F4 ⊕ (Z/4 ⊕ Z/2)
    H = oracle.direct_sum(oracle.realize(z3[0], ModuleType(2, (2, 1))),
                          oracle.realize(z3[1], ModuleType(4, (1,))))
    maps = [lambda x, g=g: H.act(g, x) for g in H.group.elements()]
    assert H.size == 32
    assert oracle.gamma_submodules(H) == _lattice_by_full_span(list(H.elements()), H.add, H.zero(), maps)
