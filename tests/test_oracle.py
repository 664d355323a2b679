import dataclasses
import gc
import io
import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy

from dvrstat.abelian import FiniteAbelianGroup, closure, int_log, mult_order, orbits
from dvrstat.dvrmod import ModuleType, aut_count, hom_count, partitions_of, sur_count
from dvrstat import linalg, oracle

from conftest import partitions_upto


def _idems(facs, p):
    from dvrstat.idempotents import enumerate_idempotents

    return enumerate_idempotents(FiniteAbelianGroup(facs), p)


def test_realize_round_trip_unramified():
    e = next(e for e in _idems((3,), 2) if not e.is_trivial)  # Q = 4
    for lam in [(1,), (2,), (2, 1), (3, 1)]:
        M = oracle.realize(e, ModuleType(4, lam))
        assert oracle.iso_type(M, e).parts == lam
        assert M.size == 4 ** sum(lam)


def test_unramified_factor_is_sympys_first_factor():
    # the factor realize used to take: the first degree-f entry of sympy's
    # factor_list of Φ_{m'} mod p, Hensel-lifted
    y = sympy.symbols("y")
    cases = [(p, m, mult_order(p, m)) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 40)
             if m % p and p ** mult_order(p, m) <= 5000]
    assert len(cases) == 92
    for p, m, f in cases:
        phi = oracle._cyclotomic(m, p**3)
        fac = next(g for g, _ in sympy.Poly(phi[::-1], y, modulus=p).factor_list()[1]
                   if g.degree() == f)
        u = [int(c) % p for c in fac.all_coeffs()[::-1]]
        assert oracle._unramified_factor(p, m, f, 3) == linalg.hensel_lift_factor(phi, u, p, 3)[0]


def test_cyclotomic_prime_powers_match_closed_form():
    # Φ_{p^k}(y) = Σ_{j<p} y^{j·p^{k−1}}, the ramified ring realize builds
    for p, k in [(p, k) for p in (2, 3, 5, 7) for k in range(1, 9) if p**k <= 256]:
        ref = [0] * ((p - 1) * p ** (k - 1) + 1)
        for j in range(p):
            ref[j * p ** (k - 1)] = 1
        assert oracle._cyclotomic(p**k, p ** (k + 1)) == ref


def test_cyclotomic_matches_sympy_mod_prime_powers():
    y = sympy.symbols("y")
    for m in range(1, 61):
        ref = sympy.Poly(sympy.cyclotomic_poly(m, y), y).all_coeffs()[::-1]
        for mod in (2**8, 3**5, 5**3, 7**2):
            assert oracle._cyclotomic(m, mod) == [int(c) % mod for c in ref]


def test_realize_round_trip_ramified():
    e = next(e for e in _idems((4,), 2) if e.e_ram == 2)
    for lam in [(1,), (2,), (2, 2), (3, 1)]:
        M = oracle.realize(e, ModuleType(2, lam))
        assert oracle.iso_type(M, e).parts == lam


def test_realize_trivial_idempotent():
    e = next(e for e in _idems((2,), 2) if e.is_trivial)
    M = oracle.realize(e, ModuleType(2, (2, 1)))
    assert oracle.iso_type(M, e).parts == (2, 1)
    # trivial action throughout
    for g in M.group.elements():
        assert M.act(g, (1, 1)) == (1, 1)


def test_brute_counts_match_formulas_on_realizations(monkeypatch):
    e_sgn = next(e for e in _idems((2,), 2) if not e.is_trivial)
    for lam in [(1,), (2,), (1, 1)]:
        for mu in [(1,), (2,), (1, 1)]:
            M = oracle.realize(e_sgn, ModuleType(2, lam))
            N = oracle.realize(e_sgn, ModuleType(2, mu))
            h, s = oracle.brute_module_counts(M, N)
            assert h == hom_count(ModuleType(2, lam), ModuleType(2, mu))
            assert s == sur_count(ModuleType(2, lam), ModuleType(2, mu))
    # the action-free counts list their homs through the one Γ-hom
    # solver: λ of rank <= 2 and |λ| <= 5, zero modules included, and
    # every μ of size <= 5 at Q = 2, <= 3 at Q = 3 and 5.  Each realized
    # pair (λ cut to max μ, μ) is solved once, on its first request; the
    # realize memo starts empty, so no earlier test has solved one
    hom_solver, solved = oracle._hom_solver, []

    def counting_solver(*args):
        solved.append(args)
        return hom_solver(*args)

    monkeypatch.setattr(oracle, "_hom_solver", counting_solver)
    oracle._realize_cached.cache_clear()
    cases, pairs = 0, set()
    for Q, top in [(2, 5), (3, 3), (5, 3)]:
        for lam in [l for l in partitions_upto(5) if len(l) <= 2]:
            for mu in partitions_upto(top):
                M, N = ModuleType(Q, lam), ModuleType(Q, mu)
                assert oracle.brute_counts_plain(Q, lam, mu) == (hom_count(M, N), sur_count(M, N)), (Q, lam, mu)
                cases += 1
                pairs.add((Q, tuple(min(a, max(mu)) for a in lam if mu), mu))
                assert len(solved) == len(pairs)
    assert (cases, len(pairs)) == (396, 184)


def test_brute_counts_f4_module():
    # F4 as a module over the order-3 character: End = F4, Aut = F4*
    e = next(e for e in _idems((3,), 2) if not e.is_trivial)
    M = oracle.realize(e, ModuleType(4, (1,)))
    h, s = oracle.brute_module_counts(M, M)
    assert (h, s) == (4, 3)


def test_brute_counts_plain_rank_guard(monkeypatch):
    # every refusal comes before any module is built or any hom listed,
    # and the rank refusal before the size one; μ = (10^12,) is refused
    # from the partition, without taking 2^(10^12)
    def unreached(*args):
        pytest.fail("reached past the refusals")

    monkeypatch.setattr(oracle, "_hom_solver", unreached)
    monkeypatch.setattr(oracle, "ExplicitModule", unreached)
    monkeypatch.setattr(oracle, "realize", unreached)
    for q in (0, 1, 4, 6):
        with pytest.raises(ValueError, match="not prime"):
            oracle.brute_counts_plain(q, (1,), (1,))
    with pytest.raises(ValueError, match="rank <= 2"):
        oracle.brute_counts_plain(2, (1, 1, 1), (1,))
    with pytest.raises(ValueError, match="rank <= 2"):
        oracle.brute_counts_plain(2, (1, 1, 1), (10**12,))
    for q, mu in [(2, (13,)), (2, (10**12,)), (2, (1,) * 13), (3, (4, 4)), (4099, (1,))]:
        with pytest.raises(ValueError, match="module too large to enumerate"):
            oracle.brute_counts_plain(q, (1,), mu)


def test_brute_counts_plain_keeps_target_ranks(monkeypatch):
    # N comes from `realize`, so a repeated request finds every residue
    # rank of its maps onto N kept from the first one
    first = oracle.brute_counts_plain(5, (1, 1), (1, 1))

    def unranked(*args):
        pytest.fail("residue rank computed again")

    monkeypatch.setattr(oracle, "_rank_mod_p", unranked)
    assert oracle.brute_counts_plain(5, (1, 1), (1, 1)) == first == (625, 480)


def test_ab_sets_inversion_on_z4():
    e = next(e for e in _idems((2,), 2) if not e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (2,)))
    ab = oracle.ab_sets(H, (1,))
    assert len(ab.a_minus) == 4  # norm = 0 on all of Z/4
    assert ab.b_minus == frozenset({(0,), (2,)})  # im(1 - inversion) = 2Z/4
    assert ab.a_plus == frozenset({(0,), (2,)})
    assert ab.a_zero == frozenset({(0,), (2,)})


def test_iso_type_of_kernels_and_quotients():
    e = next(e for e in _idems((2,), 2) if not e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (2, 1)))
    ab = oracle.ab_sets(H, (1,))
    sub, _ = oracle.module_from_subgroup(H, ab.a_plus)
    quo, _, _ = oracle.module_quotient(H, ab.b_minus)
    assert oracle.iso_type(sub, e).parts == oracle.iso_type(quo, e).parts


def test_module_quotient_projection_is_onto_with_kernel_u():
    # for Z/2, Z/4 and (Z/2)^2 at p = 2, the idempotent listed last (the
    # sign, the ramified one, the character (1, 1)), every type of at
    # most two parts with |H| <= 64, and every Γ-submodule U: proj is a
    # Γ-hom from H onto H/U with kernel U
    count = 0
    for facs in [(2,), (4,), (2, 2)]:
        e = _idems(facs, 2)[-1]
        for lam in (lam for s in range(1, 7) for lam in partitions_of(s) if len(lam) <= 2):
            H = oracle.realize(e, ModuleType(2, lam))
            for U in oracle.gamma_submodules(H):
                quo, proj, _ = oracle.module_quotient(H, U)
                f = oracle.ModuleHom(H, quo, proj)
                assert f.is_surjective()
                assert f.kernel() == U
                for g in e.group.elements():
                    assert oracle._mat_eq(oracle._mat_mat(proj, H.action_of(g), quo.orders),
                                          oracle._mat_mat(quo.action_of(g), proj, quo.orders),
                                          quo.orders)
                count += 1
    assert count == 555


def test_extension_catalog_z2_by_z2():
    e = next(e for e in _idems((2,), 2) if e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (1,)))
    exts = oracle.enumerate_extensions(H)
    assert len(exts) == 2  # Klein four and Z/4
    assert oracle.splitting_count(exts[0]) == 2
    assert oracle.splitting_count(exts[1]) == 0
    orders = sorted(exts[1].element_order(x) for x in exts[1].elements())
    assert orders == [1, 2, 4, 4]


def test_extensions_with_no_cocycle_unknowns():
    # the zero module and a trivial Γ leave the cocycle system without
    # unknowns; each has one class, the split one, with or without refine
    z2 = next(e for e in _idems((2,), 2) if not e.is_trivial)
    for e, lam in [(z2, ()), (_idems((), 3)[0], ()), (_idems((), 2)[0], (2, 1))]:
        H = oracle.realize(e, ModuleType(e.Q, lam))
        for refine in (False, True):
            exts = oracle.enumerate_extensions(H, refine)
            assert [G.cocycle for G in exts] == [oracle.ExplicitGroup.split(H).cocycle]
            assert oracle.splitting_count(exts[0]) == H.size ** H.group.rank


def test_extension_catalog_z2_by_z4_inversion():
    e = next(e for e in _idems((2,), 2) if not e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (2,)))
    exts = oracle.enumerate_extensions(H)
    assert len(exts) == 2  # dihedral and quaternion
    assert oracle.splitting_count(exts[0]) == 4
    assert oracle.splitting_count(exts[1]) == 0
    # quaternion group: six elements of order 4
    q8 = exts[1]
    assert sum(1 for x in q8.elements() if q8.element_order(x) == 4) == 6


def test_refine_false_is_a_superset():
    e = next(e for e in _idems((2,), 2) if e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (1, 1)))
    fine = oracle.enumerate_extensions(H, refine=False)
    coarse = oracle.enumerate_extensions(H)
    assert len(coarse) <= len(fine)
    assert {oracle.splitting_count(E) > 0 for E in fine} == {
        oracle.splitting_count(E) > 0 for E in coarse
    }


def _normalized_cochains(Gamma, H):
    """(pairs, Z², B²) by enumeration.  A normalized 2-cochain is the
    tuple of its values on `pairs`, the pairs of nontrivial elements."""
    Gs = [g for g in Gamma.elements() if any(g)]
    pairs = list(itertools.product(Gs, Gs))
    elems = list(H.elements())
    zero = H.zero()
    cocycles = set()
    for vals in itertools.product(elems, repeat=len(pairs)):
        f = dict(zip(pairs, vals))
        f = lambda a, b, f=f: f.get((a, b), zero)
        if all(H.add(f(a, b), f(Gamma.add(a, b), c)) == H.add(H.act(a, f(b, c)), f(a, Gamma.add(b, c)))
               for a, b, c in itertools.product(Gs, repeat=3)):
            cocycles.add(vals)
    coboundaries = set()
    for vals in itertools.product(elems, repeat=len(Gs)):
        c = dict(zip(Gs, vals))
        c = lambda g, c=c: c.get(g, zero)
        # δc(u, v) = u·c(v) − c(uv) + c(u)
        coboundaries.add(tuple(H.add(H.add(H.act(u, c(v)), H.neg(c(Gamma.add(u, v)))), c(u))
                               for u, v in pairs))
    return pairs, cocycles, coboundaries


def _small_extension_cases():
    # |H| <= 16, rank <= 3 and |H|^{(|Γ|-1)^2} <= 2^13 cochains
    for facs, p in [((2,), 2), ((3,), 2), ((3,), 3), ((4,), 2), ((2, 2), 2)]:
        Gamma = FiniteAbelianGroup(facs)
        for e in _idems(facs, p):
            for size in range(1, 5):
                if e.Q**size <= 16 and e.Q ** (size * (Gamma.order - 1) ** 2) <= 2**13:
                    for lam in partitions_of(size):
                        if len(lam) <= 3:
                            yield Gamma, oracle.realize(e, ModuleType(e.Q, lam))


def test_extensions_match_brute_force_h2():
    cases = list(_small_extension_cases())
    assert len(cases) == 40
    for Gamma, H in cases:
        pairs, Z, B = _normalized_cochains(Gamma, H)
        # each cocycle to the least member of its class in Z²/B²
        coset = {}
        for f in sorted(Z):
            if f not in coset:
                coset.update((tuple(map(H.add, f, b)), f) for b in B)
        fine = oracle.enumerate_extensions(H, refine=False)
        reps = [tuple(E.cocycle[ab] for ab in pairs) for E in fine]
        assert len(reps) == len(Z) // len(B)
        assert set(reps) <= Z
        assert len({coset[f] for f in reps}) == len(reps)
        # refine: one class per orbit of all of Aut_Γ(H), acting by T ∘ f
        auts = oracle.module_automorphisms(H)

        def step(f):
            return [coset[tuple(oracle._mat_apply(T, h, H.orders) for h in f)] for T in auts]

        assert len(oracle.enumerate_extensions(H)) == len(orbits(set(coset.values()), step))


def test_conjugacy_stats_dihedral():
    e = next(e for e in _idems((2,), 2) if not e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (2,)))
    exts = oracle.enumerate_extensions(H)
    # dihedral of order 8: 4 reflections in 2 classes; quaternion: none of order 2
    assert oracle.conjugacy_stats(exts[0], (1,)) == (4, 2)
    assert oracle.conjugacy_stats(exts[1], (1,)) == (0, 0)


def test_split_conjugacy_matches_orbit_formula():
    for facs, p in [((2,), 2), ((3,), 3), ((4,), 2)]:
        G = FiniteAbelianGroup(facs)
        for e in _idems(facs, p):
            H = oracle.realize(e, ModuleType(e.Q, (2,)))
            if H.size > 64:
                continue
            split = oracle.ExplicitGroup.split(H)
            for g in G.elements():
                if not any(g):
                    continue
                c, d = oracle.conjugacy_stats(split, g)
                ab = oracle.ab_sets(H, g)
                assert d == oracle.gamma_orbit_count_on_quotient(H, ab.a_minus, ab.b_minus)


def test_aut_extension_count_formula():
    e = next(e for e in _idems((2,), 2) if not e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (2,)))
    assert oracle.aut_extension_count(H) == 4


def test_aut_extension_count_puts_the_acting_generator_first():
    # Γ = (Z/2)^2: under χ = (0, 1) only the second generator acts, and it
    # is moved first; χ = (1, 1) moves both, so no order fits
    counts = {}
    for e in _idems((2, 2), 2):
        H = oracle.realize(e, ModuleType(2, (2,)))
        if e.rep == (1, 1):
            with pytest.raises(ValueError, match="all basis elements after the first must act trivially"):
                oracle.aut_extension_count(H)
        else:
            counts[e.rep] = oracle.aut_extension_count(H)
    assert counts == {(0, 0): 4, (0, 1): 8, (1, 0): 8}


def test_coprime_order_forces_split():
    e = next(e for e in _idems((3,), 2) if e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (2,)))
    exts = oracle.enumerate_extensions(H)
    assert len(exts) == 1
    # complements of H correspond to homomorphisms Z/3 -> Z/4: only one
    assert oracle.splitting_count(exts[0]) == 1


def _first_surjective_lift(res, pi1, pi2):
    """The first hom N1 -> common quotient in enumerate_module_homs order
    that is onto and lifts π₁ through the quotient's map to N3."""
    N1, N2, quo = pi1.src, pi2.src, res.common_quotient
    induced = {res.to_common_2.apply(y): pi2.apply(y) for y in N2.elements()}
    for psi in oracle.enumerate_module_homs(N1, quo):
        cols = [list(c) for c in zip(*psi.matrix)]
        onto = oracle.subgroup_size(quo.orders, cols) == quo.size
        if onto and all(induced[psi.apply(x)] == pi1.apply(x) for x in N1.elements()):
            return psi.matrix
    return None


def test_fiber_tools_collapse():
    e = next(e for e in _idems((2,), 2) if e.is_trivial)
    N1 = oracle.realize(e, ModuleType(2, (2,)))
    N3 = oracle.realize(e, ModuleType(2, (1,)))
    pi = oracle.ModuleHom(N1, N3, ((1,),))
    res = oracle.fiber_tools(e, pi, pi)
    assert oracle.iso_type(res.common_quotient, e).parts == (2,)
    assert oracle.iso_type(res.boxtimes, e).parts == (2,)
    assert oracle.residue_rank(res.boxtimes, e) == oracle.residue_rank(N3, e)
    # ψ(1) may be 1 or 3 in Z/4; the first in enumeration order is taken
    assert res.to_common_1.matrix == _first_surjective_lift(res, pi, pi) == ((1,),)


def test_fiber_tools_rank_law_spot():
    e = next(e for e in _idems((2,), 2) if e.is_trivial)
    N1 = oracle.realize(e, ModuleType(2, (2,)))
    N2 = oracle.realize(e, ModuleType(2, (1,)))
    N3 = oracle.realize(e, ModuleType(2, (1,)))
    pi1 = oracle.ModuleHom(N1, N3, ((1,),))
    pi2 = oracle.ModuleHom(N2, N3, ((1,),))
    res = oracle.fiber_tools(e, pi1, pi2)
    assert oracle.residue_rank(res.boxtimes, e) == 1
    assert res.to_common_1.matrix == _first_surjective_lift(res, pi1, pi2)


def _fiber_sweep(f, g):
    """Slow reference: {(x, y) : f(x) = g(y)} by a sweep of src(f) × src(g)."""
    return frozenset(tuple(x) + tuple(y) for x in f.src.elements() for y in g.src.elements()
                     if f.apply(x) == g.apply(y))


def _span(D, gens):
    return closure([D.zero()], lambda x: [D.add(x, v) for v in gens])


def _assert_fiber_matches_sweep(f, g, e, got=None):
    """coords_of maps the swept fiber one to one onto the fiber module,
    additively and as Γ acts on both, and refuses elements of X ⊕ Y off
    the fiber; the module has the size and type of the one built from
    the sweep."""
    sub, coords_of = oracle._fiber_submodule(f, g)
    D = oracle.direct_sum(f.src, g.src)
    ref = _fiber_sweep(f, g)
    assert len(sub.orders) <= len(D.orders)
    coords = {x: coords_of(x) for x in ref}
    assert len(set(coords.values())) == sub.size == len(ref)
    assert coords[D.zero()] == sub.zero()
    # additive along the elements over the module's generators, which
    # then generate the fiber, as coords is one to one
    over = {c: x for x, c in coords.items()}
    units = [tuple(int(r == t) for r in range(len(sub.orders))) for t in range(len(sub.orders))]
    for x in ref:
        for u in units:
            assert coords[D.add(x, over[u])] == sub.add(coords[x], u)
        for A, B in zip(D.actions, sub.actions):
            assert coords[oracle._mat_apply(A, x, D.orders)] == oracle._mat_apply(B, coords[x], sub.orders)
    for x in itertools.islice((x for x in D.elements() if x not in ref), 50):
        with pytest.raises(ValueError, match="not in the subgroup"):
            coords_of(x)
    swept, _ = oracle.module_from_subgroup(D, ref)
    got = sub if got is None else got
    assert got.size == swept.size == len(ref)
    assert oracle.iso_type(got, e) == oracle.iso_type(swept, e)


def test_fiber_products_match_sweep_on_catalog_shapes():
    # every criterion-9 fiber shape of the benchmark pool, on the pairs
    # its requests run: the first 2 x 2 surjections onto N3
    pool = json.loads((Path(__file__).resolve().parents[1] / "dvrbench" / "catalog.json").read_text())["pool"]
    shapes = [e for kind, e in pool if kind == "fiber"]
    assert {ei for ei, *_ in shapes} == {0, 1}
    idems = _idems((2,), 2)
    for ei, l1, l2, l3 in shapes:
        e = idems[ei]
        N1, N2, N3 = (oracle.realize(e, ModuleType(2, tuple(lam))) for lam in (l1, l2, l3))
        surs1 = [f for f in oracle.enumerate_module_homs(N1, N3) if f.is_surjective()]
        surs2 = [f for f in oracle.enumerate_module_homs(N2, N3) if f.is_surjective()]
        for pi1 in surs1[:2]:
            for pi2 in surs2[:2]:
                res = oracle.fiber_tools(e, pi1, pi2)
                assert res.to_common_1.matrix == _first_surjective_lift(res, pi1, pi2)
                _assert_fiber_matches_sweep(pi1, pi2, e, res.fiber_product)
                _assert_fiber_matches_sweep(res.to_common_1, res.to_common_2, e, res.boxtimes)


def test_fiber_over_zero_target_is_the_direct_sum():
    e = next(e for e in _idems((2,), 2) if not e.is_trivial)
    X = oracle.realize(e, ModuleType(2, (2, 1)))
    Y = oracle.realize(e, ModuleType(2, (1,)))
    Z = oracle.zero_module(2, X.group)
    f, g = oracle.ModuleHom(X, Z, ()), oracle.ModuleHom(Y, Z, ())
    _assert_fiber_matches_sweep(f, g, e)
    assert oracle._fiber_submodule(f, g)[0].size == X.size * Y.size


def test_fiber_submodule_enumerates_no_element(monkeypatch):
    # X ⊕ Y has 2^18 elements, past MODULE_ENUM_CAP: no sweep could run
    e = next(e for e in _idems((2,), 2) if e.is_trivial)
    X = oracle.realize(e, ModuleType(2, (3, 3, 3)))
    Z = oracle.realize(e, ModuleType(2, (1, 1, 1)))
    f = oracle.ModuleHom(X, Z, tuple(map(tuple, linalg.identity_matrix(3))))

    def refuse(self):
        raise AssertionError("elements() called")

    monkeypatch.setattr(oracle.ExplicitModule, "elements", refuse)
    fiber, _ = oracle._fiber_submodule(f, f)
    assert fiber.size == 2**15
    assert oracle.iso_type(fiber, e).parts == (3, 3, 3, 2, 2, 2)


def test_fiber_under_sign_idempotent_with_nontrivial_action():
    e = next(e for e in _idems((2,), 2) if not e.is_trivial)
    N1 = oracle.realize(e, ModuleType(2, (3, 1)))
    N2 = oracle.realize(e, ModuleType(2, (2, 2)))
    N3 = oracle.realize(e, ModuleType(2, (2,)))
    assert N3.actions[0] != tuple(tuple(row) for row in linalg.identity_matrix(len(N3.orders)))
    surs1 = [f for f in oracle.enumerate_module_homs(N1, N3) if f.is_surjective()]
    surs2 = [f for f in oracle.enumerate_module_homs(N2, N3) if f.is_surjective()]
    for pi1, pi2 in [(surs1[0], surs2[0]), (surs1[-1], surs2[-1])]:
        _assert_fiber_matches_sweep(pi1, pi2, e)


def test_module_from_subgroup_accepts_a_generating_set():
    # all elements and a small generating set of S give the same module
    for facs, lam in [((2,), (2, 1)), ((2,), (2, 2)), ((4,), (2,)), ((2,), (3,))]:
        for e in _idems(facs, 2):
            H = oracle.realize(e, ModuleType(e.Q, lam))
            for S in oracle.gamma_submodules(H):
                gens, span = [], {H.zero()}
                for x in sorted(S):
                    if x not in span:
                        gens.append(x)
                        span = _span(H, gens)
                assert span == S
                full, _ = oracle.module_from_subgroup(H, S)
                small, coords_of = oracle.module_from_subgroup(H, gens)
                assert small.size == full.size == len(S)
                assert oracle.iso_type(small, e) == oracle.iso_type(full, e)
                assert len({coords_of(x) for x in S}) == len(S)


def test_module_validation_rejects_bad_action():
    G = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError, match="action matrix not well defined"):
        # entry 1 in position (0, 1) violates the divisibility condition
        oracle.ExplicitModule(2, (4, 2), G, [[[1, 1], [0, 1]]])


def test_module_validation_raises_value_error():
    # checks on caller input must not be asserts, which -O strips
    G2 = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError, match="orders must be powers of p"):
        oracle.ExplicitModule(2, (6,), G2, [[[1]]])
    with pytest.raises(ValueError, match="0 action matrices for 1 generators"):
        oracle.ExplicitModule(2, (2,), G2, [])
    with pytest.raises(ValueError, match="square of size 2"):
        oracle.ExplicitModule(2, (2, 2), G2, [[[1, 0], [0]]])
    with pytest.raises(ValueError, match="action order does not divide"):
        # an element of order 3 in GL_2(F_2)
        oracle.ExplicitModule(2, (2, 2), G2, [[[0, 1], [1, 1]]])
    with pytest.raises(ValueError, match="do not commute"):
        oracle.ExplicitModule(2, (2, 2), FiniteAbelianGroup((2, 2)),
                              [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])


def test_cocycle_validation_raises_value_error():
    # checks on caller input must not be asserts, which -O strips
    H = oracle.ExplicitModule(2, (2,), FiniteAbelianGroup((3,)), [[[1]]])
    split = oracle.ExplicitGroup.split(H).cocycle
    with pytest.raises(ValueError, match="cocycle is not normalized"):
        oracle.ExplicitGroup(H, {**split, ((0,), (1,)): (1,)})
    with pytest.raises(ValueError, match="cocycle identity fails"):
        # normalized, but f(1, 1) + f(2, 2) = 1 while f(1, 2) + f(1, 0) = 0
        oracle.ExplicitGroup(H, {**split, ((1,), (1,)): (1,)})


def test_coords_of_rejects_non_members():
    H = oracle.ExplicitModule(2, (4,), FiniteAbelianGroup((2,)), [[[1]]])
    sub, coords_of = oracle.module_from_subgroup(H, {(0,), (2,)})
    assert sub.orders == (2,) and coords_of((2,)) == (1,)
    with pytest.raises(ValueError, match="not in the subgroup"):
        coords_of((1,))
    # a subset with no nonzero element generates the zero submodule
    sub, coords_of = oracle.module_from_subgroup(H, {(0,)})
    assert sub.orders == () and coords_of((0,)) == ()
    for x in [(1,), (2,), (3,)]:
        with pytest.raises(ValueError, match="not in the subgroup"):
            coords_of(x)


def test_coords_of_runs_no_smith_normal_form(monkeypatch):
    # coordinates come from the SNF module_from_subgroup already ran
    e = next(e for e in _idems((2,), 2) if not e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (2, 2)))
    S = frozenset(H.elements())
    sub, coords_of = oracle.module_from_subgroup(H, S)
    calls = []
    snf = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form", lambda *a, **k: calls.append(a) or snf(*a, **k))
    assert len({coords_of(x) for x in S}) == sub.size == len(S)
    assert calls == []


def test_oracle_kernels_leave_smith_normal_form_to_quotient_structure(monkeypatch):
    # a Γ-hom listing and an order coset are solved on the p-power echelon
    # alone; a fiber product and the submodule of a whole subgroup each run
    # one Smith normal form, the one inside quotient_structure
    e = next(e for e in _idems((2,), 2) if not e.is_trivial)
    N1 = oracle.realize(e, ModuleType(2, (2, 1)))
    N3 = oracle.realize(e, ModuleType(2, (2,)))
    # a fresh module, with no memo kept from other requests
    H = oracle.ExplicitModule(N1.p, N1.orders, N1.group, N1.actions)
    G = oracle.ExplicitGroup.split(H)
    callers = []
    snf = linalg.smith_normal_form

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return snf(*args, **kwargs)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    surs = [f for f in oracle.enumerate_module_homs(N1, N3) if f.is_surjective()]
    assert surs and oracle._order_coset(G, (1,))
    assert callers == []
    oracle._fiber_submodule(surs[0], surs[-1])
    assert callers == ["quotient_structure"]
    callers.clear()
    oracle.module_from_subgroup(H, frozenset(H.elements()))
    assert callers == ["quotient_structure"]


def test_enumeration_caps_raise_value_error():
    # checks on request size must not be asserts, which -O strips
    H = oracle.ExplicitModule(2, (2 * oracle.MODULE_ENUM_CAP,), FiniteAbelianGroup((2,)), [[[1]]])
    with pytest.raises(ValueError, match="module too large to enumerate"):
        H.elements()
    H = oracle.ExplicitModule(2, (oracle.MODULE_ENUM_CAP,), FiniteAbelianGroup((4,)), [[[1]]])
    G = oracle.ExplicitGroup.split(H)
    assert G.size > oracle.GROUP_SCAN_CAP
    with pytest.raises(ValueError, match="group too large to scan"):
        G.elements()


def test_mismatched_inputs_raise_value_error():
    # checks on caller input must not be asserts, which -O strips
    e = next(e for e in _idems((2,), 2) if e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (1,)))
    f4 = next(e for e in _idems((3,), 2) if not e.is_trivial)
    with pytest.raises(ValueError, match="type has Q = 2 but the idempotent has Q = 4"):
        oracle.realize(f4, ModuleType(2, (1,)))
    G2 = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError, match="p = 2 and p = 3"):
        oracle.direct_sum(H, oracle.ExplicitModule(3, (3,), G2, [[[1]]]))
    with pytest.raises(ValueError, match="different groups"):
        oracle.direct_sum(H, oracle.ExplicitModule(2, (2,), FiniteAbelianGroup((4,)), [[[1]]]))
    N1 = oracle.realize(e, ModuleType(2, (2,)))
    pi = oracle.ModuleHom(N1, H, ((1,),))
    with pytest.raises(ValueError, match="does not map to the target"):
        oracle.fiber_tools(e, pi, oracle.ModuleHom(H, N1, ((2,),)))
    with pytest.raises(ValueError, match="must be surjective"):
        oracle.fiber_tools(e, pi, oracle.ModuleHom(N1, H, ((0,),)))


# small modules with mixed orders and nontrivial actions, per Γ (p = 2):
# Z/3 (F4, f = 2), Z/4 (sign and Z_2[i]) and Z/2 × Z/2 (two generators)
def _small_modules():
    z3 = _idems((3,), 2)  # trivial (Q = 2), F4 (Q = 4)
    z4 = _idems((4,), 2)  # trivial, sign, ramified (Q = 2)
    z2z2 = _idems((2, 2), 2)  # trivial, then three sign characters
    f4 = [oracle.realize(z3[1], ModuleType(4, lam)) for lam in [(1,), (2,)]]
    ram3 = oracle.realize(z4[2], ModuleType(2, (3,)))
    sign = oracle.realize(z2z2[1], ModuleType(2, (2,)))
    return [
        f4 + [oracle.direct_sum(oracle.realize(z3[0], ModuleType(2, (2,))), f4[0])],
        [ram3,
         oracle.realize(z4[1], ModuleType(2, (2, 1))),
         oracle.realize(z4[2], ModuleType(2, (2,))),
         oracle.direct_sum(oracle.realize(z4[0], ModuleType(2, (1,))), ram3)],
        [sign,
         oracle.realize(z2z2[1], ModuleType(2, (2, 1))),
         oracle.realize(z2z2[3], ModuleType(2, (2,))),
         oracle.direct_sum(oracle.realize(z2z2[0], ModuleType(2, (1,))), sign)],
    ]


def _brute_homs(M, N):
    """Γ-hom matrices M -> N and the number of candidates: every
    order-admissible choice of generator images, kept when it commutes
    with each group element on each element."""
    z = N.zero()
    cols = [[y for y in N.elements() if N.smul(o, y) == z] for o in M.orders]
    out = []
    for images in itertools.product(*cols):
        f = oracle.ModuleHom(M, N, tuple(tuple(y[i] for y in images) for i in range(len(N.orders))))
        if all(f.apply(M.act(g, x)) == N.act(g, f.apply(x))
               for g in M.group.elements() for x in M.elements()):
            out.append(f.matrix)
    return out, math.prod(len(c) for c in cols)


def test_enumerate_module_homs_matches_brute_force():
    # same list in the same order; each Γ rejects some candidates, so the
    # equivariance rows of the solver are not vacuous
    for mods in _small_modules():
        rejected = 0
        for M, N in itertools.product(mods, repeat=2):
            homs = oracle.enumerate_module_homs(M, N)
            # the benchmark's span tracer wraps this function and refuses generators
            assert type(homs) is list
            brute, candidates = _brute_homs(M, N)
            assert [h.matrix for h in homs] == brute
            rejected += candidates - len(brute)
        assert rejected > 0


def _assert_lifts_match_brute_force(M, N, Z, brute):
    """For one g: N → Z (the first surjective one, else the last hom) and
    every f: M → Z, `_hom_solver(M, N, g)(f)` lists the brute
    force homs T with g∘T = f on M's generators, in the same order.
    Returns the set of whether each f has a lift."""
    homs_NZ = oracle.enumerate_module_homs(N, Z)
    g = next((h for h in homs_NZ if h.is_surjective()), homs_NZ[-1])
    gens = [tuple(int(i == j) for i in range(len(M.orders))) for j in range(len(M.orders))]
    lifts_of = {}
    for T in brute:
        h = oracle.ModuleHom(M, N, T)
        lifts_of.setdefault(tuple(g.apply(h.apply(x)) for x in gens), []).append(T)
    seen = set()
    for f in oracle.enumerate_module_homs(M, Z):
        expected = lifts_of.get(tuple(f.apply(x) for x in gens), [])
        assert list(oracle._hom_solver(M, N, g)(f)) == expected
        seen.add(bool(expected))
    return seen


def test_hom_matrices_over_matches_brute_force():
    # the affine form lists the lifts of f through g, on the small
    # modules and on the catalog modules of each idempotent up to order 4
    groups = _small_modules()
    for facs in [(2,), (3,), (4,)]:
        for p in (2, 3):
            for e in _idems(facs, p):
                groups.append([oracle.realize(e, ModuleType(e.Q, lam))
                               for s in (1, 2) if e.Q ** s <= 4 for lam in partitions_of(s)])
    seen = set()
    for mods in groups:
        for M, N in itertools.product(mods, repeat=2):
            brute, _ = _brute_homs(M, N)
            for Z in mods:
                seen |= _assert_lifts_match_brute_force(M, N, Z, brute)
    assert seen == {True, False}
    # f = 1 has no lift through g = 0
    H = groups[0][0]
    k = len(H.orders)
    zero = oracle.ModuleHom(H, H, ((0,) * k,) * k)
    one = oracle.ModuleHom(H, H, tuple(map(tuple, linalg.identity_matrix(k))))
    assert list(oracle._hom_solver(H, H, zero)(one)) == []


def test_is_surjective_matches_subgroup_size():
    seen = set()
    for mods in _small_modules():
        for M, N in itertools.product(mods, repeat=2):
            for h in oracle.enumerate_module_homs(M, N):
                cols = [list(c) for c in zip(*h.matrix)]
                onto = oracle.subgroup_size(N.orders, cols) == N.size
                assert h.is_surjective() == onto
                seen.add(onto)
    assert seen == {True, False}


def _assert_residue_rank_counts_parts(M, e):
    """residue_rank(M, e), log_Q |M/𝔪M|, is the number of parts of
    iso_type(M, e); both raise ValueError when M is no module over e's
    DVR and |M/𝔪M| is no power of Q."""
    try:
        parts = oracle.iso_type(M, e).parts
    except ValueError:
        with pytest.raises(ValueError):
            oracle.residue_rank(M, e)
        return False
    assert oracle.residue_rank(M, e) == len(parts)
    return True


def test_residue_rank_counts_the_parts_of_iso_type():
    # the small modules under every idempotent of their Γ: the ramified
    # Z/4 idempotent has 𝔪 = (1 − γ) ≠ (p), so p in place of the
    # uniformizer fails here
    agreed = []
    for facs, mods in zip([(3,), (4,), (2, 2)], _small_modules()):
        for M, e in itertools.product(mods, _idems(facs, 2)):
            agreed.append(_assert_residue_rank_counts_parts(M, e))
    assert True in agreed and False in agreed
    # the criterion-9 realizations, the zero module, and every fiber_tools
    # output on the catalog's fiber shapes (first surjection onto N3 each)
    types = [lam for lam in partitions_upto(4) if lam and max(lam) <= 2]
    idems = _idems((2,), 2)
    for e in idems:
        assert _assert_residue_rank_counts_parts(oracle.zero_module(2, e.group), e)
        for lam in types:
            M = oracle.realize(e, ModuleType(2, lam))
            assert _assert_residue_rank_counts_parts(M, e) and oracle.residue_rank(M, e) == len(lam)
    pool = json.loads((Path(__file__).resolve().parents[1] / "dvrbench" / "catalog.json").read_text())["pool"]
    for ei, l1, l2, l3 in (e for kind, e in pool if kind == "fiber"):
        e = idems[ei]
        N1, N2, N3 = (oracle.realize(e, ModuleType(2, tuple(lam))) for lam in (l1, l2, l3))
        pi1, pi2 = (next((f for f in oracle.enumerate_module_homs(N, N3) if f.is_surjective()), None)
                    for N in (N1, N2))
        if pi1 is None or pi2 is None:  # N3 is no quotient of N1 or of N2
            continue
        res = oracle.fiber_tools(e, pi1, pi2)
        for M in (res.common_quotient, res.fiber_product, res.boxtimes):
            assert _assert_residue_rank_counts_parts(M, e)


def test_is_surjective_ranks_each_residue_matrix_once(monkeypatch):
    # a criterion-9 shaped request: N1, N2, N3 realized fresh, then every
    # hom of Hom(N1, N3) and Hom(N2, N3) asked whether it is onto
    ranked = []
    rank_mod_p = oracle._rank_mod_p

    def counting(rows, p):
        ranked.append(tuple(x % p for row in rows for x in row))
        return rank_mod_p(rows, p)

    monkeypatch.setattr(oracle, "_rank_mod_p", counting)
    e = _idems((2,), 2)[1]
    N1, N2, N3 = (oracle.realize(e, ModuleType(2, lam)) for lam in [(2, 1), (2, 2), (1, 1)])
    homs = oracle.enumerate_module_homs(N1, N3) + oracle.enumerate_module_homs(N2, N3)
    answers = [h.is_surjective() for h in homs]
    residues = {tuple(x % 2 for row in h.matrix for x in row) for h in homs}
    assert len(ranked) == len(set(ranked)) == len(residues) < len(homs)
    assert set(ranked) == residues
    assert answers == [rank_mod_p(h.matrix, 2) == len(N3.orders) for h in homs]
    assert set(answers) == {True, False}
    # the memo lives on the target, which `realize` keeps: asked again,
    # it returns N3 with the rank of every residue matrix kept
    assert oracle.realize(e, ModuleType(2, (1, 1))) is N3
    assert N3._residue_ranks.keys() == set(ranked)



def test_subgroup_size_matches_span():
    # |<gens>| off the echelon of `_coset_elements`, for mixed orders that
    # are powers of p = 2 or 3, with no generators, zero vectors and
    # multiples of the orders among them
    rng = random.Random(2)
    shapes = [(), (2,), (8, 2), (4, 4, 2), (2, 8, 4, 2), (3,), (9, 3), (27, 9, 3), (3, 3, 9)]
    for mods in shapes:
        zero = (0,) * len(mods)
        for trial in range(12):
            gens = [[rng.randrange(-30, 30) * rng.choice([0, 1, 1, 2, 3]) for _ in mods]
                    for _ in range(rng.randint(0, 4))]
            if trial % 3 == 1:
                gens.insert(rng.randint(0, len(gens)), [0] * len(mods))
            if trial % 3 == 2:
                gens.append([rng.randint(-2, 2) * m for m in mods])
            span = closure([zero], lambda x: [tuple((a + b) % m for a, b, m in zip(x, g, mods)) for g in gens])
            assert oracle.subgroup_size(mods, gens) == len(span)


def test_mat_pow_equals_chained_products(monkeypatch):
    # A^n from the top bit down, with no product by I, is the residue of n
    # chained products: on every action matrix of the small modules, and
    # on every matrix realize raises to a power (its ring's y, z and
    # uniformizer matrices, and the actions of the quotients it builds)
    cases = [(A, M.orders) for mods in _small_modules() for M in mods for A in M.actions]
    small = len(cases)
    mat_pow = oracle._mat_pow
    monkeypatch.setattr(oracle, "_mat_pow", lambda A, n, orders: cases.append((A, orders)) or mat_pow(A, n, orders))
    for facs, p, lam in [((2,), 2, (2, 1)), ((3,), 2, (2,)), ((4,), 2, (3,)), ((6,), 2, (2,)),
                         ((5,), 2, (1,)), ((3,), 3, (3,)), ((5,), 3, (1,))]:
        for e in _idems(facs, p):
            oracle.realize(e, ModuleType(e.Q, lam))
    monkeypatch.undo()
    # f = 4 at p = 2 over Z/5: a 4 x 4 ring matrix
    assert len(cases) > small and any(len(orders) == 4 and len(set(orders)) == 1 for _, orders in cases[small:])
    for A, orders in cases:
        R = linalg.identity_matrix(len(orders))
        for n in range(10):
            assert oracle._mat_pow(A, n, orders) == R
            R = oracle._mat_mat(R, A, orders)


def _iso_type_from_identity(M, e):
    # iso_type from the 𝔪-filtration chained from the identity: P = I·π, I·π·π, ...
    pi = oracle.uniformizer_matrix(M, e)
    k = len(M.orders)
    sizes, P = [M.size], linalg.identity_matrix(k)
    while sizes[-1] > 1:
        P = oracle._mat_mat(P, pi, M.orders)
        sizes.append(oracle.subgroup_size(M.orders, [[P[i][j] for i in range(k)] for j in range(k)]))
        if len(sizes) > 64:
            raise ValueError("not annihilated by a power of the maximal ideal")
    conj = [int_log(prev // cur, e.Q) for prev, cur in zip(sizes, sizes[1:])]
    return ModuleType(e.Q, ModuleType(e.Q, conj).conjugate())


def test_action_norm_and_filtration_equal_chained_products_from_identity():
    # action_of, endo_norm and iso_type start from A, not from I·A; each
    # equals the product chained from the identity, on the small modules
    # under every idempotent of their Γ and on realize outputs
    pairs = [(M, e) for facs, mods in zip([(3,), (4,), (2, 2)], _small_modules())
             for M in mods for e in _idems(facs, 2)]
    for facs, p, lam in [((2,), 2, (2, 1)), ((4,), 2, (3, 1)), ((3,), 3, (2,)), ((5,), 2, (1,)), ((2, 2), 2, (2,))]:
        pairs += [(oracle.realize(e, ModuleType(e.Q, lam)), e) for e in _idems(facs, p)]
    typed = 0
    for M, e in pairs:
        k = len(M.orders)
        for g in M.group.elements():
            A = linalg.identity_matrix(k)
            for B, a in zip(M.actions, g):
                for _ in range(a):
                    A = oracle._mat_mat(A, B, M.orders)
            assert M.action_of(g) == A
            P, S = linalg.identity_matrix(k), [[0] * k for _ in range(k)]
            for _ in range(M.group.element_order(g)):
                P = oracle._mat_mat(P, A, M.orders)
                S = [[(a + b) % o for a, b in zip(rs, rp)] for rs, rp, o in zip(S, P, M.orders)]
            assert M.endo_norm(g) == S
        try:
            expected = _iso_type_from_identity(M, e)
        except ValueError:
            with pytest.raises(ValueError):
                oracle.iso_type(M, e)
            continue
        assert oracle.iso_type(M, e) == expected
        typed += 1
    assert typed > 20


def _fiber_key(res):
    mods = (res.common_quotient, res.fiber_product, res.boxtimes)
    return [(M.orders, M.actions) for M in mods], res.to_common_1.matrix, res.to_common_2.matrix


def test_fiber_tools_memos_compute_once_per_module_and_per_pi2(monkeypatch):
    # a criterion-9 shaped request: fiber_tools on the first 2 x 2 pairs
    # of surjections onto N3, then the residue rank of each ⊠; then the
    # same request again on a new listing of the maps
    e = _idems((2,), 2)[1]
    N1, N2, N3 = (oracle.realize(e, ModuleType(2, lam)) for lam in [(2, 1), (2, 2), (1, 1)])

    def listing():
        return ([f for f in oracle.enumerate_module_homs(N, N3) if f.is_surjective()][:2]
                for N in (N1, N2))

    surs1, surs2 = listing()
    assert len(surs1) == len(surs2) == 2
    assert N1._residue_rank_by_idempotent == {} and N2._fiber_towers == {}
    asks, sized, inside, submodules, quotients = [], [], [], [], []
    residue_rank, subgroup_size = oracle.residue_rank, oracle.subgroup_size
    gamma_submodules, module_quotient = oracle.gamma_submodules, oracle.module_quotient

    def counting_rank(M, e):
        asks.append((id(M), e))
        inside.append(asks[-1])
        try:
            return residue_rank(M, e)
        finally:
            inside.pop()

    def counting_size(orders, gens):
        if inside:
            sized.append(inside[-1])
        return subgroup_size(orders, gens)

    def counting_submodules(H, inside=None):
        submodules.append(gamma_submodules(H, inside))
        return submodules[-1]

    def counting_quotient(H, U):
        quotients.append(U)
        return module_quotient(H, U)

    systems, hom_solver = [], oracle._hom_solver

    def counting_solver(src, dst, g=None):
        systems.append((src, dst))
        return hom_solver(src, dst, g)

    def run(pairs):
        results = [oracle.fiber_tools(e, pi1, pi2) for pi1, pi2 in pairs]
        return results, [oracle.residue_rank(res.boxtimes, e) for res in results]

    def scanned(pairs):
        # the lift systems each pair's answer needs: one per step of its
        # π₂'s tower, up to and including the step of the answer's q₂
        out = []
        for pi1, pi2 in pairs:
            steps, answers = N2._fiber_towers[pi2.dst, pi2.matrix]
            q2, _ = answers[N1, pi1.matrix]
            at = next(i for i, (q, _) in enumerate(steps) if q is q2)
            out += [(N1, q.dst) for q, _ in steps[:at + 1]]
        return out

    monkeypatch.setattr(oracle, "residue_rank", counting_rank)
    monkeypatch.setattr(oracle, "subgroup_size", counting_size)
    monkeypatch.setattr(oracle, "gamma_submodules", counting_submodules)
    monkeypatch.setattr(oracle, "module_quotient", counting_quotient)
    monkeypatch.setattr(oracle, "_hom_solver", counting_solver)
    pairs = list(itertools.product(surs1, surs2))
    results, ranks = run(pairs)
    # N1, N2 and N3 are asked 4 times each and every ⊠ once: one
    # subgroup_size per (module, idempotent)
    assert len(asks) == 16
    assert len(sized) == len(set(sized)) == len(set(asks)) == 7
    # ker π₂'s submodules and their quotients are built once per π₂
    assert len(submodules) == len(surs2)
    assert quotients == [U for subs in submodules for U in subs]
    # and each π₁ from N₁ solves the lift systems of N₂/U in tower order,
    # up to its least factoring U and no further
    assert systems == scanned(pairs) and all(src is N1 for src, _ in systems)
    assert len(systems) == 12 < len(surs1) * len(quotients) == 20

    # a new listing: new map objects with the same matrices find N₂'s
    # towers and their answers, and build no quotient and no lift system
    surs1_again, surs2_again = listing()
    assert all(f is not g and f == g for f, g in zip(surs1 + surs2, surs1_again + surs2_again))
    asks.clear(), sized.clear(), submodules.clear(), quotients.clear(), systems.clear()
    again, ranks_again = run(itertools.product(surs1_again, surs2_again))
    assert submodules == quotients == systems == []
    # only the four new ⊠ are ranked; N1, N2 and N3 kept theirs
    assert len(asks) == 16 and len(sized) == len(set(sized)) == 4
    assert ranks_again == ranks
    for res, res_again in zip(results, again):
        assert _fiber_key(res_again) == _fiber_key(res)
        assert res_again.to_common_1 is res.to_common_1 and res_again.to_common_2 is res.to_common_2
    assert [dst for dst, _ in N2._fiber_towers] == [N3, N3]

    # the kept answers equal fresh ones: with N₂'s towers emptied, the
    # same pairs build every quotient and lift system again
    N2._fiber_towers.clear()
    submodules.clear(), quotients.clear(), systems.clear()
    fresh, ranks_fresh = run(pairs)
    monkeypatch.undo()
    assert len(submodules) == len(surs2) and systems == scanned(pairs)
    assert len(systems) == 12
    assert ranks_fresh == ranks
    for res, res_fresh in zip(results, fresh):
        assert res_fresh.to_common_2 is not res.to_common_2
        assert _fiber_key(res_fresh) == _fiber_key(res)
    # the memos live on their module, which `realize` keeps
    assert N3._residue_rank_by_idempotent == {e: 2}
    assert oracle.realize(e, ModuleType(2, (1, 1))) is N3


def _fiber_answers(e, pi1, pi2):
    """The sizes of N₂/U*, the fiber product and ⊠, ⊠'s type and residue
    rank, and `_fiber_key`: the three modules and the matrices of ψ and q₂."""
    res = oracle.fiber_tools(e, pi1, pi2)
    return ([M.size for M in (res.common_quotient, res.fiber_product, res.boxtimes)],
            oracle.iso_type(res.boxtimes, e), oracle.residue_rank(res.boxtimes, e), _fiber_key(res))


def test_fiber_tools_takes_maps_whose_matrix_is_a_list():
    # the same answers for list-of-lists copies of π₁ and π₂, whose
    # matrices key N₂'s towers and their answers as tuples of row tuples
    e = _idems((2,), 2)[1]
    N1, N2, N3 = (oracle.realize(e, ModuleType(2, lam)) for lam in [(2, 1), (2, 2), (1, 1)])
    surs1, surs2 = ([f for f in oracle.enumerate_module_homs(N, N3) if f.is_surjective()][:2]
                    for N in (N1, N2))

    def as_lists(f):
        return oracle.ModuleHom(f.src, f.dst, [list(row) for row in f.matrix])

    for pi1, pi2 in itertools.product(surs1, surs2):
        expect = _fiber_answers(e, pi1, pi2)
        assert _fiber_answers(e, as_lists(pi1), as_lists(pi2)) == expect
        assert _fiber_answers(e, as_lists(pi1), pi2) == expect
        N2._fiber_towers.clear()  # list maps that build the tower themselves
        assert _fiber_answers(e, as_lists(pi1), as_lists(pi2)) == expect


def test_kept_fiber_towers_match_fresh_ones():
    # every fiber shape of the benchmark pool, on the first 2 x 2
    # surjections onto N3: answers through N₂'s kept towers equal those
    # computed after its towers are emptied
    pool = json.loads((Path(__file__).resolve().parents[1] / "dvrbench" / "catalog.json").read_text())["pool"]
    idems = _idems((2,), 2)
    compared = 0
    for ei, l1, l2, l3 in (e for kind, e in pool if kind == "fiber"):
        e = idems[ei]
        N1, N2, N3 = (oracle.realize(e, ModuleType(2, tuple(lam))) for lam in (l1, l2, l3))
        surs1, surs2 = ([f for f in oracle.enumerate_module_homs(N, N3) if f.is_surjective()][:2]
                        for N in (N1, N2))
        for pi1, pi2 in itertools.product(surs1, surs2):
            _fiber_answers(e, pi1, pi2)  # builds or finds the tower and this π₁'s answer
            kept = _fiber_answers(e, pi1, pi2)
            assert N2._fiber_towers
            N2._fiber_towers.clear()
            assert _fiber_answers(e, pi1, pi2) == kept, (ei, l1, l2, l3)
            compared += 1
    assert compared == 168  # the pairs of one pass over the pool's fiber requests


def test_least_factoring_submodule_is_the_intersection_of_all():
    # the slow path of `fiber_tools`' scan: on every fiber pair of the
    # pool, decide for each Γ-submodule U ⊆ ker π₂ from a fresh lift
    # system whether π₁ lifts onto N₂/U; the factoring U are closed under
    # intersection, and the common quotient is N₂/U* for U* their
    # intersection, with ψ the first surjective lift onto it
    pool = json.loads((Path(__file__).resolve().parents[1] / "dvrbench" / "catalog.json").read_text())["pool"]
    idems = _idems((2,), 2)
    checked = proper = 0
    for ei, l1, l2, l3 in (e for kind, e in pool if kind == "fiber"):
        e = idems[ei]
        N1, N2, N3 = (oracle.realize(e, ModuleType(2, tuple(lam))) for lam in (l1, l2, l3))
        surs1, surs2 = ([f for f in oracle.enumerate_module_homs(N, N3) if f.is_surjective()][:2]
                        for N in (N1, N2))
        for pi1, pi2 in itertools.product(surs1, surs2):
            factoring = {}
            for U in oracle.gamma_submodules(N2, pi2.kernel()):
                quo, proj, lift = oracle.module_quotient(N2, U)
                P = oracle.ModuleHom(quo, N3, oracle._mat_mat(pi2.matrix, lift, N3.orders))
                lifts = (oracle.ModuleHom(N1, quo, T) for T in oracle._hom_solver(N1, quo, P)(pi1))
                psi = next((h for h in lifts if h.is_surjective()), None)
                if psi is not None:
                    factoring[frozenset(U)] = quo, proj, psi
            Ustar = frozenset.intersection(*factoring)
            assert Ustar in factoring, (ei, l1, l2, l3)
            quo, proj, psi = factoring[Ustar]
            res = oracle.fiber_tools(e, pi1, pi2)
            assert res.to_common_2.kernel() == Ustar
            assert res.to_common_2.matrix == proj and res.to_common_1.matrix == psi.matrix
            assert (res.common_quotient.orders, res.common_quotient.actions) == (quo.orders, quo.actions)
            checked += 1
            proper += len(factoring) > 1
    assert checked == 168 and proper > 0


def test_module_automorphisms_match_brute_force():
    for mods in _small_modules():
        for H in mods:
            brute, _ = _brute_homs(H, H)
            auts = {T for T in brute
                    if len({oracle.ModuleHom(H, H, T).apply(x) for x in H.elements()}) == H.size}
            assert set(oracle.module_automorphisms(H)) == auts
            assert _generated_group(oracle.automorphism_generators(H), H.orders) == _keys(auts, H.orders)


def _catalog_modules(max_size=64):
    # the criterion-5 catalog: Γ in {Z/2, Z/3, Z/4}, p in {2, 3}, every
    # idempotent, |H| <= max_size
    for facs in [(2,), (3,), (4,)]:
        for p in (2, 3):
            for e in _idems(facs, p):
                for s in itertools.count(1):
                    if e.Q ** s > max_size:
                        break
                    for lam in partitions_of(s):
                        yield e, lam, oracle.realize(e, ModuleType(e.Q, lam))


def test_realize_keeps_one_module_per_type(monkeypatch):
    # equal (e, λ) give the same module, whichever equal copy of e asks;
    # another type or idempotent gives another module
    e = _idems((2,), 2)[1]
    again = dataclasses.replace(e)
    assert again == e and again is not e
    H = oracle.realize(e, ModuleType(2, (2, 1)))
    assert oracle.realize(again, ModuleType(2, (1, 2))) is H
    assert oracle.realize(e, ModuleType(2, (2,))) is not H
    assert oracle.realize(_idems((2,), 2)[0], ModuleType(2, (2, 1))) is not H
    kept = oracle._realize_cached.cache_info().currsize
    # a refused request is not kept, and is refused again
    f4 = next(e for e in _idems((3,), 2) if not e.is_trivial)
    for _ in range(2):
        with pytest.raises(ValueError, match="Q = 2 but the idempotent has Q = 4"):
            oracle.realize(f4, ModuleType(2, (1,)))
    # nor is a build that fails; the next request builds the module anew
    def failing(M, e):
        raise ValueError("round trip failed")

    monkeypatch.setattr(oracle, "iso_type", failing)
    with pytest.raises(ValueError, match="round trip failed"):
        oracle.realize(e, ModuleType(2, (3,)))
    assert oracle._realize_cached.cache_info().currsize == kept
    monkeypatch.undo()
    assert oracle.iso_type(oracle.realize(e, ModuleType(2, (3,))), e) == ModuleType(2, (3,))
    assert oracle._realize_cached.cache_info().currsize == kept + 1


def test_kept_realization_matches_a_fresh_build_on_catalog():
    # after its memos are filled, the kept module still has the orders,
    # actions and blocks of an uncached build, and round-trips
    build = oracle._realize_cached.__wrapped__
    for e, lam, H in _catalog_modules():
        M = ModuleType(e.Q, lam)
        oracle.residue_rank(H, e)
        for g in H.group.elements():
            H.action_of(g)
        assert oracle.realize(e, M) is H
        fresh = build(e, M)
        assert fresh is not H
        assert (H.orders, H.actions, H.blocks) == (fresh.orders, fresh.actions, fresh.blocks)
        assert oracle.iso_type(H, e) == M


def _additive_span(mats, zero, orders):
    return closure([zero], lambda X: [tuple(tuple((a + b) % o for a, b in zip(x, y))
                                            for x, y, o in zip(X, Y, orders)) for Y in mats])


def test_automorphism_generators_keep_only_what_generates_more():
    # each summand's units, then each block's transvections 1 + φ: a
    # unit (a φ) is kept exactly when the units (the φ) kept before it,
    # in the brute-force sweep's order, do not generate (add up to) it,
    # and those kept generate all units (all of Hom_Γ(S_j, S_i))
    kept = listed = 0
    for _, _, H in _catalog_modules(max_size=16):
        k = len(H.orders)
        parts = [oracle.ExplicitModule(H.p, H.orders[a:b], H.group,
                                       [[row[a:b] for row in A[a:b]] for A in H.actions])
                 for a, b in H.blocks]
        order = [(i, i) for i in range(len(parts))] + list(itertools.permutations(range(len(parts)), 2))

        def block(T, i, j):
            (a, b), (c, d) = H.blocks[i], H.blocks[j]
            return tuple(tuple(row[c:d]) for row in T[a:b])

        idm = linalg.identity_matrix(k)
        gens = oracle.automorphism_generators(H)
        where = []
        for T in gens:
            (w,) = [ij for ij in order if block(T, *ij) != block(idm, *ij)]
            where.append(w)
        assert where == sorted(where, key=order.index)
        for i, j in order:
            Si, Sj = parts[i], parts[j]
            X = [block(T, i, j) for T, w in zip(gens, where) if w == (i, j)]
            brute = _brute_homs(Sj, Si)[0]
            if i == j:
                brute = [T for T in brute
                         if len({oracle.ModuleHom(Si, Si, T).apply(x) for x in Si.elements()}) == Si.size]

                def span(mats):
                    return _generated_group(mats, Si.orders)

                def key(T):
                    return _keys([T], Si.orders).pop()
            else:
                def span(mats):
                    return _additive_span(mats, brute[0], Si.orders)

                def key(T):
                    return T
            for T in brute:
                before = [U for U in X if brute.index(U) < brute.index(T)]
                assert (T in X) == (key(T) not in span(before))
            assert span(X) == span(brute)
            kept += len(X)
            listed += len(brute) - (i == j)  # every unit but 1, every φ but 0
    assert 0 < kept < listed


def _orbits_under_every_automorphism(H, exts):
    """Slow path for cyclic Γ = <γ> of order n: the extensions, one per
    class of H², grouped by the Aut_Γ(H)-orbit of their class, acting
    with every element of `module_automorphisms(H)`.  H² ≅ H^Γ/N_γ·H,
    the class of E going to (0, γ)^n, and T ∈ Aut_Γ(H) acts on both
    sides through its action on H."""
    k, n, g = len(H.orders), H.group.order, (1,)
    mods, radix = np.array(H.orders), np.cumprod([1, *H.orders[:-1]])
    norm_image = np.array(sorted(H.image_set(H.endo_norm(g))))
    auts = np.array(oracle.module_automorphisms(H)).reshape(-1, k, k)

    def coset_keys(xs):  # the least key of x + N_γ·H, for each row x
        return ((xs[:, None, :] + norm_image[None]) % mods @ radix).min(axis=1)

    cs = np.array([E.power((H.zero(), g), n)[0] for E in exts])
    keys = coset_keys(cs)
    return {frozenset(np.flatnonzero(np.isin(keys, coset_keys(auts @ c % mods))).tolist()) for c in cs}


def test_extension_classes_match_refinement_by_every_automorphism():
    # on the criterion-5 catalog (all Γ cyclic), the classes refined by
    # the generating set are one per orbit of all of Aut_Γ(H); up to
    # |H| = 27 it holds the ramified Z/3 module O/π³ at p = 3, the one
    # whose orbits need a second unit of its summand
    refined = 0
    for _, _, H in _catalog_modules(max_size=27):
        exts = oracle.enumerate_extensions(H, refine=False)
        kept = [[G.cocycle for G in exts].index(G.cocycle) for G in oracle.enumerate_extensions(H)]
        orbits = _orbits_under_every_automorphism(H, exts)
        assert sorted(len(orbit & set(kept)) for orbit in orbits) == [1] * len(kept)
        refined += len(kept) < len(exts)
    assert refined > 0


def test_extension_classes_kept_per_module(monkeypatch):
    # a realized module keeps one validated group per class for each
    # value of refine; a second call solves no cocycle system, lists no
    # automorphism and validates no table again: it returns the same
    # groups in a new list
    e = next(e for e in _idems((2,), 2) if e.is_trivial)
    M = ModuleType(2, (2, 1))
    fine = oracle.enumerate_extensions(oracle.realize(e, M), refine=False)
    coarse = oracle.enumerate_extensions(oracle.realize(e, M))
    assert (len(fine), len(coarse)) == (4, 3)
    assert oracle.realize(e, M)._extension_groups == {False: fine, True: coarse}
    assert all(G.answers == {} for G in fine + coarse)

    def unsolved(*args):
        pytest.fail("extension classes solved again")

    validated = []
    validate = oracle.ExplicitGroup._validate
    monkeypatch.setattr(linalg, "kernel_mod", unsolved)
    monkeypatch.setattr(oracle, "automorphism_generators", unsolved)
    monkeypatch.setattr(oracle.ExplicitGroup, "_validate", lambda G: validated.append(G) or validate(G))
    for refine, first in [(False, fine), (True, coarse)]:
        again = oracle.enumerate_extensions(oracle.realize(e, M), refine)
        # groups compare by identity, so == checks each is the same object
        assert again == first and again is not oracle.realize(e, M)._extension_groups[refine]
    assert validated == []
    monkeypatch.undo()
    # a capped module keeps nothing
    for capped in [oracle.realize(e, ModuleType(2, (9,))),
                   oracle.realize(_idems((16,), 2)[0], ModuleType(2, (1,)))]:
        with pytest.raises(ValueError, match=oracle.EXT_CAP_MESSAGE):
            oracle.enumerate_extensions(capped)
        assert capped._extension_groups == {}


def test_realize_round_trips_parts_past_64():
    # the 𝔪-filtration of O/π^64 has 64 steps, and iso_type follows it to
    # the end: unramified (Z/2 at p = 2, both idempotents) and ramified
    # (Z/3 at p = 3, e_ram = 2)
    for facs, p in [((2,), 2), ((3,), 3)]:
        for e in _idems(facs, p):
            M = ModuleType(e.Q, (64,))
            assert oracle.iso_type(oracle.realize(e, M), e) == M


def test_module_automorphisms_cap_refuses_before_listing(monkeypatch):
    e = next(e for e in _idems((2,), 2) if e.is_trivial)
    H = oracle.realize(e, ModuleType(2, (1,) * 5))  # |End_Γ(H)| = 2^25 > HOM_ENUM_CAP
    coset_elements = oracle._coset_elements

    def unlisted(*args):
        # the first element listed fails the test, so a cap that lets
        # the listing start fails fast instead of running it
        size, elements = coset_elements(*args)
        return size, (pytest.fail("listed past the cap") for _ in elements)

    monkeypatch.setattr(oracle, "_coset_elements", unlisted)
    with pytest.raises(ValueError, match="Γ-hom enumeration too large"):
        oracle.module_automorphisms(H)
    # a module without blocks takes its generators from module_automorphisms,
    # so an `ext` of it with |End_Γ(H)| = 2^64 fails at the same check
    flat = oracle.ExplicitModule(2, (2,) * 8, FiniteAbelianGroup((2,)), [linalg.identity_matrix(8)])
    with pytest.raises(ValueError, match="Γ-hom enumeration too large"):
        oracle.enumerate_extensions(flat)
    # |End_Γ(H)| = 2^20 passed the old cap of 2^22 candidates and passes this one
    big = oracle.realize(e, ModuleType(2, (2, 2, 1, 1)))
    oracle._hom_matrices(big, big, cap=oracle.HOM_ENUM_CAP)


def test_coset_elements_match_sorted_span():
    # the echelon walk lists offset + <gens> in lexicographic order, for
    # moduli that are powers of one prime, with |<gens>| known up front
    rng = random.Random(0)
    shapes = [(4,), (8, 2), (4, 4), (2, 4, 8), (9, 3), (8, 4, 2), (4, 2, 4), (2, 2, 2, 2), (8, 8, 4)]
    for mods in shapes:
        zero = (0,) * len(mods)
        for _ in range(12):
            gens = [[rng.randrange(-20, 20) for _ in mods] for _ in range(rng.randint(0, 3))]
            offset = [rng.randrange(-20, 20) for _ in mods]

            def shift(x, g):
                return tuple((a + b) % m for a, b, m in zip(x, g, mods))

            span = closure([zero], lambda x: [shift(x, g) for g in gens])
            size, elements = oracle._coset_elements(offset, linalg.p_echelon(gens, mods), mods)
            assert size == len(span)
            assert list(elements) == sorted(shift(offset, x) for x in span)


def test_coset_listing_leaves_no_reference_cycle():
    # with automatic collection off, a listing that left a cycle behind
    # (a walk that refers to itself through a closure) shows up as
    # unreachable objects when the collector runs
    mods = [8, 4, 2]
    echelons = [linalg.p_echelon(gens, mods) for gens in ([[2, 0, 1]], [[1, 1, 0], [0, 2, 1]], [])]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for echelon in echelons:
            for offset in ([0, 0, 0], [3, 1, 1]):
                size, elements = oracle._coset_elements(offset, echelon, mods)
                assert len(list(elements)) == size
        del elements
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _order_coset_by_scan(G, gamma):
    # the scan of H that `_order_coset` replaced
    H = G.H
    norm = H.endo_norm(gamma)
    target = H.neg(G.power((H.zero(), gamma), G.G.element_order(gamma))[0])
    return {(h, gamma) for h in H.elements() if oracle._mat_apply(norm, h, H.orders) == target}


def test_order_coset_matches_scan_on_catalog():
    sizes = set()
    for _, _, H in _catalog_modules():
        nontriv = [g for g in H.group.elements() if any(g)]
        for E in oracle.enumerate_extensions(H, refine=False):
            for g in nontriv:
                c = oracle._order_coset(E, g)
                assert c == _order_coset_by_scan(E, g)
                sizes.add((len(c) == 0, len(c) == H.size))
    # empty cosets (nonsplit), whole-H cosets and proper cosets all occur
    assert sizes == {(True, False), (False, True), (False, False)}


def _radix(orders):
    # mixed-radix weights that key a matrix with rows read mod orders
    k = len(orders)
    assert math.prod(orders) ** k < 2**63
    return np.cumprod([1] + [o for o in orders for _ in range(k)][:-1])


def _keys(mats, orders):
    mats = list(mats)
    return set((np.array(mats).reshape(len(mats), -1) @ _radix(orders)).tolist())


def _generated_group(gens, orders):
    """Keys of the group the matrices gens generate (the trivial group
    when there are none): breadth-first by layers, each layer multiplied
    by every generator in one product."""
    k = len(orders)
    mods = np.array(orders).reshape(k, 1)
    radix = _radix(orders)
    gens = np.array(gens, dtype=np.int64).reshape(-1, k, k)
    layer = np.eye(k, dtype=np.int64)[None]
    seen = layer.reshape(1, -1) @ radix
    while len(layer):
        prods = (gens[:, None] @ layer[None] % mods).reshape(-1, k, k)
        keys, first = np.unique(prods.reshape(len(prods), k * k) @ radix, return_index=True)
        new = ~np.isin(keys, seen)
        layer, seen = prods[first[new]], np.concatenate([seen, keys[new]])
    return set(seen.tolist())


def test_module_automorphisms_count_aut_count():
    # the criterion-5 catalog, up to 2^16 candidate matrices per module
    # (an entry (i, j) of a candidate has gcd(o_j, o_i) values); the
    # automorphism generators of `realize`'s modules generate them all
    checked = 0
    for e, lam, H in _catalog_modules():
        if math.prod(math.gcd(a, b) for a in H.orders for b in H.orders) > 2**16:
            continue
        auts = oracle.module_automorphisms(H)
        assert len(auts) == aut_count(ModuleType(e.Q, lam))
        assert H.blocks is not None
        gens = oracle.automorphism_generators(H)
        assert _generated_group(gens, H.orders) == _keys(auts, H.orders)
        checked += 1
    assert checked == 166


def _walk_power(G, x, n):
    y = G.identity()
    for _ in range(n):
        y = G.mul(y, x)
    return y


def _walk_order(G, x):
    return next(n for n in range(1, G.size + 1) if _walk_power(G, x, n) == G.identity())


def test_explicit_group_closed_forms_match_walking():
    inversion = next(e for e in _idems((2,), 2) if not e.is_trivial)
    trivial = next(e for e in _idems((4,), 2) if e.is_trivial)
    acting = next(e for e in _idems((2, 2), 2) if not e.is_trivial)
    # dihedral and quaternion (Z/2 by Z/4), then Z/4 × Z/2 and Z/8 (Z/4 by Z/2),
    # then Z/2 × Z/2 by Z/4 with a nontrivial action and an element of order 8
    exts = (oracle.enumerate_extensions(oracle.realize(inversion, ModuleType(2, (2,))))
            + oracle.enumerate_extensions(oracle.realize(trivial, ModuleType(2, (1,))))
            + [next(G for G in oracle.enumerate_extensions(oracle.realize(acting, ModuleType(2, (2,))))
                    if any(G.element_order(x) == 8 for x in G.elements()))])
    assert sorted(max(G.element_order(x) for x in G.elements()) for G in exts) == [4, 4, 4, 8, 8]
    for G in exts:
        for x in G.elements():
            o = _walk_order(G, x)
            assert G.element_order(x) == o
            assert G.inv(x) == _walk_power(G, x, o - 1)
            assert all(G.power(x, n) == _walk_power(G, x, n) for n in range(2 * o + 1))


def _add_mul(G, x, y):
    # the group law from H.add and _mat_apply, one operation at a time
    H = G.H
    (h1, g1), (h2, g2) = x, y
    h = H.add(H.add(h1, oracle._mat_apply(H.action_of(g1), h2, H.orders)), G.cocycle[(g1, g2)])
    return h, G.G.add(g1, g2)


def _add_inv(G, x):
    H = G.H
    h, g = x
    gi = G.G.neg(g)
    return H.neg(oracle._mat_apply(H.action_of(gi), H.add(h, G.cocycle[(g, gi)]), H.orders)), gi


def _add_power(G, x, n):
    y = G.identity()
    while n:
        if n & 1:
            y = _add_mul(G, y, x)
        x = _add_mul(G, x, x)
        n >>= 1
    return y


def test_explicit_group_law_matches_add_formulas():
    # every extension (up to Aut_Γ(H)) of Z/2 (both idempotents), the
    # ramified Z/4 and Z/3 at Q = 4 by the realizations with |H| <= 16
    idems = _idems((2,), 2) + [_idems((4,), 2)[2], _idems((3,), 2)[1]]
    assert [(e.e_ram, e.Q) for e in idems[2:]] == [(2, 2), (1, 4)]
    checked = 0
    for e in idems:
        for lam in partitions_upto(4):
            if not lam or e.Q ** sum(lam) > 16:
                continue
            H = oracle.realize(e, ModuleType(e.Q, lam))
            for G in oracle.enumerate_extensions(H):
                els = list(G.elements())
                for x in els:
                    assert G.inv(x) == _add_inv(G, x)
                    assert all(G.power(x, n) == _add_power(G, x, n) for n in range(6))
                    assert all(G.mul(x, y) == _add_mul(G, x, y) for y in els)
                checked += 1
    assert checked > 20


def test_ext_solves_each_order_coset_once(monkeypatch):
    # Γ = (Z/2)^2 on Z/2 has 8 extension classes; `ext` asks each class for
    # c_γ at the 3 nonzero γ (conjugacy_stats) and at the 2 basis elements
    # (splitting_count); each ask solves N_γ once, inside that ask, and no
    # solve is kept for the next one
    from dvrstat import cli

    asks, solves, inside = [], [], []
    order_coset, congruence_kernel = oracle._order_coset, linalg.congruence_kernel

    def counting_coset(G, gamma):
        asks.append((id(G), gamma))
        inside.append(asks[-1])
        try:
            return order_coset(G, gamma)
        finally:
            inside.pop()

    def counting_kernel(*args):
        if inside:
            solves.append(inside[-1])
        return congruence_kernel(*args)

    monkeypatch.setattr(oracle, "_order_coset", counting_coset)
    monkeypatch.setattr(linalg, "congruence_kernel", counting_kernel)
    assert cli.main(["ext", "--gamma", "2,2", "--p", "2", "--index", "0", "--parts", "1"],
                    out=io.StringIO()) == 0
    assert len(asks) == 8 * 5
    assert solves == asks and len(solves) == 40
    assert len({gamma for _, gamma in solves}) == 3


def test_repeated_ext_is_answered_from_kept_classes(monkeypatch):
    # a second `ext` on the same module reads each class's (|c_γ|, d_γ)
    # and splitting count from what H kept: no order coset, no orbit, and
    # no group validated or multiplied in
    from dvrstat import cli

    requests = [["ext", "--gamma", g, "--p", "2", "--index", i, "--parts", parts]
                for g, i, parts in [("2,2", "0", "1"), ("4", "2", "2,1"), ("2", "1", "2")]]

    def stdout(argv):
        buf = io.StringIO()
        assert cli.main(argv, out=buf) == 0
        return buf.getvalue()

    first = [stdout(argv) for argv in requests]

    def asked(*args):
        pytest.fail("a kept answer computed again")

    monkeypatch.setattr(oracle, "orbits", asked)
    monkeypatch.setattr(oracle, "_order_coset", asked)
    monkeypatch.setattr(oracle.ExplicitGroup, "_validate", asked)
    monkeypatch.setattr(oracle.ExplicitGroup, "mul", asked)
    assert [stdout(argv) for argv in requests] == first


def test_kept_answers_match_fresh_computation_on_catalog():
    # for both values of refine, each kept class's answers equal those of
    # a group built afresh from its table, on a copy of H with no memos;
    # a kept group holds no table of its own beyond its cocycle and
    # answers, only the sum table that every extension of Γ shares
    differ = 0
    for _, _, H in _catalog_modules():
        nontriv = [g for g in H.group.elements() if any(g)]
        for refine in (False, True):
            for G in oracle.enumerate_extensions(H, refine):
                for g in nontriv:
                    oracle.conjugacy_stats(G, g)
                oracle.splitting_count(G)
            kept = H._extension_groups[refine]
            for G in kept:
                assert set(vars(G)) == {"H", "G", "cocycle", "answers", "_sum"}
                assert G.H is H and G.G is H.group and G._sum is oracle._sums(H.group)
                fresh = oracle.ExplicitGroup(oracle.ExplicitModule(H.p, H.orders, H.group, H.actions), G.cocycle)
                want = {g: oracle.conjugacy_stats(fresh, g) for g in nontriv}
                want["sections"] = oracle.splitting_count(fresh)
                assert G.answers == want
            differ += any(G.answers != kept[0].answers for G in kept)
    # classes of one module with different answers occur
    assert differ > 0


def test_realized_pairs_keep_their_hom_solver(monkeypatch):
    # a second listing of Hom_Γ(M, N) between realized modules, as the
    # fiber requests and CLI `oracle` make, solves no system again
    pairs = [(oracle.realize(e, ModuleType(2, a)), oracle.realize(e, ModuleType(2, b)))
             for e in _idems((2,), 2) for a, b in [((2, 1), (1, 1)), ((1, 1), (1, 1)), ((2,), (2, 1))]]
    first = [oracle.enumerate_module_homs(M, N) for M, N in pairs]
    counts = [oracle.brute_module_counts(M, N) for M, N in pairs]

    def solved(*args):
        pytest.fail("a kept Γ-hom system solved again")

    monkeypatch.setattr(linalg, "congruence_kernel", solved)
    assert [oracle.enumerate_module_homs(M, N) for M, N in pairs] == first
    assert [oracle.brute_module_counts(M, N) for M, N in pairs] == counts


def test_kept_hom_solvers_match_fresh_ones_on_catalog(monkeypatch):
    # on every pair of catalog modules over one Γ and p, the solver the
    # source keeps for the target, solved on a first listing that the cap
    # refuses, lists what a fresh solver lists, and still tests the cap
    by_group = {}
    for e, _, H in _catalog_modules(max_size=16):
        by_group.setdefault((e.group.invariant_factors, e.p), []).append(H)
    pairs = [pair for mods in by_group.values() for pair in itertools.product(mods, repeat=2)]
    for M, N in pairs:
        with pytest.raises(ValueError, match="Γ-hom enumeration too large"):
            oracle._hom_matrices(M, N, cap=0)
    fresh = oracle._hom_solver

    def solved(*args):
        pytest.fail("a kept Γ-hom system solved again")

    monkeypatch.setattr(oracle, "_hom_solver", solved)
    listed = capped = 0
    for M, N in pairs:
        try:
            want = list(fresh(M, N)(None, 2**12))
        except ValueError:
            # (Z/2)^4 → (Z/2)^4 and the like: refused before listing
            with pytest.raises(ValueError, match="Γ-hom enumeration too large"):
                oracle._hom_matrices(M, N, cap=2**12)
            capped += 1
            continue
        assert list(oracle._hom_matrices(M, N)) == want
        assert list(oracle._hom_matrices(M, N, cap=len(want))) == want
        with pytest.raises(ValueError, match="Γ-hom enumeration too large"):
            oracle._hom_matrices(M, N, cap=len(want) - 1)
        listed += 1
    assert listed > 300 and capped > 0
