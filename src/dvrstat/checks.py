"""Verification suites behind `dvrstat verify`: each suite runs a batch
of exact cross-checks between closed formulas and brute-force
computations and returns one result record per check.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import schur2
from .abelian import (
    FiniteAbelianGroup,
    int_log,
    small_abelian_groups,
    val_p,
    wedge_square_p_part,
)
from .dvrmod import ModuleType, gaussian_binomial, hom_count, ideal_ops, module_types, sur_count, weight
from .idempotents import (
    IdealPower,
    NORM_ANNIHILATES,
    ONE_MINUS_GAMMA_ANNIHILATES,
    enumerate_idempotents,
    gamma_annihilation,
    ramtype_qualifies,
    residue_module_key,
    threshold_ideal,
)
from .measure import _coker_valuations, make_rng, measure, moment_truncated, sample, z_bracket
from . import oracle


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


class _Recorder:
    def __init__(self, suite):
        self.suite = suite
        self.results = []

    def check(self, name, ok, detail=""):
        self.results.append(CheckResult(self.suite, name, bool(ok), str(detail)))


# ---------------------------------------------------------------------------

def suite_rings():
    r = _Recorder("rings")
    groups = small_abelian_groups(36)
    primes = (2, 3, 5)

    ok = True
    bad = ""
    for G in groups:
        for p in primes:
            es = enumerate_idempotents(G, p)
            if sum(e.dimension for e in es) != G.order:
                ok, bad = False, f"{G} p={p}"
    r.check("dimension sum equals group order", ok, bad)

    ok = True
    for G in groups[:60]:
        for p in primes:
            for e in enumerate_idempotents(G, p):
                if len(e.orbit) != e.f * e.e_ram:
                    ok = False
    r.check("orbit size equals f * phi(p^k)", ok)

    ok = True
    for G in groups[:60]:
        for p in primes:
            es = enumerate_idempotents(G, p)
            seen = set()
            for e in es:
                seen |= set(e.orbit)
                if e.is_trivial and len(e.orbit) != 1:
                    ok = False
                for chi in e.orbit:
                    if G.char_order(chi) % p != 0 and G.char_pow(chi, p) not in e.orbit:
                        ok = False
            if len(seen) != G.order:
                ok = False
    r.check("orbits partition characters; trivial orbit singleton; "
            "chi^p stays in orbit away from p", ok)

    ok = True
    for G in groups:
        for p in primes:
            for e in enumerate_idempotents(G, p):
                whole = threshold_ideal(e).is_whole_ring
                if whole != (G.order % p != 0):
                    ok = False
    r.check("threshold ideal proper iff p divides the group order", ok)

    ok = True
    for G in groups:
        for p in primes:
            if G.order % p:
                continue
            for e in enumerate_idempotents(G, p):
                if e.is_trivial and threshold_ideal(e).d != val_p(G.exponent, p):
                    ok = False
    r.check("trivial idempotent threshold is the exponent of the p-part", ok)

    ok = True
    for G in groups[:60]:
        for p in primes:
            es = enumerate_idempotents(G, p)
            by_key = {}
            for e in es:
                by_key.setdefault(residue_module_key(e), []).append(e)
            Gp = G.p_part(p)
            n_cyc = len(Gp.cyclic_quotients())
            if any(len(v) != n_cyc for v in by_key.values()):
                ok = False
    r.check("idempotents per residue key = cyclic quotients of the p-part", ok)

    ok = True
    for G in groups[:40]:
        for p in primes:
            for e in enumerate_idempotents(G, p):
                for g in G.elements():
                    if not any(g):
                        continue
                    verdict = gamma_annihilation(e, g)
                    expect = (
                        ONE_MINUS_GAMMA_ANNIHILATES
                        if e.value_exponent(g) == 0
                        else NORM_ANNIHILATES
                    )
                    if verdict != expect:
                        ok = False
    r.check("exactly one of 1-gamma / norm annihilates, per character value", ok)

    ok = True
    for n, expect in [((2, 2), 4), ((4,), 3), ((2, 4), 6)]:
        G = FiniteAbelianGroup(n)
        if len(G.cyclic_quotients()) != expect:
            ok = False
    r.check("cyclic quotient counts on reference groups", ok)

    ok = True
    for G in [FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((3,))]:
        w = wedge_square_p_part(G, 2)
        expect = {(4,): 1, (2, 2): 2, (3,): 1}[G.invariant_factors]
        if w.order != expect:
            ok = False
    r.check("wedge square of the 2-part on reference groups", ok)

    ok = True
    for G in groups[:40]:
        for p in primes:
            for e in enumerate_idempotents(G, p):
                d_thr = threshold_ideal(e).d
                over = IdealPower(d_thr + 1)
                nontrivial = [g for g in G.elements() if any(g)]
                for g in nontrivial[:4]:
                    if ramtype_qualifies(e, over, [g], [g]):
                        ok = False
    r.check("no ramification type qualifies strictly beyond the threshold", ok)

    return r.results


def suite_modules():
    r = _Recorder("modules")

    ops = ideal_ops(ModuleType(2, (3, 1)), 2)
    r.check(
        "ideal operations on (3,1) at depth 2",
        ops.rank == 1
        and ops.image.parts == (1,)
        and ops.torsion.parts == (2, 1)
        and ops.closure.parts == (5, 3),
    )

    ok = True
    for Q in (2, 3):
        for M in module_types(Q, 4, 3):
            for d in range(0, 5):
                # M/IM's conjugate partition is the first d columns of λ's
                quotient = ModuleType(Q, ModuleType(Q, M.conjugate()[:d]).conjugate())
                if ideal_ops(M, d).torsion != quotient:
                    ok = False
    r.check("torsion and quotient at an ideal share a partition", ok)

    ok = True
    bad = ""
    for Q in (2, 3):
        for lam in [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]:
            for mu in [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]:
                h, s = oracle.brute_counts_plain(Q, lam, mu)
                M, N = ModuleType(Q, lam), ModuleType(Q, mu)
                if h != hom_count(M, N) or s != sur_count(M, N):
                    ok, bad = False, f"Q={Q} {lam}->{mu}"
    r.check("hom/sur formulas match the action-free oracle (spot range)", ok, bad)

    ok = True
    for Q in (2, 3):
        for M in module_types(Q, 3, 2):
            for H in module_types(Q, 3, 2):
                for d in range(0, 3):
                    if H.parts and H.parts[-1] <= d and d > 0:
                        continue
                    lhs = sur_count(M, H)
                    o = ideal_ops(M, d)
                    oH = ideal_ops(H, d)
                    rhs = weight(M, H, d) * sur_count(o.image, oH.image)
                    if lhs != rhs:
                        ok = False
    r.check("weight factorization of surjection counts", ok)

    ok = True
    for Q in (2, 3):
        # every hom factors through its image: summing Sur(M, T) over all
        # subgroups T of N must recover Hom(M, N)
        for mu in [(1,), (2,), (1, 1), (2, 1)]:
            G = FiniteAbelianGroup.from_orders([Q**b for b in mu])
            for lam in [(1,), (2,), (1, 1), (2, 1)]:
                M = ModuleType(Q, lam)
                total = 0
                for S in G.subgroups():
                    T = _subgroup_partition(G, S, Q)
                    total += sur_count(M, ModuleType(Q, T))
                if total != hom_count(M, ModuleType(Q, mu)):
                    ok = False
    r.check("sur-count recursion over submodule types recovers hom counts", ok)

    ok = gaussian_binomial(2, 1, 2) == 3 and gaussian_binomial(3, 1, 3) == 13 and gaussian_binomial(5, 0, 7) == 1
    r.check("gaussian binomial reference values", ok)

    return r.results


def _subgroup_partition(G, S, q):
    """Partition type of a subgroup S of the abelian q-group G, read off
    from the sizes of the q^j-torsion layers."""
    sizes = [1]
    j = 1
    while sizes[-1] < len(S):
        tor = sum(1 for x in S if all(c * q**j % d == 0 for c, d in zip(x, G.invariant_factors)))
        sizes.append(tor)
        j += 1
    conj = [int_log(b // a, q) for a, b in zip(sizes, sizes[1:])]
    return ModuleType(q, conj).conjugate()


def suite_groups():
    r = _Recorder("groups")
    G2 = FiniteAbelianGroup((2,))
    es = enumerate_idempotents(G2, 2)
    e_triv = next(e for e in es if e.is_trivial)
    e_sgn = next(e for e in es if not e.is_trivial)

    H4 = oracle.realize(e_sgn, ModuleType(2, (2,)))
    ab = oracle.ab_sets(H4, (1,))
    r.check(
        "inversion on Z/4: kernel/image reference sets",
        len(ab.a_minus) == 4 and ab.b_minus == frozenset({(0,), (2,)}) and ab.a_zero == frozenset({(0,), (2,)}),
    )

    Ht = oracle.realize(e_triv, ModuleType(2, (2,)))
    ab_t = oracle.ab_sets(Ht, (1,))
    r.check(
        "trivial action: 1-gamma vanishes, norm is multiplication by the order",
        len(ab_t.b_minus) == 1 and len(ab_t.a_plus) == 4 and len(ab_t.a_minus) == 2,
    )

    ok = True
    for e, Q in ((e_sgn, 2), (e_triv, 2)):
        for lam in [(1,), (2,), (2, 1), (3, 1)]:
            M = oracle.realize(e, ModuleType(Q, lam))
            if oracle.iso_type(M, e).parts != lam:
                ok = False
    r.check("realize/iso_type round trip", ok)

    ok = True
    split = oracle.ExplicitGroup.split(H4)
    c, d = oracle.conjugacy_stats(split, (1,))
    ab = oracle.ab_sets(H4, (1,))
    orb = oracle.gamma_orbit_count_on_quotient(H4, ab.a_minus, ab.b_minus)
    ok = c == len(ab.a_minus) and d == orb == 2
    r.check("split conjugacy statistics match the kernel/image quotient orbits", ok)

    exts = oracle.enumerate_extensions(oracle.realize(e_triv, ModuleType(2, (1,))))
    r.check("two extensions of Z/2 by Z/2", len(exts) == 2)
    r.check(
        "splitting counts on the reference extensions",
        oracle.splitting_count(exts[0]) == 2 and oracle.splitting_count(exts[1]) == 0,
    )
    exts4 = oracle.enumerate_extensions(H4)
    r.check("two extensions of Z/2 by Z/4 with inversion", len(exts4) == 2)
    r.check("splitting count |H| for the split inversion extension",
            oracle.splitting_count(exts4[0]) == 4)
    r.check("formula for automorphisms of the split extension",
            oracle.aut_extension_count(H4) == 4)

    e3t = next(e for e in enumerate_idempotents(FiniteAbelianGroup((3,)), 2) if e.is_trivial)
    r.check(
        "coprime orders give only the split extension",
        len(oracle.enumerate_extensions(oracle.realize(e3t, ModuleType(2, (1,))))) == 1,
    )

    # A-/B- quotient isomorphic to A0 and to H/(B- + B+), as modules
    ok = True
    for lam in [(1,), (2,), (2, 1)]:
        H = oracle.realize(e_sgn, ModuleType(2, lam))
        g = (1,)
        ab = oracle.ab_sets(H, g)
        a_minus, coords_of = oracle.module_from_subgroup(H, ab.a_minus)
        q1, _, _ = oracle.module_quotient(a_minus, {coords_of(x) for x in ab.b_minus})
        a0, _ = oracle.module_from_subgroup(H, ab.a_zero)
        bsum = oracle.subgroup_sum(H, ab.b_minus, ab.b_plus)
        q2, _, _ = oracle.module_quotient(H, bsum)
        t1 = oracle.iso_type(q1, e_sgn)
        t2 = oracle.iso_type(a0, e_sgn)
        t3 = oracle.iso_type(q2, e_sgn)
        if not (t1 == t2 == t3):
            ok = False
    r.check("kernel-mod-image quotient, deep kernel, and double-image quotient agree", ok)

    # fiber products
    N1 = oracle.realize(e_triv, ModuleType(2, (2,)))
    N3 = oracle.realize(e_triv, ModuleType(2, (1,)))
    pi = oracle.ModuleHom(N1, N3, ((1,),))
    res = oracle.fiber_tools(e_triv, pi, pi)
    r.check(
        "fiber product of equal quotients collapses to the bigger module",
        oracle.iso_type(res.common_quotient, e_triv).parts == (2,)
        and oracle.iso_type(res.boxtimes, e_triv).parts == (2,),
    )
    r.check(
        "rank of the reduced fiber product matches the base",
        oracle.residue_rank(res.boxtimes, e_triv) == oracle.residue_rank(N3, e_triv),
    )

    return r.results


def suite_schur():
    r = _Recorder("schur")

    cov = schur2.NilClass2Cover((2, 2))
    els = list(cov.elements())
    ok = all(
        cov.mul(cov.mul(a, b), c) == cov.mul(a, cov.mul(b, c))
        for a in els
        for b in els[::3]
        for c in els[::5]
    )
    r.check("cover associativity (spot-checked triples)", ok)

    ok = True
    for ds in [(1,), (2, 2), (3, 2), (2, 1)]:
        c = schur2.NilClass2Cover(ds)
        doubled = FiniteAbelianGroup.from_orders([2 ** (d - 1) for d in ds])
        wedge = wedge_square_p_part(doubled, 2)
        if c.kernel_size != wedge.order:
            ok = False
        for i, o in enumerate(c.orders):
            g = (tuple(1 if j == i else 0 for j in range(c.r)), c.kernel_zero())
            if c.element_order(g) != o:
                ok = False
    r.check("cover kernel is the wedge square of 2H; generator orders survive", ok)

    r.check(
        "squared lifts on reference inputs",
        schur2.NilClass2Cover((2, 2)).square_of_lift((1, 1)) == (1,)
        and schur2.NilClass2Cover((2, 2)).square_of_lift((0, 0)) == (0,)
        and schur2.NilClass2Cover((3,)).pair_mods == (),
    )

    reps = schur2.class_reps(cov)
    r.check(
        "lifting map on the four-class indicator vector",
        schur2.w_map(cov, 3, tuple(1 for _ in reps)) == (1,),
    )
    r.check(
        "power-solution counts in a Z/2 kernel",
        schur2.nr_pow(cov, 3, (0,)) == 2 and schur2.nr_pow(cov, 3, (1,)) == 0,
    )

    r.check("lattice sum for H=Z/2, n=4", schur2.b_exact((1,), 3, 4) == 3)
    ok = all(schur2.b_exact(ds, 3, n) == 0 for ds in [(1,), (2, 2)] for n in (3, 5, 7))
    r.check("odd-length vanishing", ok)

    ok = True
    for v, q in [(1, 3), (2, 5), (3, 9)]:
        img = set(schur2.w_image_multiset((2, 2), q, 6))
        if img != schur2.scaled_kernel((2, 2), v):
            ok = False
    r.check("image of the lifting map is the scaled kernel (even n >= 2^r)", ok)

    ok = True
    for q1, q2 in [(3, 11), (5, 13)]:
        f1 = schur2.w_image_multiset((2, 2), q1, 8)
        f2 = schur2.w_image_multiset((2, 2), q2, 8)
        if sorted(f1.values()) != sorted(f2.values()) or set(f1) != set(f2):
            ok = False
    r.check("images and fiber sizes depend only on the 2-adic valuation of q-1", ok)

    ok = True
    prev = None
    for n in range(8, 41, 4):
        fib = schur2.w_image_multiset((2, 2), 3, n)
        ratio = max(fib.values()) / min(fib.values())
        if prev is not None and ratio > prev + 1e-12:
            ok = False
        prev = ratio
    r.check("fiber-size ratio decreases monotonically toward 1", ok,
            f"ratio at n=40: {prev:.3f}")

    ok = True
    for ds in [(1,), (2,), (1, 1), (2, 1)]:
        for v, q in [(1, 3), (2, 5), (3, 9)]:
            rr = 2 ** len(ds)
            for n in range(rr, rr + 9, 2):
                if schur2.b_exact(ds, q, n) != schur2.b_closed(ds, v, n):
                    ok = False
    r.check("exact and closed lattice sums agree (trivial-kernel covers, all v)", ok)

    ok = True
    for ds in [(2, 2), (3, 2)]:
        for v, q in [(2, 5), (3, 9)]:
            for n in (4, 6, 8, 10, 12):
                if schur2.b_exact(ds, q, n) != schur2.b_closed(ds, v, n):
                    ok = False
    r.check("exact and closed lattice sums agree (nontrivial kernels, v >= 2)", ok)

    r.check(
        "weighted-moment ratio reference values",
        schur2.moment_ratio((2, 2), 1) == Fraction(1, 4)
        and schur2.moment_ratio((2, 2), 2) == Fraction(1, 2)
        and schur2.moment_ratio((3,), 2) == Fraction(1, 4),
    )

    ok = True
    for ds in [(1,), (2,), (1, 1), (2, 1)]:
        elem = tuple(1 for _ in ds)
        h2 = 1
        for d in ds:
            h2 *= 2 ** (d - 1)
        for v, q in [(1, 3), (2, 5), (3, 9)]:
            n = 2 ** len(ds) + 2
            lhs = Fraction(schur2.b_exact(ds, q, n), schur2.b_exact(elem, q, n)) / h2
            if lhs != schur2.moment_ratio(ds, v):
                ok = False
    r.check("assembled b-ratio reproduces the moment ratio (trivial-kernel covers)", ok)

    # conjugacy classes over the nontrivial coset biject with H/2H
    G2 = FiniteAbelianGroup((2,))
    e_sgn = next(e for e in enumerate_idempotents(G2, 2) if not e.is_trivial)
    ok = True
    for lam in [(1,), (2,), (2, 1)]:
        H = oracle.realize(e_sgn, ModuleType(2, lam))
        G = oracle.ExplicitGroup.split(H)
        coset = [(h, (1,)) for h in H.elements()]
        classes = set()
        allg = list(G.elements())
        for x in coset:
            classes.add(frozenset(G.conjugate(g, x) for g in allg))
        two_h = {H.smul(2, h) for h in H.elements()}
        if len(classes) != H.size // len(two_h):
            ok = False
    r.check("twisted conjugacy classes biject with H mod doubles", ok)

    return r.results


def suite_measure():
    r = _Recorder("measure")
    for Q in (2, 3, 4):
        zlo, zhi = z_bracket(Q)
        r.check(f"Z({Q}) bracket is positive and ordered", 0 < zlo <= zhi < 1)

    m0_lo, m0_hi = measure(ModuleType(2, ()))
    m1_lo, m1_hi = measure(ModuleType(2, (1,)))
    r.check(
        "measure ratio of the simple module to the zero module",
        m1_lo / m0_lo == Fraction(1, (2 - 1) * 2),
    )

    ok = True
    for Q in (2, 3):
        for lam in [(), (1,), (2,), (1, 1)]:
            V = ModuleType(Q, lam)
            br = moment_truncated(V, 10)
            target = Fraction(1, V.size)
            if not (br.lower <= target <= br.upper):
                ok = False
    r.check("moment brackets contain the reciprocal module size", ok)

    ok = True
    for Q in (2, 3):
        V = ModuleType(Q, (1,))
        prev = None
        for B in (6, 8, 10, 12):
            br = moment_truncated(V, B)
            if prev is not None and not (prev.lower <= br.lower and br.upper <= prev.upper):
                ok = False
            prev = br
        if prev.width >= Fraction(1, 100):
            ok = False
    r.check("moment brackets are nested and narrow", ok)

    ok = True
    for Q in (2, 3):
        prev = Fraction(0)
        for B in (2, 4, 6, 8):
            br = moment_truncated(ModuleType(Q, ()), B)
            mass = br.lower  # tail-free partial sum
            if not (prev <= mass <= 1):
                ok = False
            prev = mass
    r.check("truncated total mass is monotone and at most 1", ok)

    # exhaustive 1x2 cokernel enumeration at Q=2, prec=3
    import numpy as np

    pairs = np.array([[[[a], [b]]] for a in range(8) for b in range(8)])
    vals = _coker_valuations(pairs, 2, 3, (0, 1))
    r.check("exhaustive 1x2 cokernels over Z/8: unimodular fraction 3/4",
            Fraction(int((vals == 0).all(axis=1).sum()), len(pairs)) == Fraction(3, 4))

    seq1 = [sample(2, 3, 3, make_rng(7)).parts for _ in range(1)]
    rng = make_rng(7)
    seq2 = [sample(2, 3, 3, rng).parts]
    r.check("fixed seed reproduces the sample sequence", seq1 == seq2)

    outs = {sample(4, 2, 3, make_rng(s)).parts for s in range(20)}
    r.check("prime-power residue field sampler runs", len(outs) >= 1)

    return r.results


SUITES = {
    "rings": suite_rings,
    "modules": suite_modules,
    "groups": suite_groups,
    "schur": suite_schur,
    "measure": suite_measure,
}


def run_suites(names):
    results = []
    for n in names:
        results.extend(SUITES[n]())
    return results
