"""Concrete finite modules with group action and the brute-force ground
truth built on them: realizations of DVR-module types, kernel/image
submodules of 1−γ and the norm, conjugacy statistics in extensions,
2-cocycle extension enumeration, splitting counts, and fiber products.

Everything here favours transparency over speed; the closed formulas in
dvrmod are validated against these computations.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .abelian import FiniteAbelianGroup, closure, int_log, orbits, subgroup_lattice, tuple_order, val_p
from .dvrmod import ModuleType
from .idempotents import PrimitiveIdempotent
from . import linalg

MODULE_ENUM_CAP = 4096
GROUP_SCAN_CAP = 8192


# ---------------------------------------------------------------------------
# mixed-modulus matrix helpers

def _mat_apply(mat, v, orders):
    return tuple(sum(r * x for r, x in zip(row, v)) % o for row, o in zip(mat, orders))


def _mat_mat(A, B, orders):
    return [[x % o for x in row] for row, o in zip(linalg.mat_mul(A, B), orders)]


def _mat_pow(A, n, orders):
    R = linalg.identity_matrix(len(orders))
    B = [row[:] for row in A]
    while n:
        if n & 1:
            R = _mat_mat(R, B, orders)
        B = _mat_mat(B, B, orders)
        n >>= 1
    return R


def _mat_eq(A, B, orders):
    return all(
        (a - b) % o == 0 for ra, rb, o in zip(A, B, orders) for a, b in zip(ra, rb)
    )


class ExplicitModule:
    """A finite abelian p-group ∏ Z/p^{a_i} with an action of Γ given by
    one matrix per invariant-factor generator of Γ.

    Matrix entry (i, j) is read mod p^{a_i} and must be divisible by
    p^{max(a_i - a_j, 0)} so the induced map on mixed-modulus tuples is
    well defined.

    `blocks` lists the coordinate spans (start, stop) of rank-one
    summands O/π^λ over the DVR O of an idempotent.  `realize` records
    them; on any other module it is None.
    """

    def __init__(self, p, orders, group: FiniteAbelianGroup, actions, check=True):
        self.p = p
        self.orders = tuple(int(o) for o in orders)
        self.group = group
        self.actions = tuple(tuple(tuple(x % o for x in row) for row, o in zip(A, self.orders)) for A in actions)
        self.alphas = tuple(val_p(o, p) for o in self.orders)
        self._action_cache = {}
        self.blocks = None
        if check:
            self._validate()

    def _validate(self):
        k = len(self.orders)
        for o, a in zip(self.orders, self.alphas):
            if not (o == self.p**a and o >= 2):
                raise ValueError(f"orders must be powers of p = {self.p}, got {o}")
        if len(self.actions) != self.group.rank:
            raise ValueError(f"{len(self.actions)} action matrices for {self.group.rank} generators of Γ")
        for A in self.actions:
            if not (len(A) == k and all(len(r) == k for r in A)):
                raise ValueError(f"action matrices must be square of size {k}")
            for i in range(k):
                for j in range(k):
                    need = self.p ** max(self.alphas[i] - self.alphas[j], 0)
                    if A[i][j] % need:
                        raise ValueError(f"action matrix not well defined: entry ({i}, {j}) "
                                         f"is not divisible by {need}")
        for A, d in zip(self.actions, self.group.invariant_factors):
            if not _mat_eq(_mat_pow(A, d, self.orders), linalg.identity_matrix(k), self.orders):
                raise ValueError(f"action order does not divide the generator order {d}")
        for A, B in itertools.combinations(self.actions, 2):
            if not _mat_eq(_mat_mat(A, B, self.orders), _mat_mat(B, A, self.orders), self.orders):
                raise ValueError("action matrices do not commute")

    @property
    def size(self):
        out = 1
        for o in self.orders:
            out *= o
        return out

    def zero(self):
        return (0,) * len(self.orders)

    def elements(self):
        if self.size > MODULE_ENUM_CAP:
            raise ValueError("module too large to enumerate")
        return itertools.product(*(range(o) for o in self.orders))

    def add(self, x, y):
        return tuple((a + b) % o for a, b, o in zip(x, y, self.orders))

    def neg(self, x):
        return tuple((-a) % o for a, o in zip(x, self.orders))

    def smul(self, n, x):
        return tuple((n * a) % o for a, o in zip(x, self.orders))

    def element_order(self, x):
        return tuple_order(x, self.orders)

    def action_of(self, g):
        """Matrix of the action of the group element g (cached)."""
        hit = self._action_cache.get(g)
        if hit is not None:
            return hit
        k = len(self.orders)
        M = linalg.identity_matrix(k)
        for A, a in zip(self.actions, g):
            if a:
                M = _mat_mat(M, _mat_pow(A, a, self.orders), self.orders)
        self._action_cache[g] = M
        return M

    def act(self, g, x):
        return _mat_apply(self.action_of(g), x, self.orders)

    def endo_one_minus(self, g):
        A = self.action_of(g)
        k = len(self.orders)
        return [[(int(i == j) - A[i][j]) % self.orders[i] for j in range(k)] for i in range(k)]

    def endo_norm(self, g):
        """Σ_{j=1}^{|γ|} (action of γ)^j."""
        A = self.action_of(g)
        o = self.group.element_order(g)
        k = len(self.orders)
        S = [[0] * k for _ in range(k)]
        P = linalg.identity_matrix(k)
        for _ in range(o):
            P = _mat_mat(P, A, self.orders)
            S = [[(a + b) % m for a, b in zip(ra, rb)] for ra, rb, m in zip(S, P, self.orders)]
        return S

    def kernel_set(self, mat):
        z = self.zero()
        return frozenset(x for x in self.elements() if _mat_apply(mat, x, self.orders) == z)

    def image_set(self, mat):
        return frozenset(_mat_apply(mat, x, self.orders) for x in self.elements())


def zero_module(p, group):
    return ExplicitModule(p, (), group, [[] for _ in range(group.rank)])


def direct_sum(M1: ExplicitModule, M2: ExplicitModule):
    if M1.p != M2.p:
        raise ValueError(f"summands over p = {M1.p} and p = {M2.p}")
    if M1.group != M2.group:
        raise ValueError("summands carry actions of different groups")
    k1, k2 = len(M1.orders), len(M2.orders)
    actions = []
    for A, B in zip(M1.actions, M2.actions):
        k = k1 + k2
        C = [[0] * k for _ in range(k)]
        for i in range(k1):
            for j in range(k1):
                C[i][j] = A[i][j]
        for i in range(k2):
            for j in range(k2):
                C[k1 + i][k1 + j] = B[i][j]
        actions.append(C)
    return ExplicitModule(M1.p, M1.orders + M2.orders, M1.group, actions)


# ---------------------------------------------------------------------------
# realization of DVR-module types

def _cyclotomic(m):
    """Coefficient list of Φ_m via the product formula."""
    # (x^m - 1) / ∏_{d | m, d < m} Φ_d
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            sub = _cyclotomic(d)
            poly = _poly_div_exact(poly, sub)
    return poly


def _poly_div_exact(a, b):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for d in range(len(a) - len(b), -1, -1):
        c = a[d + len(b) - 1]
        assert c % b[-1] == 0
        q = c // b[-1]
        out[d] = q
        for i in range(len(b)):
            a[d + i] -= q * b[i]
    assert all(x == 0 for x in a)
    return out


def _unramified_factor(p, m_prime, f, N):
    """A monic degree-f factor of Φ_{m'} mod p^N (Hensel-lifted)."""
    assert m_prime > 1
    phi = _cyclotomic(m_prime)
    # every irreducible factor of Φ_{m'} mod p has degree f, so the first
    # monic degree-f divisor, in lexicographic order of (u_{f-1}, ..., u_0),
    # is one of them
    for high_first in itertools.product(range(p), repeat=f):
        u = list(high_first[::-1]) + [1]
        if not linalg.poly_divmod(phi, u, p)[1]:
            return linalg.hensel_lift_factor(phi, u, p, N)[0]
    raise AssertionError("no factor of the expected degree")


def _mult_matrix(reducer, mod, dim):
    """Matrix of multiplication by the class of y in (Z/mod)[y]/reducer."""
    # reducer monic of degree dim
    M = [[0] * dim for _ in range(dim)]
    for j in range(dim - 1):
        M[j + 1][j] = 1
    for i in range(dim):
        M[i][dim - 1] = (-reducer[i]) % mod
    return M


def realize(e: PrimitiveIdempotent, M: ModuleType, precision=None) -> ExplicitModule:
    """Build ⊕_i R/𝔪^{λ_i} for the DVR R attached to e, as an explicit
    module with transported Γ-action.  Round-trips with iso_type."""
    if M.Q != e.Q:
        raise ValueError(f"type has Q = {M.Q} but the idempotent has Q = {e.Q}")
    G, p = e.group, e.p
    lam = M.parts
    if not lam:
        return zero_module(p, G)
    N = precision if precision is not None else max(lam) + e.e_ram + 1
    if N < max(lam) + e.e_ram:
        raise ValueError(f"precision {N} is below max(λ) + e = {max(lam) + e.e_ram}")
    mod = p**N
    k, m_prime, f, e_ram = e.k, e.m_prime, e.f, e.e_ram
    D = e_ram * f
    # multiplication matrices for the ring on the basis y^a z^b
    if k >= 1:
        ram_red = _cyclotomic(p**k)
        Y1 = _mult_matrix(ram_red, mod, e_ram)
    else:
        Y1 = linalg.identity_matrix(1)
    if m_prime > 1:
        un_red = _unramified_factor(p, m_prime, f, N)
        Z1 = _mult_matrix(un_red, mod, f)
    else:
        Z1 = linalg.identity_matrix(1)
    # tensor: index (a, b) -> a * f + b
    W = [[0] * D for _ in range(D)]
    for a1 in range(e_ram):
        for b1 in range(f):
            for a2 in range(e_ram):
                for b2 in range(f):
                    W[a1 * f + b1][a2 * f + b2] = Y1[a1][a2] * Z1[b1][b2] % mod
    ring_orders = (mod,) * D
    n = e.char_order
    E = G.exponent
    # action of each Γ-generator: multiplication by the image root of unity
    gen_mats = []
    for i in range(G.rank):
        gvec = tuple(1 if j == i else 0 for j in range(G.rank))
        t = e.value_exponent(gvec)
        assert t % (E // n) == 0
        gen_mats.append(_mat_pow(W, t // (E // n), ring_orders))
    # uniformizer: p, or 1 - (generator)^{m'}
    if k == 0:
        pi_mat = [[p if i == j else 0 for j in range(D)] for i in range(D)]
    else:
        Wm = _mat_pow(W, m_prime, ring_orders)
        pi_mat = [[(int(i == j) - Wm[i][j]) % mod for j in range(D)] for i in range(D)]

    ring = ExplicitModule(p, ring_orders, G, gen_mats, check=False)
    summands = []
    for L in lam:
        piL = _mat_pow(pi_mat, L, ring_orders)
        summands.append(module_quotient(ring, zip(*piL))[0])
    out = summands[0]
    for s in summands[1:]:
        out = direct_sum(out, s)
    got = iso_type(out, e)
    assert got == M, f"realization round-trip failed: {got} != {M}"
    stops = list(itertools.accumulate(len(part.orders) for part in summands))
    out.blocks = tuple(zip([0] + stops[:-1], stops))
    return out


def uniformizer_matrix(M: ExplicitModule, e: PrimitiveIdempotent):
    """Action of the maximal-ideal generator on an e-typed module."""
    k = len(M.orders)
    if e.k == 0:
        return [[e.p if i == j else 0 for j in range(k)] for i in range(k)]
    gen = None
    for g in e.group.elements():
        if e.value_order(g) == e.char_order:
            gen = g
            break
    assert gen is not None
    return M.endo_one_minus(e.group.scalar_mul(e.m_prime, gen))


def subgroup_size(orders, gens):
    """Size of the subgroup of ⊕ Z/orders generated by the given vectors."""
    if not orders:
        return 1
    q_orders, _, _ = linalg.quotient_structure(list(orders), [list(g) for g in gens])
    quo = 1
    for o in q_orders:
        quo *= o
    total = 1
    for o in orders:
        total *= o
    return total // quo


def iso_type(M: ExplicitModule, e: PrimitiveIdempotent) -> ModuleType:
    """Partition type of an e-typed module, read off the 𝔪-filtration."""
    if M.size == 1:
        return ModuleType(e.Q, ())
    pi = uniformizer_matrix(M, e)
    k = len(M.orders)
    Q = e.Q
    sizes = [M.size]
    P = linalg.identity_matrix(k)
    while sizes[-1] > 1:
        P = _mat_mat(P, pi, M.orders)
        cols = [[P[i][j] for i in range(k)] for j in range(k)]
        sizes.append(subgroup_size(M.orders, cols))
        if len(sizes) > 64:
            raise ValueError("module is not annihilated by a power of the maximal ideal")
    conj = []
    for prev, cur in zip(sizes, sizes[1:]):
        ratio = prev // cur
        assert cur * ratio == prev
        conj.append(int_log(ratio, Q))
    assert all(a >= b for a, b in zip(conj, conj[1:])), "filtration not decreasing"
    return ModuleType(Q, ModuleType(Q, conj).conjugate())


def residue_rank(M: ExplicitModule, e: PrimitiveIdempotent) -> int:
    return len(iso_type(M, e).parts)


# ---------------------------------------------------------------------------
# kernels and images of 1−γ and the norm

@dataclass(frozen=True)
class ABSets:
    """Kernels/images of 1−γ and the norm on a module H."""

    a_zero: frozenset    # ker(1−γ) ∩ ker(norm)
    a_minus: frozenset   # ker(norm)
    a_plus: frozenset    # ker(1−γ)
    b_minus: frozenset   # im(1−γ)
    b_plus: frozenset    # im(norm)


def ab_sets(H: ExplicitModule, g) -> ABSets:
    one_minus = H.endo_one_minus(g)
    norm = H.endo_norm(g)
    a_plus = H.kernel_set(one_minus)
    a_minus = H.kernel_set(norm)
    return ABSets(
        a_zero=a_minus & a_plus,
        a_minus=a_minus,
        a_plus=a_plus,
        b_minus=H.image_set(one_minus),
        b_plus=H.image_set(norm),
    )


def subgroup_sum(H: ExplicitModule, S1, S2):
    return frozenset(H.add(x, y) for x in S1 for y in S2)


def gamma_orbit_count_on_quotient(H: ExplicitModule, num, den):
    """Number of Γ-orbits on the quotient group num/den (den ⊆ num ⊆ H,
    both Γ-stable)."""
    den = frozenset(den)

    def coset_key(x):
        return min(H.add(x, d) for d in den)

    cosets = {coset_key(x) for x in num}
    return len(orbits(cosets, lambda x: [coset_key(_mat_apply(A, x, H.orders)) for A in H.actions]))


# ---------------------------------------------------------------------------
# submodules and quotients as modules in their own right

def module_from_subgroup(H: ExplicitModule, subset):
    """The Γ-stable subgroup generated by `subset` as an ExplicitModule.

    `subset` may be the whole subgroup or any generating set of it; the
    SNFs here are sized by the number of generators, so a small
    generating set is much cheaper than all the elements.

    Returns (module, coords_of): coords_of maps an ambient element of
    the subgroup to its coordinates in the new module.
    """
    elems = sorted(subset)
    k = len(H.orders)
    if not any(any(x) for x in elems):
        def zero_coords(x):
            if any(x):
                raise ValueError(f"element {tuple(x)} not in the subgroup")
            return ()
        return zero_module(H.p, H.group), zero_coords
    Gmat = [[el[i] for el in elems] for i in range(k)]
    g = len(elems)
    # kernel lattice of w ↦ G w in ⊕ Z/orders, and preimages from the same SNF
    K0, solve = linalg.congruence_kernel(Gmat, H.orders, g)
    # orders are powers of p, so max(orders)·e_j lies in K0 and
    # Z^g / K0 = (Z/max(orders))^g / K0
    orders_s, proj_s, lift_s = linalg.quotient_structure([max(H.orders)] * g, K0)
    gens_amb = []
    for t in range(len(orders_s)):
        w = [lift_s[i][t] for i in range(g)]
        gens_amb.append(tuple(sum(Gmat[i][j] * w[j] for j in range(g)) % H.orders[i] for i in range(k)))

    def coords_of(x):
        w = solve(x)
        if w is None:
            raise ValueError(f"element {tuple(x)} not in the subgroup")
        return tuple(sum(proj_s[t][j] * w[j] for j in range(g)) % orders_s[t] for t in range(len(orders_s)))

    actions = []
    for A in H.actions:
        cols = [coords_of(_mat_apply(A, ga, H.orders)) for ga in gens_amb]
        actions.append([[cols[j][i2] for j in range(len(orders_s))] for i2 in range(len(orders_s))])
    sub = ExplicitModule(H.p, orders_s, H.group, actions)
    return sub, coords_of


def module_quotient(H: ExplicitModule, subgroup):
    """H / subgroup as an ExplicitModule; returns (module, project_fn)."""
    gens = [list(x) for x in subgroup]
    orders_q, proj, lift = linalg.quotient_structure(list(H.orders), gens)
    if not orders_q:
        Z = zero_module(H.p, H.group)
        return Z, (lambda x: ())

    def project(x):
        return tuple(sum(proj[t][i] * x[i] for i in range(len(H.orders))) % orders_q[t]
                     for t in range(len(orders_q)))

    actions = []
    for A in H.actions:
        big = linalg.mat_mul(proj, linalg.mat_mul(A, lift))
        actions.append([[x % o for x in row] for row, o in zip(big, orders_q)])
    quo = ExplicitModule(H.p, orders_q, H.group, actions)
    return quo, project


def gamma_submodules(H: ExplicitModule, inside=None):
    """All Γ-stable subgroups of H (optionally contained in `inside`)."""
    universe = frozenset(H.elements()) if inside is None else frozenset(inside)

    def span(gens):
        return closure([H.zero()], lambda x: [H.add(x, g) for g in gens]
                       + [_mat_apply(A, x, H.orders) for A in H.actions])

    return subgroup_lattice(universe, H.zero(), span, H.add)


# ---------------------------------------------------------------------------
# extensions of Γ by a module

class ExplicitGroup:
    """Extension of Γ by H given by a normalized 2-cocycle table.

    Elements are pairs (h, γ); (h1, γ1)(h2, γ2) = (h1 + γ1·h2 + f(γ1, γ2), γ1γ2).
    """

    def __init__(self, H: ExplicitModule, cocycle, check=True):
        self.H = H
        self.G = H.group
        self.cocycle = dict(cocycle)
        self._act = {g: H.action_of(g) for g in self.G.elements()}
        if check:
            self._validate()

    @classmethod
    def split(cls, H: ExplicitModule):
        z = H.zero()
        coc = {(a, b): z for a in H.group.elements() for b in H.group.elements()}
        return cls(H, coc, check=False)

    def _validate(self):
        G, H = self.G, self.H
        idg = G.identity()
        for a in G.elements():
            if self.cocycle[(idg, a)] != H.zero() or self.cocycle[(a, idg)] != H.zero():
                raise ValueError("cocycle is not normalized")
        for a in G.elements():
            for b in G.elements():
                for c in G.elements():
                    lhs = H.add(self.cocycle[(a, b)], self.cocycle[(G.add(a, b), c)])
                    rhs = H.add(_mat_apply(self._act[a], self.cocycle[(b, c)], H.orders),
                                self.cocycle[(a, G.add(b, c))])
                    if lhs != rhs:
                        raise ValueError("cocycle identity fails")

    @property
    def size(self):
        return self.H.size * self.G.order

    def elements(self):
        if self.size > GROUP_SCAN_CAP:
            raise ValueError("group too large to scan")
        return ((h, g) for g in self.G.elements() for h in self.H.elements())

    def identity(self):
        return (self.H.zero(), self.G.identity())

    def mul(self, x, y):
        h1, g1 = x
        h2, g2 = y
        h = self.H.add(self.H.add(h1, _mat_apply(self._act[g1], h2, self.H.orders)),
                       self.cocycle[(g1, g2)])
        return (h, self.G.add(g1, g2))

    def inv(self, x):
        # (h, γ)^{-1} = (−γ^{-1}·(h + f(γ, γ^{-1})), γ^{-1})
        h, g = x
        gi = self.G.neg(g)
        H = self.H
        return (H.neg(_mat_apply(self._act[gi], H.add(h, self.cocycle[(g, gi)]), H.orders)), gi)

    def element_order(self, x):
        # x^{|γ|} lies in H, where the group law is addition
        n = self.G.element_order(x[1])
        return n * self.H.element_order(self.power(x, n)[0])

    def power(self, x, n):
        y = self.identity()
        while n:
            if n & 1:
                y = self.mul(y, x)
            x = self.mul(x, x)
            n >>= 1
        return y

    def conjugate(self, g, x):
        # g x g^{-1}
        return self.mul(self.mul(g, x), self.inv(g))


def _order_coset(G: ExplicitGroup, gamma):
    """c_γ: the elements (h, γ) of G with the same order as γ.

    (h, γ)^{|γ|} = (N_γ·h + c, 1) with N_γ the norm and c = (0, γ)^{|γ|},
    so c_γ is the coset {h : N_γ·h = −c} of ker N_γ.
    """
    H = G.H
    norm = H.endo_norm(gamma)
    target = H.neg(G.power((H.zero(), gamma), G.G.element_order(gamma))[0])
    return {(h, gamma) for h in H.elements() if _mat_apply(norm, h, H.orders) == target}


def conjugacy_stats(G: ExplicitGroup, gamma):
    """(|c_γ|, d_γ): elements over γ with the same order as γ, and the
    number of conjugacy classes among them.

    c_γ comes from `_order_coset`, which `splitting_count` shares.
    Classes are orbit closures under conjugation by a generating set
    (basis vectors of H plus lifts of the Γ-generators), which agree with
    conjugacy under the full group.
    """
    H = G.H
    c = _order_coset(G, gamma)
    k = len(H.orders)
    gens = [(tuple(1 if t == i else 0 for t in range(k)), G.G.identity()) for i in range(k)]
    gens += [(H.zero(), tuple(1 if t == i else 0 for t in range(G.G.rank)))
             for i in range(G.G.rank)]
    pairs = [(g, G.inv(g)) for g in gens]
    classes = orbits(sorted(c), lambda y: [G.mul(G.mul(g, y), ginv) for g, ginv in pairs])
    assert all(cl <= c for cl in classes), "a conjugacy class leaves c_γ"
    return len(c), len(classes)


def enumerate_extensions(Gamma: FiniteAbelianGroup, H: ExplicitModule, refine=True):
    """All extensions of Γ by H up to isomorphisms fixing H pointwise and
    inducing the identity on Γ, then (with refine) further identified
    under module automorphisms of H.

    Returns a list of ExplicitGroup, the split one first.  refine=False
    gives one group per cohomology class, which is enough for invariants
    like conjugacy statistics or splitting counts; refine=True closes each
    class under `automorphism_generators(H)` acting on H², and keeps the
    least class of each orbit.  On a module built by `realize` ValueError
    comes only from the size cap (|Γ| > 8 or |H| > 256) and from a Γ that
    is not H's group; any other module (H.blocks is None) takes its
    generators from `module_automorphisms(H)`, whose 2^22 cap still applies.
    """
    if Gamma != H.group:
        raise ValueError("Γ is not the group acting on H")
    if Gamma.order > 8 or H.size > 256:
        raise ValueError("extension enumeration cap exceeded")
    k = len(H.orders)
    if k == 0:
        return [ExplicitGroup.split(H)]
    p = H.p
    alphas = H.alphas
    A_exp = max(alphas)
    L = p**A_exp
    Gs = [g for g in Gamma.elements() if any(g)]
    m = len(Gs)
    gidx = {g: t for t, g in enumerate(Gs)}
    nvar = m * m * k

    def vid(a, b, i):
        return (gidx[a] * m + gidx[b]) * k + i

    # action matrices rewritten in the scaled coordinates y_i = p^{A-α_i} x_i;
    # divisibility of the original entries makes every scaled entry integral
    scaled = {}
    for g in Gamma.elements():
        M = H.action_of(g)
        S = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                if alphas[j] >= alphas[i]:
                    S[i][j] = M[i][j] * p ** (alphas[j] - alphas[i]) % L
                else:
                    step = p ** (alphas[i] - alphas[j])
                    assert M[i][j] % step == 0
                    S[i][j] = M[i][j] // step % L
        scaled[g] = S

    idg = Gamma.identity()
    rows = []
    for a in Gs:
        for b in Gs:
            ab = Gamma.add(a, b)
            for c in Gs:
                bc = Gamma.add(b, c)
                Sa = scaled[a]
                for i in range(k):
                    row = [0] * nvar
                    row[vid(a, b, i)] += 1
                    if ab != idg:
                        row[vid(ab, c, i)] += 1
                    if bc != idg:
                        row[vid(a, bc, i)] -= 1
                    for j in range(k):
                        if Sa[i][j]:
                            row[vid(b, c, j)] -= Sa[i][j]
                    rows.append(row)
    for a in Gs:
        for b in Gs:
            for i in range(k):
                row = [0] * nvar
                row[vid(a, b, i)] = p ** alphas[i]
                rows.append(row)
    Kgens, Korders, Kcoords = linalg.kernel_mod(rows, L, nvar)

    def scale_cocycle(coc):
        y = [0] * nvar
        for a in Gs:
            for b in Gs:
                h = coc[(a, b)]
                for i in range(k):
                    y[vid(a, b, i)] = (h[i] * p ** (A_exp - alphas[i])) % L
        return y

    def unscale(y):
        coc = {}
        for a in Gamma.elements():
            coc[(idg, a)] = H.zero()
            coc[(a, idg)] = H.zero()
        for a in Gs:
            for b in Gs:
                h = []
                for i in range(k):
                    v = y[vid(a, b, i)] % L
                    s = p ** (A_exp - alphas[i])
                    assert v % s == 0
                    h.append((v // s) % (p ** alphas[i]))
                coc[(a, b)] = tuple(h)
        return coc

    # coboundaries of the basis 1-cochains
    cob_rows = []
    for a0 in Gs:
        for i0 in range(k):
            coc = {}
            for u in Gs:
                for v in Gs:
                    h = [0] * k
                    if v == a0:  # u · c(v)
                        Mu = H.action_of(u)
                        for i in range(k):
                            h[i] = (h[i] + Mu[i][i0]) % H.orders[i]
                    if Gamma.add(u, v) == a0:
                        h[i0] = (h[i0] - 1) % H.orders[i0]
                    if u == a0:
                        h[i0] = (h[i0] + 1) % H.orders[i0]
                    coc[(u, v)] = tuple(h)
            cob_rows.append(list(Kcoords(scale_cocycle(coc))))
    h2_orders, h2_proj, h2_lift = linalg.quotient_structure(list(Korders), cob_rows)

    def class_of(coc):
        c = Kcoords(scale_cocycle(coc))
        return tuple(sum(h2_proj[t][j] * c[j] for j in range(len(Korders))) % h2_orders[t]
                     for t in range(len(h2_orders)))

    def rep_of(z):
        c = [sum(h2_lift[j][t] * z[t] for t in range(len(h2_orders))) % Korders[j]
             for j in range(len(Korders))]
        y = [0] * nvar
        for j, cj in enumerate(c):
            if cj:
                y = [(a + cj * b) % L for a, b in zip(y, Kgens[j])]
        return unscale(y)

    classes = list(itertools.product(*(range(o) for o in h2_orders)))
    if refine and len(classes) > 1:
        # Aut_Γ(H) acts linearly on H², so a generator acts through its
        # images of the basis classes, and an orbit is the closure of one
        # class under the generators
        n2 = len(h2_orders)
        basis = [rep_of(tuple(int(s == t) for s in range(n2))) for t in range(n2)]
        acts = {tuple(class_of({ab: _mat_apply(T, h, H.orders) for ab, h in coc.items()})
                      for coc in basis)
                for T in automorphism_generators(H)}
        def step(x):
            return [tuple(sum(im[s] * xt for im, xt in zip(images, x)) % o
                          for s, o in enumerate(h2_orders))
                    for images in acts]

        classes = [min(orbit) for orbit in orbits(classes, step)]
    out = [ExplicitGroup(H, rep_of(z)) for z in classes]
    z = H.zero()
    out.sort(key=lambda G: any(v != z for v in G.cocycle.values()))
    return out


def module_automorphisms(H: ExplicitModule):
    """All automorphisms of H commuting with the Γ-action, as matrices.

    A surjective endomorphism of a finite module is bijective, so these
    are the Γ-endomorphisms of full rank over F_p (Nakayama).
    """
    columns = _hom_candidate_columns(H, H)
    if math.prod(len(c) for c in columns) > 2**22:
        raise ValueError("automorphism enumeration too large")
    k = len(H.orders)
    return [T for T in _equivariant_matrices(H, H, columns) if _rank_mod_p(T, H.p) == k]


def automorphism_generators(H: ExplicitModule):
    """A generating set of Aut_Γ(H), as matrices.

    On a module from `realize`, H = ⊕_i O/π^{λ_i} with O = eZ_p[Γ] a
    quotient of Z_p[Γ], so Aut_Γ(H) = Aut_O(H).  That group is generated
    by the units of each summand and the transvections 1 + φ, φ a Γ-hom
    from summand j to summand i ≠ j (φ² = 0, so 1 − φ is the inverse).
    A summand's Γ-endomorphisms are multiplications by O, the additive
    span of Γ's action matrices.  On any other module the generating set
    is all of `module_automorphisms(H)`.
    """
    if H.blocks is None:
        return module_automorphisms(H)
    k = len(H.orders)
    parts = [ExplicitModule(H.p, H.orders[a:b], H.group,
                            [[row[a:b] for row in A[a:b]] for A in H.actions], check=False)
             for a, b in H.blocks]

    def embed(i, j, X):
        # the identity with block (i, j) replaced by X
        T = [list(row) for row in linalg.identity_matrix(k)]
        a, c = H.blocks[i][0], H.blocks[j][0]
        for r, row in enumerate(X):
            T[a + r][c:c + len(row)] = row
        return tuple(map(tuple, T))

    gens = []
    for i, S in enumerate(parts):
        ks = len(S.orders)
        zero = ((0,) * ks,) * ks
        mats = [S.action_of(g) for g in S.group.elements()]
        span = closure([zero], lambda T: [tuple(tuple((t + x) % o for t, x in zip(rt, ra))
                                                for rt, ra, o in zip(T, A, S.orders))
                                          for A in mats])
        gens += [embed(i, i, U) for U in span if _rank_mod_p(U, H.p) == ks]
    for (i, Si), (j, Sj) in itertools.permutations(enumerate(parts), 2):
        for phi in _equivariant_matrices(Sj, Si, _hom_candidate_columns(Sj, Si)):
            if any(map(any, phi)):
                gens.append(embed(i, j, phi))
    return gens


def _rank_mod_p(rows, p):
    """Rank over F_p of an integer matrix given by its rows."""
    M = [[x % p for x in row] for row in rows]
    n = len(M)
    rank = 0
    for c in range(len(M[0]) if M else 0):
        for r in range(rank, n):
            if M[r][c]:
                break
        else:
            continue
        M[rank], M[r] = M[r], M[rank]
        pivot = M[rank]
        inv = pow(pivot[c], -1, p)
        for r in range(rank + 1, n):
            t = M[r][c] * inv % p
            if t:
                M[r] = [(a - t * b) % p for a, b in zip(M[r], pivot)]
        rank += 1
        if rank == n:
            break
    return rank


def splitting_count(G: ExplicitGroup) -> int:
    """Number of homomorphic sections Γ → G (0 iff the extension is nonsplit).

    A section sends the basis element e_i of order d_i to a lift s_i with
    s_i^{d_i} = 1, that is to an element of the coset c_{e_i} of
    `_order_coset` (shared with `conjugacy_stats`), and the lifts must
    commute pairwise.
    """
    d = G.G.rank
    basis = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    cosets = [_order_coset(G, b) for b in basis]
    return sum(all(G.mul(a, b) == G.mul(b, a) for a, b in itertools.combinations(lifts, 2))
               for lifts in itertools.product(*cosets))


def aut_extension_count(H: ExplicitModule, Gamma: FiniteAbelianGroup, basis=None) -> int:
    """#𝔄⁻_{γ₁}(H) · ∏_{j>=2} #𝔄⁺_{γ₁}(H)[|γ_j|] for a basis γ₁..γ_d of Γ
    with γ₂..γ_d acting trivially on H."""
    if Gamma != H.group:
        raise ValueError("Γ is not the group acting on H")
    d = Gamma.rank
    if basis is None:
        basis = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        idm = linalg.identity_matrix(len(H.orders))
        basis.sort(key=lambda g: _mat_eq(H.action_of(g), idm, H.orders))
    if d == 0:
        return 1
    idm = linalg.identity_matrix(len(H.orders))
    for g in basis[1:]:
        if not _mat_eq(H.action_of(g), idm, H.orders):
            raise ValueError("all basis elements after the first must act trivially")
    g1 = basis[0]
    ab = ab_sets(H, g1)
    out = len(ab.a_minus)
    for g in basis[1:]:
        o = Gamma.element_order(g)
        out *= sum(1 for x in ab.a_plus if H.smul(o, x) == H.zero())
    return out


# ---------------------------------------------------------------------------
# homomorphisms between explicit modules, brute-force counts

@dataclass
class ModuleHom:
    src: ExplicitModule
    dst: ExplicitModule
    matrix: tuple  # rows indexed by dst coords

    def apply(self, v):
        return _mat_apply(self.matrix, v, self.dst.orders)

    def is_surjective(self):
        # a map onto a finite abelian p-group is onto iff it is onto
        # modulo p (Nakayama), so one rank over F_p decides it
        return _rank_mod_p(self.matrix, self.dst.p) == len(self.dst.orders)

    def kernel(self):
        z = self.dst.zero()
        return frozenset(x for x in self.src.elements() if self.apply(x) == z)


def _hom_candidate_columns(src: ExplicitModule, dst: ExplicitModule):
    """Per source generator, the list of admissible images (order condition)."""
    cand = []
    elems = list(dst.elements())
    for o in src.orders:
        cand.append([y for y in elems if dst.smul(o, y) == dst.zero()])
    return cand


def _equivariant_matrices(src: ExplicitModule, dst: ExplicitModule, columns):
    """Matrices T (rows indexed by dst coords) whose j-th column is drawn
    from columns[j], in itertools.product order, with T·A_src ≡ A_dst·T
    row-wise modulo dst.orders for every generator of Γ."""
    kd, ks = len(dst.orders), len(src.orders)
    checks = []
    for A, B in zip(src.actions, dst.actions):
        if (_mat_eq(A, linalg.identity_matrix(ks), src.orders)
                and _mat_eq(B, linalg.identity_matrix(kd), dst.orders)):
            continue  # T·1 = 1·T
        checks.append((list(zip(*A)), B))
    orders = dst.orders
    for cols in itertools.product(*columns):
        T = tuple(zip(*cols)) if ks else ((),) * kd
        if all((sum(t * a for t, a in zip(row, acol))
                - sum(b * c for b, c in zip(brow, col))) % o == 0
               for acols, B in checks
               for row, brow, o in zip(T, B, orders)
               for acol, col in zip(acols, cols)):
            yield T


def brute_module_counts(M: ExplicitModule, N: ExplicitModule):
    """(#Hom_Γ, #Sur_Γ) by enumeration of generator images."""
    homs = enumerate_module_homs(M, N)
    return len(homs), sum(f.is_surjective() for f in homs)


def enumerate_module_homs(M: ExplicitModule, N: ExplicitModule):
    """All Γ-homomorphisms M → N as ModuleHom values."""
    return [ModuleHom(M, N, T) for T in _equivariant_matrices(M, N, _hom_candidate_columns(M, N))]


# fast action-free counts used by the exhaustive oracle sweep

def _cyclic_set(y, mods):
    return {tuple((t * c) % m for c, m in zip(y, mods)) for t in range(tuple_order(y, mods))}


@lru_cache(maxsize=None)
def _divisors(n):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def brute_counts_plain(q, lam, mu):
    """(#Hom, #Sur) for ⊕ Z/q^λ → ⊕ Z/q^μ with no group action, counted
    by enumerating generator images (rank of λ at most 2)."""
    mods = [q**b for b in mu]
    total = 1
    for m in mods:
        total *= m
    elems = list(itertools.product(*(range(m) for m in mods)))
    cand = {}
    for a in set(lam):
        cand[a] = [y for y in elems if all((q**a * c) % m == 0 for c, m in zip(y, mods))]
    hom = 1
    for a in lam:
        hom *= len(cand[a])
    r = len(lam)
    if r == 0:
        return 1, (1 if total == 1 else 0)
    if r == 1:
        return hom, sum(tuple_order(y, mods) == total for y in cand[lam[0]])
    if r == 2:
        seconds = []
        for y2 in cand[lam[1]]:
            multiples = [(t, tuple((t * c) % m for c, m in zip(y2, mods)))
                         for t in _divisors(tuple_order(y2, mods))]
            seconds.append(multiples)
        sur = 0
        for y1 in cand[lam[0]]:
            S1 = _cyclic_set(y1, mods)
            s1 = len(S1)
            for multiples in seconds:
                tmin = next(t for t, x in multiples if x in S1)
                if s1 * tmin == total:
                    sur += 1
        return hom, sur
    raise ValueError("plain brute-force counts support rank <= 2")


# ---------------------------------------------------------------------------
# fiber products

@dataclass
class FiberResult:
    common_quotient: ExplicitModule
    to_common_1: ModuleHom
    to_common_2: ModuleHom
    fiber_product: ExplicitModule
    boxtimes: ExplicitModule


def _fiber_generators(f: ModuleHom, g: ModuleHom):
    """(D, gens): D = src(f) ⊕ src(g) and a generating set of at most
    rank(D) elements of the fiber {(x, y) : f(x) = g(y)} ⊆ D.

    The fiber is the kernel of h = (f, −g): D → Z.  The lattice of lifts
    w with h(w) ≡ 0 mod Z.orders contains o_j·e_j for each order o_j of D
    (h is well defined), so its basis, reduced mod D, generates the fiber.
    """
    D = direct_sum(f.src, g.src)
    h = [list(rf) + [-c for c in rg] for rf, rg in zip(f.matrix, g.matrix)]
    basis, _ = linalg.congruence_kernel(h, f.dst.orders, len(D.orders))
    return D, {tuple(c % o for c, o in zip(col, D.orders)) for col in basis}


def _fiber_submodule(f: ModuleHom, g: ModuleHom):
    """{(x, y) : f(x) = g(y)} inside src(f) ⊕ src(g) as a module."""
    sub, _ = module_from_subgroup(*_fiber_generators(f, g))
    return sub


def fiber_tools(e: PrimitiveIdempotent, pi1: ModuleHom, pi2: ModuleHom) -> FiberResult:
    """Maximal common quotient of π₁, π₂, the fiber product over their
    common target, and the fiber product over the maximal common quotient.
    Each fiber product of f: X → Z and g: Y → Z is the kernel of (f, −g)
    on X ⊕ Y, found by one integer linear system, not by a sweep of X × Y.

    For each Γ-submodule U ⊆ ker π₂ the map N₁ → N₂/U is ψ, the first
    surjective lift of π₁ in `enumerate_module_homs` order; the search
    only draws, for each generator of N₁, the images that π₁ allows.
    """
    N1, N2 = pi1.src, pi2.src
    N3 = pi1.dst
    if not (pi2.dst is N3 or (pi2.dst.orders == N3.orders and pi2.dst.actions == N3.actions)):
        raise ValueError("π₂ does not map to the target of π₁")
    if not (pi1.is_surjective() and pi2.is_surjective()):
        raise ValueError("π₁ and π₂ must be surjective")
    r3 = residue_rank(N3, e)
    if not (residue_rank(N1, e) == residue_rank(N2, e) == r3):
        raise ValueError("equal-rank hypothesis violated")

    ker2 = pi2.kernel()
    best = None  # (U, quotient, project, psi)
    factoring = []
    for U in gamma_submodules(N2, ker2):
        quo, project = module_quotient(N2, U)
        # induced map quotient -> N3, tabulated in one pass over N2
        induced = {}
        for y in N2.elements():
            induced[project(y)] = pi2.apply(y)
        # a surjection N1 -> quotient lifting π₁: generator j may only go
        # to the y with induced[y] = π₁(e_j)
        targets = [pi1.apply(x) for x in _unit_columns(N1)]
        lifts = [[y for y in cand if induced[y] == t]
                 for t, cand in zip(targets, _hom_candidate_columns(N1, quo))]
        for T in _equivariant_matrices(N1, quo, lifts):
            psi = ModuleHom(N1, quo, T)
            if psi.is_surjective():
                factoring.append((U, quo, project, psi))
                break
    assert factoring, "the common target itself must factor"
    Ustar = frozenset.intersection(*(frozenset(U) for U, _, _, _ in factoring))
    match = [t for t in factoring if frozenset(t[0]) == Ustar]
    assert match, "intersection of factoring submodules must factor"
    U, quo, project, psi = match[0]
    q2 = ModuleHom(N2, quo, tuple(tuple(project(col)[i] for col in _unit_columns(N2))
                                  for i in range(len(quo.orders))))
    fiber = _fiber_submodule(pi1, pi2)
    box = _fiber_submodule(psi, q2)
    return FiberResult(common_quotient=quo, to_common_1=psi, to_common_2=q2,
                       fiber_product=fiber, boxtimes=box)


def _unit_columns(M: ExplicitModule):
    k = len(M.orders)
    return [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
