"""Concrete finite modules with group action and the brute-force ground
truth built on them: realizations of DVR-module types, kernel/image
submodules of 1−γ and the norm, conjugacy statistics in extensions,
2-cocycle extension enumeration, splitting counts, and fiber products.

Everything here favours transparency over speed; the closed formulas in
dvrmod are validated against these computations.  The oracle still
lists every object it counts, but finds them by exact linear algebra,
not by testing candidates.  Its modules are abelian p-groups, so every
kernel, coset and submodule is solved on one reduced p-power echelon
form (`linalg.p_echelon`): Γ-homs, the fiber-product lifts among them
(`_hom_solver`) and the order cosets c_γ (`_order_coset`) are the
solutions of one congruence system each, listed from that form, and
fiber products and submodules share one constructor (`_submodule`).
Every Hom/Sur count, the action-free `brute_counts_plain` included,
lists its maps through that one Γ-hom solver.
"""

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

from .abelian import FiniteAbelianGroup, closure, int_log, orbits, require_prime, subgroup_lattice, tuple_order, val_p
from .dvrmod import ModuleType
from .idempotents import PrimitiveIdempotent, enumerate_idempotents
from . import linalg

MODULE_ENUM_CAP = 4096
GROUP_SCAN_CAP = 8192
HOM_ENUM_CAP = 2**22
EXT_GAMMA_CAP = 8
EXT_MODULE_CAP = 256
EXT_CAP_MESSAGE = "extension enumeration cap exceeded"
# realized modules kept by `realize`; one pass over the benchmark's
# oracle pool asks for 132 distinct (e, λ)
REALIZE_MEMO_SIZE = 256


# ---------------------------------------------------------------------------
# mixed-modulus matrix helpers

def _mat_apply(mat, v, orders):
    return tuple(sum(r * x for r, x in zip(row, v)) % o for row, o in zip(mat, orders))


def _mat_mat(A, B, orders):
    return [[x % o for x in row] for row, o in zip(linalg.mat_mul(A, B), orders)]


def _mat_pow(A, n, orders):
    # square-and-multiply from the top bit down, starting at A itself
    if n == 0:
        return linalg.identity_matrix(len(orders))
    R = [[x % o for x in row] for row, o in zip(A, orders)]
    for bit in bin(n)[3:]:
        R = _mat_mat(R, R, orders)
        if bit == "1":
            R = _mat_mat(R, A, orders)
    return R


def _mat_eq(A, B, orders):
    return all(
        (a - b) % o == 0 for ra, rb, o in zip(A, B, orders) for a, b in zip(ra, rb)
    )


def _coset_elements(offset, echelon, mods):
    """(size, elements) of the coset offset + S in ⊕ Z/mods, for moduli
    that are powers of one prime and S given by its reduced echelon form
    (steps, rows); elements is a lazy iterator in lexicographic order.

    It walks that form: with x_u fixed for u < v, the coset's values at
    v are the residues of x_v mod steps[v], each reached by one multiple
    of rows[v].  Past the last row with an entry beyond its pivot the
    coordinates are independent and one itertools.product lists them;
    when S is a product of cyclic groups on the coordinates, that product
    is the whole listing.
    """
    n = len(mods)
    steps, rows = echelon
    tail = n
    while tail and (rows[tail - 1] is None or not any(rows[tail - 1][tail:])):
        tail -= 1

    def leaves(v, x, fixed):
        if v == tail:
            yield itertools.product(*fixed, *(range(x[w] % steps[w], mods[w], steps[w])
                                              for w in range(tail, n)))
            return
        h, d = rows[v], steps[v]
        for val in range(x[v] % d, mods[v], d):
            y = x if h is None else [(a + (val - x[v]) // d * b) % o for a, b, o in zip(x, h, mods)]
            yield from leaves(v + 1, y, fixed + (range(val, val + 1),))

    size = math.prod(m // d for m, d in zip(mods, steps))
    return size, itertools.chain.from_iterable(leaves(0, [a % o for a, o in zip(offset, mods)], ()))


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

    def __init__(self, p, orders, group: FiniteAbelianGroup, actions):
        self.p = p
        self.orders = tuple(int(o) for o in orders)
        self.group = group
        self.actions = tuple(tuple(tuple(x % o for x in row) for row, o in zip(A, self.orders)) for A in actions)
        self.alphas = tuple(val_p(o, p) for o in self.orders)
        self._action_cache = {}
        self._residue_ranks = {}  # flattened T mod p -> rank over F_p, for maps onto self
        self._residue_rank_by_idempotent = {}  # idempotent e -> dim M/𝔪M over F_Q
        self._norm_kernels = {}  # γ -> (echelon, solve) of N_γ·h ≡ b, for `_order_coset`
        self._extension_groups = {}  # refine -> one validated group per kept class, for `enumerate_extensions`
        self._hom_solvers = {}  # dst -> `_hom_solver(self, dst)`, for `_hom_matrices`
        self.blocks = None
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
        return math.prod(self.orders)

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
        powers = [_mat_pow(A, a, self.orders) for A, a in zip(self.actions, g) if a]
        M = powers[0] if powers else linalg.identity_matrix(len(self.orders))
        for B in powers[1:]:
            M = _mat_mat(M, B, self.orders)
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
        P, S = A, [list(row) for row in A]
        for _ in range(self.group.element_order(g) - 1):
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


def direct_sum(M1: ExplicitModule, *rest: ExplicitModule):
    """M1 ⊕ M2 ⊕ ... as one block-diagonal module, validated once."""
    for M in rest:
        if M1.p != M.p:
            raise ValueError(f"summands over p = {M1.p} and p = {M.p}")
        if M1.group != M.group:
            raise ValueError("summands carry actions of different groups")
    orders = sum((M.orders for M in rest), M1.orders)
    return ExplicitModule(M1.p, orders, M1.group, _block_actions(M1, *rest))


def _block_actions(*summands):
    """The action matrices of ⊕ summands, block-diagonal."""
    n = sum(len(M.orders) for M in summands)
    actions = []
    for blocks in zip(*(M.actions for M in summands)):
        C = []
        for B in blocks:  # B's first row and column are len(C)
            C += [[0] * len(C) + list(row) + [0] * (n - len(C) - len(row)) for row in B]
        actions.append(C)
    return actions


# ---------------------------------------------------------------------------
# realization of DVR-module types

def _cyclotomic(m, mod):
    """Coefficient list of Φ_m mod `mod`: x^m − 1 divided by the monic
    Φ_d for each d | m, d < m."""
    poly = [mod - 1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = linalg.poly_divmod(poly, _cyclotomic(d, mod), mod)[0]
    return poly


def _unramified_factor(p, m_prime, f, N):
    """A monic degree-f factor of Φ_{m'} mod p^N (Hensel-lifted)."""
    assert m_prime > 1
    phi = _cyclotomic(m_prime, p**N)
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


def realize(e: PrimitiveIdempotent, M: ModuleType) -> ExplicitModule:
    """Build ⊕_i R/𝔪^{λ_i} for the DVR R attached to e, as an explicit
    module with transported Γ-action.  Round-trips with iso_type.

    Memoized by (e, M) for the REALIZE_MEMO_SIZE most recent pairs: equal
    requests get the same module, with the memos (residue ranks, norm
    kernels, action matrices) that earlier requests left on it.  That
    module is shared, so no caller may assign to it; its memos are pure
    functions of the module.  A refused or failing build is not kept."""
    if M.Q != e.Q:
        raise ValueError(f"type has Q = {M.Q} but the idempotent has Q = {e.Q}")
    return _realize_cached(e, M)


@lru_cache(maxsize=REALIZE_MEMO_SIZE)
def _realize_cached(e: PrimitiveIdempotent, M: ModuleType) -> ExplicitModule:
    G, p = e.group, e.p
    lam = M.parts
    if not lam:
        return zero_module(p, G)
    N = max(lam) + e.e_ram + 1
    mod = p**N
    k, m_prime, f, e_ram = e.k, e.m_prime, e.f, e.e_ram
    D = e_ram * f
    # multiplication matrices for the ring on the basis y^a z^b
    if k >= 1:
        ram_red = _cyclotomic(p**k, mod)
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

    ring = ExplicitModule(p, ring_orders, G, gen_mats)
    summands = []
    for L in lam:
        piL = _mat_pow(pi_mat, L, ring_orders)
        summands.append(module_quotient(ring, zip(*piL))[0])
    out = direct_sum(*summands) if len(summands) > 1 else summands[0]
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
    """Size of the subgroup of ⊕ Z/orders generated by the given vectors,
    for orders that are powers of one prime: ∏ orders[v] / steps[v],
    read off its `linalg.p_echelon`."""
    return math.prod(o // d for o, d in zip(orders, linalg.p_echelon(gens, orders)[0]))


def iso_type(M: ExplicitModule, e: PrimitiveIdempotent) -> ModuleType:
    """Partition type of an e-typed module, read off the 𝔪-filtration.

    𝔪^{j+1}·M ⊆ 𝔪^j·M, and once a step leaves it the same, every later
    step does: then no power of 𝔪 annihilates M, and ValueError is raised
    at that step.  So the filtration stops within log_p |M| steps."""
    if M.size == 1:
        return ModuleType(e.Q, ())
    pi = uniformizer_matrix(M, e)
    Q = e.Q
    sizes = [M.size]
    P = [[x % o for x in row] for row, o in zip(pi, M.orders)]
    while True:
        sizes.append(subgroup_size(M.orders, list(zip(*P))))
        if sizes[-1] == sizes[-2]:
            raise ValueError("module is not annihilated by a power of the maximal ideal")
        if sizes[-1] == 1:
            break
        P = _mat_mat(P, pi, M.orders)
    conj = []
    for prev, cur in zip(sizes, sizes[1:]):
        ratio = prev // cur
        assert cur * ratio == prev
        conj.append(int_log(ratio, Q))
    assert all(a >= b for a, b in zip(conj, conj[1:])), "filtration not decreasing"
    return ModuleType(Q, ModuleType(Q, conj).conjugate())


def residue_rank(M: ExplicitModule, e: PrimitiveIdempotent) -> int:
    """dim M/𝔪M over F_Q, the number of parts of iso_type(M, e): log_Q of
    |M| / |𝔪M|, with 𝔪M spanned by the uniformizer's columns.  M keeps
    the answer for each e as long as it lives."""
    memo = M._residue_rank_by_idempotent
    if e not in memo:
        pi = uniformizer_matrix(M, e)
        memo[e] = int_log(M.size // subgroup_size(M.orders, list(zip(*pi))), e.Q)
    return memo[e]


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
    """The Γ-stable subgroup generated by `subset` as an ExplicitModule,
    built by `_submodule` from the at most k rows of the one
    `linalg.p_echelon` of `subset`, which may be the whole subgroup or
    any generating set of it.  Returns (module, coords_of): coords_of
    maps an ambient element of the subgroup to its coordinates in the
    new module.
    """
    return _submodule(H.p, H.group, H.orders, H.actions, linalg.p_echelon(list(subset), H.orders)[1])


def _submodule(p, group, orders, actions, rows):
    """`module_from_subgroup` on ⊕ Z/orders with Γ acting by `actions`,
    which must keep the subgroup S with reduced echelon rows `rows`, as
    `linalg.p_echelon` gives them (None at an empty step).

    With G the matrix of the g rows that are not None as columns, S is
    (Z/L)^g / ker G for L = max(orders): one `congruence_kernel` gives
    ker G and preimages under G, and one `quotient_structure` presents
    the quotient.
    """
    gens = [row for row in rows if row is not None]
    Gmat = [[x[i] for x in gens] for i in range(len(orders))]
    wmods = [max(orders, default=1)] * len(gens)
    (_, kernel), solve = linalg.congruence_kernel(Gmat, orders, wmods)
    orders_s, proj_s, lift_s = linalg.quotient_structure(wmods, [row for row in kernel if row is not None])
    gens_amb = [_mat_apply(Gmat, col, orders) for col in zip(*lift_s)]

    def coords_of(x):
        w = solve(x)
        if w is None:
            raise ValueError(f"element {tuple(x)} not in the subgroup")
        return _mat_apply(proj_s, w, orders_s)

    sub_actions = []
    for A in actions:
        cols = [coords_of(_mat_apply(A, ga, orders)) for ga in gens_amb]
        sub_actions.append([list(row) for row in zip(*cols)])
    return ExplicitModule(p, orders_s, group, sub_actions), coords_of


def module_quotient(H: ExplicitModule, subgroup):
    """H / subgroup as an ExplicitModule; returns (module, proj, lift):
    proj is the matrix of the projection H → module (rows indexed by the
    quotient's coordinates, entries reduced mod its orders), and the
    columns of the matrix lift are elements of H over the quotient's
    generators."""
    gens = [list(x) for x in subgroup]
    orders_q, proj, lift = linalg.quotient_structure(list(H.orders), gens)
    proj = tuple(tuple(x % o for x in row) for row, o in zip(proj, orders_q))
    actions = [linalg.mat_mul(proj, linalg.mat_mul(A, lift)) for A in H.actions]
    return ExplicitModule(H.p, orders_q, H.group, actions), proj, lift


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
    A group is just H, the cocycle and its answers: γ1γ2 comes from the
    sum table `_sums(Γ)` that every extension of Γ shares, f(γ1, γ2) from
    `cocycle` and γ1's matrix from `H.action_of`, which H caches, so each
    product is one pass over H's coordinates.  The cocycle is validated
    when the group is built.

    `answers` holds what `conjugacy_stats` (γ ↦ (|c_γ|, d_γ)) and
    `splitting_count` ("sections") computed for this cocycle.
    """

    def __init__(self, H: ExplicitModule, cocycle):
        self.H = H
        self.G = H.group
        self.cocycle = dict(cocycle)
        self.answers = {}
        self._sum = _sums(H.group)
        self._validate()

    @classmethod
    def split(cls, H: ExplicitModule):
        return cls(H, dict.fromkeys(itertools.product(H.group.elements(), repeat=2), H.zero()))

    def _validate(self):
        G, H, coc = self.G, self.H, self.cocycle
        idg = G.identity()
        for a in G.elements():
            if coc[(idg, a)] != H.zero() or coc[(a, idg)] != H.zero():
                raise ValueError("cocycle is not normalized")
        # f(a, b) + f(ab, c) = a·f(b, c) + f(a, bc) for all a, b, c
        for (a, b), ab in self._sum.items():
            act, fab = H.action_of(a), coc[a, b]
            for c in G.elements():
                fbc = coc[b, c]
                if any((x + y - sum(map(operator.mul, row, fbc)) - w) % o
                       for x, y, row, w, o in zip(fab, coc[ab, c], act, coc[a, self._sum[b, c]], H.orders)):
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
        return (tuple((a + sum(map(operator.mul, row, h2)) + c) % o
                      for a, row, c, o in zip(h1, self.H.action_of(g1), self.cocycle[g1, g2], self.H.orders)),
                self._sum[g1, g2])

    def inv(self, x):
        # (h, γ)^{-1} = (−γ^{-1}·(h + f(γ, γ^{-1})), γ^{-1}); γ^{-1}·
        # is well defined on H, so h + f needs no reduction first
        h, g = x
        gi = self.G.neg(g)
        return (tuple(-sum(r * (a + c) for r, a, c in zip(row, h, self.cocycle[g, gi])) % o
                      for row, o in zip(self.H.action_of(gi), self.H.orders)), gi)

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


@lru_cache(maxsize=None)
def _sums(Gamma):
    """Γ's sum table (γ1, γ2) ↦ γ1γ2, built once per Γ for all its extensions."""
    els = list(Gamma.elements())
    return {(a, b): Gamma.add(a, b) for a in els for b in els}


def _order_coset(G: ExplicitGroup, gamma):
    """c_γ: the elements (h, γ) of G with the same order as γ, as a frozenset.

    (h, γ)^{|γ|} = (N_γ·h + c, 1) with N_γ the norm and c = (0, γ)^{|γ|},
    so c_γ is the coset {h : N_γ·h = −c} of ker N_γ.  N_γ depends on H
    alone, so H keeps its solve for every extension of H; the coset
    itself is not kept, as the answers built from it are.
    """
    H = G.H
    c = G.power((H.zero(), gamma), G.G.element_order(gamma))[0]
    if gamma not in H._norm_kernels:
        H._norm_kernels[gamma] = linalg.congruence_kernel(H.endo_norm(gamma), H.orders, H.orders)
    kernel, solve = H._norm_kernels[gamma]
    h0 = solve(H.neg(c))
    return frozenset() if h0 is None else frozenset(
        (h, gamma) for h in _coset_elements(h0, kernel, H.orders)[1])


def conjugacy_stats(G: ExplicitGroup, gamma):
    """(|c_γ|, d_γ): elements over γ with the same order as γ, and the
    number of conjugacy classes among them.

    c_γ comes from `_order_coset`, which `splitting_count` shares.
    Classes are orbit closures under conjugation by a generating set
    (basis vectors of H plus lifts of the Γ-generators), which agree with
    conjugacy under the full group.

    The pair is kept in `G.answers`, so a group that H keeps for its
    class (`enumerate_extensions`) computes it, and c_γ, once per γ for
    the life of H.
    """
    hit = G.answers.get(gamma)
    if hit is not None:
        return hit
    H = G.H
    c = _order_coset(G, gamma)
    k = len(H.orders)
    gens = [(tuple(1 if t == i else 0 for t in range(k)), G.G.identity()) for i in range(k)]
    gens += [(H.zero(), tuple(1 if t == i else 0 for t in range(G.G.rank)))
             for i in range(G.G.rank)]
    pairs = [(g, G.inv(g)) for g in gens]
    classes = orbits(sorted(c), lambda y: [G.mul(G.mul(g, y), ginv) for g, ginv in pairs])
    assert all(cl <= c for cl in classes), "a conjugacy class leaves c_γ"
    G.answers[gamma] = len(c), len(classes)
    return G.answers[gamma]


def enumerate_extensions(H: ExplicitModule, refine=True):
    """All extensions of Γ = H.group by H up to isomorphisms fixing H
    pointwise and inducing the identity on Γ, then (with refine) further
    identified under module automorphisms of H.

    Returns a list of ExplicitGroup, the split one first.  refine=False
    gives one group per cohomology class, which is enough for invariants
    like conjugacy statistics or splitting counts; refine=True closes each
    class under `automorphism_generators(H)` acting on H², and keeps the
    least class of each orbit.  On a module built by `realize` ValueError
    comes only from the size caps (|Γ| > EXT_GAMMA_CAP = 8 or |H| >
    EXT_MODULE_CAP = 256); any other module (H.blocks is None) takes its
    generators from `module_automorphisms(H)`, which refuses modules with
    |End_Γ(H)| > HOM_ENUM_CAP = 2^22.

    H keeps one group per class of `_extension_classes` for each value
    of refine, validated once, when its table is solved, so H² and its
    orbits are solved once per module; a refused module keeps nothing.
    A group's answers, (|c_γ|, d_γ) per γ and the splitting count, are
    filled by the first `conjugacy_stats` or `splitting_count` call that
    asks and kept as long as H.  Every call returns those same groups in
    a new list: like the modules of `realize`, they are shared, and no
    caller may assign to them.
    """
    if H.group.order > EXT_GAMMA_CAP or H.size > EXT_MODULE_CAP:
        raise ValueError(EXT_CAP_MESSAGE)
    if refine not in H._extension_groups:
        H._extension_groups[refine] = [ExplicitGroup(H, table) for table in _extension_classes(H, refine)]
    return list(H._extension_groups[refine])


def _extension_classes(H: ExplicitModule, refine):
    """The classes `enumerate_extensions(H, refine)` returns, as normalized
    cocycle tables (a, b) ↦ f(a, b), the split class first: H² from one
    solve of the cocycle system, then with refine one least class per
    orbit of `automorphism_generators(H)`.  The system's unknowns are the
    slots y[idx[a, b] + i] = s_i·f(a, b)_i in Z/L, for a, b ≠ 1 in Γ,
    L = max |h_i| (1 when H = 0) and s_i = L/|h_i|."""
    Gamma = H.group
    k = len(H.orders)
    L = max(H.orders, default=1)
    s = [L // o for o in H.orders]
    Gs = [g for g in Gamma.elements() if any(g)]
    idx = {ab: t * k for t, ab in enumerate(itertools.product(Gs, Gs))}
    nvar = len(idx) * k

    def scaled(T):
        # T in the scaled coordinates; entry (i, j) becomes T_ij·|h_j|/|h_i|,
        # which is integral exactly when T is well defined on H
        assert all(x * oj % oi == 0 for row, oi in zip(T, H.orders) for x, oj in zip(row, H.orders))
        return [[x * oj // oi % L for x, oj in zip(row, H.orders)] for row, oi in zip(T, H.orders)]

    # rows f(a, b) + f(ab, c) − a·f(b, c) − f(a, bc), then the orders |h_i|
    act = {a: scaled(H.action_of(a)) for a in Gs}
    rows = []
    for (a, b), t in idx.items():
        ab = Gamma.add(a, b)
        for c in Gs:
            bc = Gamma.add(b, c)
            for i in range(k):
                row = [0] * nvar
                row[t + i] += 1
                if (ab, c) in idx:
                    row[idx[ab, c] + i] += 1
                if (a, bc) in idx:
                    row[idx[a, bc] + i] -= 1
                for j, x in enumerate(act[a][i]):
                    row[idx[b, c] + j] -= x
                rows.append(row)
    rows += [[H.orders[t % k] * (u == t) for u in range(nvar)] for t in range(nvar)]
    Kgens, Korders, Kcoords = linalg.kernel_mod(rows, L, nvar)

    # coboundaries δc(u, v) = u·c(v) − c(uv) + c(u) of the basis 1-cochains
    # c = h_i0 at a0 and 0 elsewhere
    cob_rows = []
    for a0 in Gs:
        for i0 in range(k):
            y = [0] * nvar
            for (u, v), t in idx.items():
                if v == a0:
                    for i, row in enumerate(H.action_of(u)):
                        y[t + i] += s[i] * row[i0]
                y[t + i0] += s[i0] * ((u == a0) - (Gamma.add(u, v) == a0))
            cob_rows.append(list(Kcoords(y)))
    h2_orders, h2_proj, h2_lift = linalg.quotient_structure(list(Korders), cob_rows)

    def class_of(y):
        c = Kcoords(y)
        return tuple(sum(h2_proj[t][j] * c[j] for j in range(len(Korders))) % h2_orders[t]
                     for t in range(len(h2_orders)))

    def rep_of(z):
        c = [sum(h2_lift[j][t] * z[t] for t in range(len(h2_orders))) % Korders[j]
             for j in range(len(Korders))]
        y = [0] * nvar
        for cj, g in zip(c, Kgens):
            if cj:
                y = [(a + cj * b) % L for a, b in zip(y, g)]
        return y

    classes = list(itertools.product(*(range(o) for o in h2_orders)))
    if refine and len(classes) > 1:
        # Aut_Γ(H) acts linearly on H², so a generator acts through its
        # images of the basis classes, and an orbit is the closure of one
        # class under the generators; T acts on y block by block
        n2 = len(h2_orders)
        basis = [rep_of(tuple(int(r == t) for r in range(n2))) for t in range(n2)]
        acts = {tuple(class_of([sum(x * y[t + j] for j, x in enumerate(row))
                                for t in range(0, nvar, k) for row in S]) for y in basis)
                for S in map(scaled, automorphism_generators(H))}
        def step(x):
            return [tuple(sum(im[r] * xt for im, xt in zip(images, x)) % o
                          for r, o in enumerate(h2_orders))
                    for images in acts]

        classes = [min(orbit) for orbit in orbits(classes, step)]

    def table(y):
        coc = dict.fromkeys(itertools.product(Gamma.elements(), repeat=2), H.zero())
        for ab, t in idx.items():
            assert all(y[t + i] % si == 0 for i, si in enumerate(s))
            coc[ab] = tuple(y[t + i] // si for i, si in enumerate(s))
        return coc

    # the split extension (y = 0) first
    return [table(y) for y in sorted(map(rep_of, classes), key=any)]


def module_automorphisms(H: ExplicitModule):
    """All automorphisms of H commuting with the Γ-action, as matrices.

    A surjective endomorphism of a finite module is bijective, so these
    are the Γ-endomorphisms of full rank over F_p (Nakayama).  ValueError
    when |End_Γ(H)| exceeds HOM_ENUM_CAP, before any is listed.
    """
    k = len(H.orders)
    return [T for T in _hom_matrices(H, H, cap=HOM_ENUM_CAP) if _rank_mod_p(T, H.p) == k]


def automorphism_generators(H: ExplicitModule):
    """A generating set of Aut_Γ(H), as matrices.

    On a module from `realize`, H = ⊕_i O/π^{λ_i} with O = eZ_p[Γ] a
    quotient of Z_p[Γ], so Aut_Γ(H) = Aut_O(H).  That group is generated
    by the units of each summand and the transvections 1 + φ, φ a Γ-hom
    from summand j to summand i ≠ j (φ² = 0, so 1 − φ is the inverse).
    A summand S has |End_Γ(S)| = |S|, so its units come from
    `module_automorphisms(S)`, and a unit is kept only when the units
    kept before it do not generate it.  As (1 + φ)(1 + ψ) = 1 + φ + ψ
    within one block, 1 + φ is kept only for the φ of Hom_Γ(S_j, S_i),
    in `_hom_matrices` order, that the φ kept before them do not add up
    to.  On any other module the generating set is all of
    `module_automorphisms(H)`.
    """
    if H.blocks is None:
        return module_automorphisms(H)
    k = len(H.orders)
    parts = [ExplicitModule(H.p, H.orders[a:b], H.group,
                            [[row[a:b] for row in A[a:b]] for A in H.actions])
             for a, b in H.blocks]

    def embed(i, j, X):
        # the identity with block (i, j) replaced by X
        T = [list(row) for row in linalg.identity_matrix(k)]
        a, c = H.blocks[i][0], H.blocks[j][0]
        for r, row in enumerate(X):
            T[a + r][c:c + len(row)] = row
        return tuple(map(tuple, T))

    groups = [[embed(i, i, U) for U in module_automorphisms(S)] for i, S in enumerate(parts)]
    groups += [[embed(i, j, phi) for phi in _hom_matrices(Sj, Si)]
               for (i, Si), (j, Sj) in itertools.permutations(enumerate(parts), 2)]
    gens = []
    for group in groups:
        # keep x when the members kept before it do not generate it; the
        # group is abelian, so x joins the span as span·⟨x⟩
        span = {tuple(map(tuple, linalg.identity_matrix(k)))}
        for x in group:
            if x not in span:
                gens.append(x)
                span = closure(span, lambda y: [tuple(map(tuple, _mat_mat(y, x, H.orders)))])
    return gens


def _rank_mod_p(rows, p):
    """Rank over F_p of an integer matrix given by its rows."""
    # kept beside `linalg.p_echelon`, which takes 3 to 4 times as long at
    # modulus p (random k × k matrices, k ≤ 6, p ≤ 5), because
    # `module_automorphisms` rank-tests every element of End_Γ(H)
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
    commute pairwise.  The count is kept in `G.answers`, like the pairs of
    `conjugacy_stats`.
    """
    if "sections" in G.answers:
        return G.answers["sections"]
    d = G.G.rank
    basis = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    cosets = [_order_coset(G, b) for b in basis]
    G.answers["sections"] = sum(all(G.mul(a, b) == G.mul(b, a) for a, b in itertools.combinations(lifts, 2))
                                for lifts in itertools.product(*cosets))
    return G.answers["sections"]


def aut_extension_count(H: ExplicitModule) -> int:
    """#𝔄⁻_{γ₁}(H) · ∏_{j>=2} #𝔄⁺_{γ₁}(H)[|γ_j|] for the invariant-factor
    basis γ₁..γ_d of Γ = H.group, the one generator acting nontrivially
    on H (if any) taken first; ValueError unless γ₂..γ_d then act
    trivially."""
    Gamma = H.group
    d = Gamma.rank
    if d == 0:
        return 1
    idm = linalg.identity_matrix(len(H.orders))
    basis = sorted((tuple(1 if j == i else 0 for j in range(d)) for i in range(d)),
                   key=lambda g: _mat_eq(H.action_of(g), idm, H.orders))
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
    # fiber_tools' work on the kernel side of this map, kept while it lives
    _quotients: list = field(default=None, init=False, repr=False, compare=False)

    def apply(self, v):
        return _mat_apply(self.matrix, v, self.dst.orders)

    def is_surjective(self):
        # a map onto a finite abelian p-group is onto iff it is onto
        # modulo p (Nakayama), so one rank over F_p decides it; the target
        # keeps the rank of each residue matrix for as long as it lives
        p, ranks = self.dst.p, self.dst._residue_ranks
        key = tuple([x % p for row in self.matrix for x in row])
        rank = ranks.get(key)
        if rank is None:
            rank = ranks[key] = _rank_mod_p(self.matrix, p)
        return rank == len(self.dst.orders)

    def kernel(self):
        z = self.dst.zero()
        return frozenset(x for x in self.src.elements() if self.apply(x) == z)


def brute_module_counts(M: ExplicitModule, N: ExplicitModule):
    """(#Hom_Γ, #Sur_Γ), counted while `_hom_matrices` lists the Γ-homs."""
    hom = sur = 0
    for T in _hom_matrices(M, N):
        hom += 1
        sur += ModuleHom(M, N, T).is_surjective()
    return hom, sur


def _hom_matrices(src: ExplicitModule, dst: ExplicitModule, cap=None):
    """Matrices T (rows indexed by dst coords) of all Γ-homs src → dst,
    listed by `_hom_solver(src, dst)`.  src keeps that solver, keyed by
    dst, for as long as it lives, so each (src, dst) is solved once; the
    cap is tested on every call."""
    if dst not in src._hom_solvers:
        src._hom_solvers[dst] = _hom_solver(src, dst)
    return src._hom_solvers[dst](None, cap)


def _hom_solver(src: ExplicitModule, dst: ExplicitModule, g=None):
    """The Γ-homs T: src → dst with g·T = f (every Γ-hom when g is None),
    from one `linalg.congruence_kernel`, the p-power echelon of the
    system: returns homs(f, cap), which lists them for any f.  Only the
    right-hand side depends on f, so the lifts of many f through one g
    share the echelon.  `_hom_matrices` keeps the solver of g = None on
    src, and `fiber_tools` keeps those of its maps P on π₂.

    The unknowns are the entries T[i][j] in column-major order, T[i][j]
    read mod dst.orders[i]; the rows are the order condition
    src.orders[j]·T[i][j] ≡ 0 and, for each generator of Γ with actions
    A and B, (T·A − B·T)[i][j] ≡ 0 (mod dst.orders[i]).  The solutions
    form a subgroup of ⊕ Z/dst.orders[i], listed by `_coset_elements` in
    lexicographic order of the column-major tuple, entries in
    range(dst.orders[i]): the order in which itertools.product over the
    admissible columns met them.

    With g: dst → Z and f: src → Z Γ-homs, the rows (g·T)[r][j] ≡
    f[r][j] (mod Z.orders[r]) join the system, and its solutions are one
    solution of it plus the homs with g·T = 0, listed in the same order
    (nothing when there is no solution).  ValueError when more than cap
    would be listed, known from the echelon form before anything is
    listed.
    """
    ks, kd = len(src.orders), len(dst.orders)
    n = ks * kd
    mods = list(dst.orders) * ks
    rows, rmods = [], []
    for j, o in enumerate(src.orders):
        for i, m in enumerate(dst.orders):
            if o % m:
                rows.append([o if v == j * kd + i else 0 for v in range(n)])
                rmods.append(m)
    for A, B in zip(src.actions, dst.actions):
        for j in range(ks):
            for i, m in enumerate(dst.orders):
                row = [0] * n
                for t in range(ks):
                    row[t * kd + i] += A[t][j]
                for t in range(kd):
                    row[j * kd + t] -= B[i][t]
                if any(x % m for x in row):  # 0 ≡ 0 when Γ acts trivially on both
                    rows.append(row)
                    rmods.append(m)
    zeros = [0] * len(rows)
    if g is not None:
        for j in range(ks):
            for r, m in enumerate(g.dst.orders):
                row = [0] * n
                row[j * kd:(j + 1) * kd] = g.matrix[r]
                rows.append(row)
                rmods.append(m)
    kernel, solve = linalg.congruence_kernel(rows, rmods, mods)
    rows_of = [slice(i, None, kd) for i in range(kd)]  # row i of T is flat[i::kd]

    def homs(f=None, cap=None):
        rhs = zeros if g is None else zeros + [f.matrix[r][j] for j in range(ks)
                                               for r in range(len(g.dst.orders))]
        offset = solve(rhs)
        if offset is None:
            return iter(())
        size, flats = _coset_elements(offset, kernel, mods)
        if cap is not None and size > cap:
            raise ValueError("Γ-hom enumeration too large")
        return (tuple(map(flat.__getitem__, rows_of)) for flat in flats)

    return homs


def enumerate_module_homs(M: ExplicitModule, N: ExplicitModule):
    """All Γ-homomorphisms M → N as ModuleHom values, in `_hom_matrices` order."""
    return [ModuleHom(M, N, T) for T in _hom_matrices(M, N)]


def brute_counts_plain(q, lam, mu):
    """(#Hom, #Sur) for M = ⊕ Z/q^λ → N = ⊕ Z/q^μ with no group action.

    Every hom into N kills q^{max μ}·M, so M → M/q^{max μ}M induces a
    bijection on Hom and on Sur, and λ's parts are cut to min(λ_i, max μ)
    to keep the source's orders at most |N|.  The two refusals, tested
    from the partitions before any module is built and with no power of
    q past the cap's bit length, bound the request's work: #Hom ≤ |N|^2.
    M and N come from `realize`, so a repeated N keeps its residue ranks.
    """
    require_prime(q)
    if len(lam) > 2:
        raise ValueError("plain brute-force counts support rank <= 2")
    if q ** min(sum(mu), MODULE_ENUM_CAP.bit_length()) > MODULE_ENUM_CAP:
        raise ValueError("module too large to enumerate")
    top = max(mu, default=0)
    e, = enumerate_idempotents(FiniteAbelianGroup(()), q)
    M = realize(e, ModuleType(q, [min(a, top) for a in lam if top]))
    return brute_module_counts(M, realize(e, ModuleType(q, mu)))


# ---------------------------------------------------------------------------
# fiber products

@dataclass
class FiberResult:
    common_quotient: ExplicitModule
    to_common_1: ModuleHom
    to_common_2: ModuleHom
    fiber_product: ExplicitModule
    boxtimes: ExplicitModule


def _fiber_submodule(f: ModuleHom, g: ModuleHom):
    """The fiber {(x, y) : f(x) = g(y)} ⊆ X ⊕ Y as a module, for X =
    src(f) and Y = src(g): the kernel of (f, −g) on X ⊕ Y, one
    `linalg.congruence_kernel`, with X ⊕ Y's block-diagonal action,
    through `module_from_subgroup`'s constructor, which takes the
    kernel's echelon rows as they are.  Returns (module, coords_of) as
    that does.
    """
    X, Y = f.src, g.src
    orders = X.orders + Y.orders
    h = [list(rf) + [-c for c in rg] for rf, rg in zip(f.matrix, g.matrix)]
    (_, kernel), _ = linalg.congruence_kernel(h, f.dst.orders, orders)
    return _submodule(X.p, X.group, orders, _block_actions(X, Y), kernel)


def fiber_tools(e: PrimitiveIdempotent, pi1: ModuleHom, pi2: ModuleHom) -> FiberResult:
    """Maximal common quotient of π₁, π₂, the fiber product over their
    common target, and the fiber product over the maximal common quotient.
    Each fiber product of f: X → Z and g: Y → Z is the kernel of (f, −g)
    on X ⊕ Y, found by one integer linear system, not by a sweep of X × Y.

    For each Γ-submodule U ⊆ ker π₂ the map N₁ → N₂/U is ψ, the first
    surjective lift of π₁ in `enumerate_module_homs` order: the homs T
    with P·T = π₁, P the map N₂/U → N₃ induced by π₂, come from one
    `_hom_solver` system.  The quotients N₂/U, their projections q₂ and
    the maps P depend on π₂ alone, so π₂ keeps them for every π₁ it is
    paired with, and with each the system's solve for every source N₁:
    π₁ changes only its right-hand side.
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

    if pi2._quotients is None:
        quotients = []
        for U in gamma_submodules(N2, pi2.kernel()):
            quo, proj, lift = module_quotient(N2, U)
            # P: column t is π₂ of the lift of quotient generator t
            P = ModuleHom(quo, pi2.dst, _mat_mat(pi2.matrix, lift, pi2.dst.orders))
            quotients.append((U, ModuleHom(N2, quo, proj), P, {}))
        pi2._quotients = quotients
    factoring = []
    for U, q2, P, solvers in pi2._quotients:
        if N1 not in solvers:
            solvers[N1] = _hom_solver(N1, q2.dst, P)
        lifts = (ModuleHom(N1, q2.dst, T) for T in solvers[N1](pi1))
        psi = next((h for h in lifts if h.is_surjective()), None)
        if psi is not None:
            factoring.append((U, q2, psi))
    assert factoring, "the common target itself must factor"
    Ustar = frozenset.intersection(*(frozenset(U) for U, _, _ in factoring))
    match = [t for t in factoring if frozenset(t[0]) == Ustar]
    assert match, "intersection of factoring submodules must factor"
    _, q2, psi = match[0]
    fiber, _ = _fiber_submodule(pi1, pi2)
    box, _ = _fiber_submodule(psi, q2)
    return FiberResult(common_quotient=q2.dst, to_common_1=psi, to_common_2=q2,
                       fiber_product=fiber, boxtimes=box)
