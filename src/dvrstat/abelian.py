"""Finite abelian groups in invariant-factor form, their elements,
characters, subgroup enumeration, orbits of characters under the
p-adic Galois action, and the closure search that the span, subgroup
and module-orbit enumerations of the package run on.

Elements and characters are exponent tuples; character values are held
as exponents mod the group exponent, so everything stays in exact
integer arithmetic.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

SUBGROUP_ENUM_CAP = 2**12


def factorize(n):
    """Prime factorisation of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: not a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = val_p(n, d)
            n //= d**e
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=4096)
def prime_power_split(Q):
    """(p, f) with Q = p^f and f >= 1; ValueError for any other Q.

    Q is a prime power exactly when the root for the largest exact f is
    prime, so primality is tested once.  Cached: every ModuleType checks
    its Q here, and a moment sweep makes thousands of them."""
    for f in range(max(Q, 1).bit_length() - 1, 0, -1):
        p = _int_root(Q, f)
        if p**f == Q:
            if _is_prime(p):
                return p, f
            break
    raise ValueError(f"Q = {Q} is not a prime power")


def _int_root(n, k):
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# Miller–Rabin with these bases proves primality below _MR_LIMIT (about 3.3·10^24)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Miller–Rabin with the bases _MR_BASES.  A witness proves p
    composite, and below _MR_LIMIT the absence of one proves p prime.
    At or above _MR_LIMIT a p with no witness is only a strong probable
    prime, so ValueError is raised instead of an answer."""
    if p < 2:
        return False
    if any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = val_p(p - 1, 2)
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {p} is prime: Miller–Rabin with bases up to "
                         f"{_MR_BASES[-1]} proves primality only below {_MR_LIMIT}")
    return True


def require_prime(p):
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def mult_order(a, m):
    """Multiplicative order of a modulo m; ValueError unless gcd(a, m) = 1."""
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}, so it has no multiplicative order")
    t, x = 1, a % m
    while x != 1:
        x = x * a % m
        t += 1
    return t


def val_p(n, p):
    """Largest v with p^v | n (n != 0)."""
    if n == 0:
        raise ValueError("the valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def int_log(n, base):
    """k with base^k = n exactly; ValueError if n is not a power of base."""
    k = val_p(n, base) if n > 0 else 0
    if base**k != n:
        raise ValueError(f"{n} is not a power of {base}")
    return k


def tuple_order(x, mods):
    """Order of the element x of ⊕ Z/mods[i]."""
    return math.lcm(*(m // math.gcd(m, c) for c, m in zip(x, mods)))


def euler_phi_prime_power(p, k):
    return 1 if k == 0 else (p - 1) * p ** (k - 1)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant factors d_1 | d_2 | ... | d_k, each >= 2."""

    invariant_factors: tuple

    def __post_init__(self):
        facs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        for d in facs:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def from_orders(cls, orders):
        """Canonical invariant factors of ⊕ Z/orders[i] (orders arbitrary >= 1),
        without factoring: as Z/a ⊕ Z/b ≅ Z/gcd ⊕ Z/lcm, each order o joins
        the chain d_1 | d_2 | ... as d_i ← gcd(d_i, o), o ← lcm(d_i, o)."""
        facs = []
        for o in map(int, orders):
            if o < 1:
                raise ValueError(f"cyclic factor orders must be >= 1, got {o}")
            for i, d in enumerate(facs):
                facs[i], o = math.gcd(d, o), math.lcm(d, o)
            facs.append(o)
        return cls(tuple(d for d in facs if d > 1))

    @property
    def order(self):
        return math.prod(self.invariant_factors)

    @property
    def exponent(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self):
        return len(self.invariant_factors)

    def identity(self):
        return (0,) * self.rank

    def elements(self):
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def add(self, g, h):
        return tuple((a + b) % d for a, b, d in zip(g, h, self.invariant_factors))

    def neg(self, g):
        return tuple((-a) % d for a, d in zip(g, self.invariant_factors))

    def scalar_mul(self, n, g):
        return tuple((n * a) % d for a, d in zip(g, self.invariant_factors))

    def element_order(self, g):
        if len(g) != self.rank:
            raise ValueError("coordinate count mismatch")
        return tuple_order(g, self.invariant_factors)

    def subgroup_generated(self, gens):
        """Frozenset of elements of the subgroup generated by gens."""
        for g in gens:
            if len(g) != self.rank:
                raise ValueError(f"generator {g} has {len(g)} coordinates, Γ has rank {self.rank}")
        return closure([self.identity()], lambda x: [self.add(x, g) for g in gens])

    def subgroups(self):
        return _subgroups_cached(self.invariant_factors)

    def cyclic_quotients(self):
        """All (subgroup N, |Γ/N|) with Γ/N cyclic, sorted by (|Γ/N|, N).
        These N are the kernels ker χ, with |Γ/N| = ord χ, and χ, χ' share
        a kernel iff ⟨χ⟩ = ⟨χ'⟩, so Γ is scanned once per cyclic subgroup
        of the dual.  ValueError if |Γ| exceeds SUBGROUP_ENUM_CAP."""
        if self.order > SUBGROUP_ENUM_CAP:
            raise ValueError(f"subgroup enumeration capped at order {SUBGROUP_ENUM_CAP}")
        seen, out = set(), []
        for chi in self.characters():
            if chi not in seen:
                n = self.char_order(chi)
                seen.update(self.char_pow(chi, u) for u in range(1, n + 1) if math.gcd(u, n) == 1)
                N = frozenset(g for g in self.elements() if self.char_value_exponent(chi, g) == 0)
                out.append((N, n))
        out.sort(key=lambda t: (t[1], sorted(t[0])))
        return out

    def p_part(self, p):
        """The p-Sylow subgroup as its own FiniteAbelianGroup."""
        exps = [val_p(d, p) for d in self.invariant_factors]
        return FiniteAbelianGroup.from_orders([p**a for a in exps if a > 0])

    # -- characters ---------------------------------------------------------

    def characters(self):
        """All characters as coefficient tuples (same index ranges as elements)."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def char_value_exponent(self, coeffs, g):
        """χ(g) as an exponent mod the group exponent E (value = ζ_E^result)."""
        E = self.exponent
        return sum(c * (E // d) * a for c, a, d in zip(coeffs, g, self.invariant_factors)) % E

    def char_order(self, coeffs):
        return self.element_order(coeffs)

    def char_pow(self, coeffs, u):
        return tuple((u * c) % d for c, d in zip(coeffs, self.invariant_factors))


@lru_cache(maxsize=None)
def _subgroups_cached(invariant_factors):
    G = FiniteAbelianGroup(invariant_factors)
    if G.order > SUBGROUP_ENUM_CAP:
        raise ValueError(f"subgroup enumeration capped at order {SUBGROUP_ENUM_CAP}")
    return subgroup_lattice(G.elements(), G.identity(), G.subgroup_generated, G.add)


# -- graph searches ------------------------------------------------------------

def closure(seeds, step):
    """Frozenset of everything reachable from `seeds`, where step(x)
    lists the neighbours of x."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for y in step(frontier.pop()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def orbits(items, step):
    """The closures of `items`, in the order of their first member.

    When step(x) lists the images of x under generators of a finite
    group action, these are the orbits that meet `items`.
    """
    seen = set()
    out = []
    for x in items:
        if x not in seen:
            orbit = closure([x], step)
            seen |= orbit
            out.append(orbit)
    return out


def subgroup_lattice(universe, zero, span, add):
    """Every subgroup span(gens) inside `universe`, gens drawn from it,
    sorted by (size, elements).  span(gens) is the subgroup that gens
    generate and add is the group law.  Each subgroup T is reached from
    a smaller one S, starting from {zero}, as span([*gens(S), x]) with
    gens(S) the generators S was first reached with; that span depends
    only on the coset x + S, so one x per coset is tried."""
    universe = frozenset(universe)
    start = frozenset({zero})
    gens = {start: []}

    def step(S):
        done = set(S)
        for x in universe:
            if x in done:
                continue
            done.update(add(x, s) for s in S)
            T = span([*gens[S], x])
            if T <= universe:
                gens.setdefault(T, [*gens[S], x])
                yield T

    return sorted(closure([start], step), key=lambda s: (len(s), sorted(s)))


def galois_exponents(n, p):
    """Gal(Q_p(ζ_n)/Q_p) as the exponents u with which it acts on n-th
    roots of unity: for n = p^k·m with p ∤ m it is (Z/p^k)^× × ⟨Frob_p⟩,
    so u runs over the units mod n whose residue mod m is a power of p.
    Returns them sorted, each in [1, n].
    """
    require_prime(p)
    if n == 1:
        return [1]
    m = n // p ** val_p(n, p)
    frob = (pow(p, j, m) for j in range(mult_order(p, m)))
    return sorted(u for r in frob for u in range(r, n, m) if math.gcd(u, n) == 1)


def frobenius_orbits(G: FiniteAbelianGroup, p):
    """Partition of the characters of G into orbits of the p-adic Galois action.

    The orbit of χ is {χ^u : u in galois_exponents(ord χ, p)}, the
    exponents listed once per order; the action on characters of one
    order is free, so this is one pass over G.  Returns the orbits as
    sorted tuples, sorted by minimal member (the trivial one first).
    """
    exponents, seen, out = {}, set(), []
    for chi in G.characters():  # in increasing order, so chi is its orbit's minimum
        if chi not in seen:
            n = G.char_order(chi)
            if n not in exponents:
                exponents[n] = galois_exponents(n, p)
            orbit = sorted({G.char_pow(chi, u) for u in exponents[n]})
            seen.update(orbit)
            out.append(tuple(orbit))
    return out


def wedge_square_p_part(G: FiniteAbelianGroup, p):
    """∧² of the p-part of G: for exponents a_1 <= ... <= a_r the result
    is ⊕_{i<j} Z/p^min(a_i, a_j)."""
    require_prime(p)
    exps = sorted(a for a in (val_p(d, p) for d in G.invariant_factors) if a > 0)
    orders = [p ** exps[i] for i in range(len(exps)) for j in range(i + 1, len(exps))]
    return FiniteAbelianGroup.from_orders(orders)


def abelian_groups_of_order(n):
    """All abelian groups of order n, in invariant-factor form."""
    from .dvrmod import partitions_of  # dvrmod imports this module

    per_prime = [[[p**part for part in parts] for parts in partitions_of(a)]
                 for p, a in factorize(n)]
    out = []
    for combo in itertools.product(*per_prime):
        orders = [o for group in combo for o in group]
        out.append(FiniteAbelianGroup.from_orders(orders))
    return out


def small_abelian_groups(max_order):
    out = []
    for n in range(1, max_order + 1):
        out.extend(abelian_groups_of_order(n))
    return out


def parse_group(s: str) -> FiniteAbelianGroup:
    s = s.strip()
    if not s or s == "1":
        return FiniteAbelianGroup(())
    return FiniteAbelianGroup.from_orders([int(t) for t in s.split(",")])


def parse_tuple(s: str):
    s = s.strip()
    if not s:
        return ()
    return tuple(int(t) for t in s.split(","))
