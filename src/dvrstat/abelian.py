"""Finite abelian groups in invariant-factor form, their elements,
characters, subgroup enumeration, orbits of characters under the
p-adic Galois action, and the closure search that every orbit, span
and subgroup enumeration in the package runs on.

Elements and characters are exponent tuples; character values are held
as exponents mod the group exponent, so everything stays in exact
integer arithmetic.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

SUBGROUP_ENUM_CAP = 2**12


@lru_cache(maxsize=4096)
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


def prime_power_split(Q):
    """(p, f) with Q = p^f and f >= 1; ValueError for any other Q."""
    fs = factorize(Q) if Q >= 2 else ()
    if len(fs) != 1:
        raise ValueError(f"Q = {Q} is not a prime power")
    return fs[0]


def _is_prime(p):
    return p >= 2 and factorize(p) == ((p, 1),)


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


def crt(a1, m1, a2, m2):
    """x with x ≡ a1 mod m1, x ≡ a2 mod m2 for coprime m1, m2."""
    return (a1 + m1 * ((a2 - a1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


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
        """Canonical invariant factors of ⊕ Z/orders[i] (orders arbitrary >= 1)."""
        per_prime = {}
        for o in map(int, orders):
            if o < 1:
                raise ValueError(f"cyclic factor orders must be >= 1, got {o}")
            for p, v in factorize(o):
                per_prime.setdefault(p, []).append(v)
        if not per_prime:
            return cls(())
        width = max(len(v) for v in per_prime.values())
        facs = [1] * width
        for p, exps in per_prime.items():
            exps = sorted(exps, reverse=True)
            for i, a in enumerate(exps):
                facs[i] *= p**a
        facs = [d for d in sorted(facs) if d > 1]
        return cls(tuple(facs))

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
        """All (subgroup N, |Γ/N|) with Γ/N cyclic."""
        out = []
        n = self.order
        for N in self.subgroups():
            index = n // len(N)
            if self._quotient_is_cyclic(N, index):
                out.append((N, index))
        out.sort(key=lambda t: (t[1], sorted(t[0])))
        return out

    def _quotient_is_cyclic(self, N, index):
        for g in self.elements():
            # order of g + N in the quotient
            o = 1
            x = g
            while x not in N:
                x = self.add(x, g)
                o += 1
            if o == index:
                return True
        return False

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


def galois_generators(E, p):
    """Generators of the p-adic Galois action on E-th roots of unity, as
    exponents mod E: the Frobenius (p on the prime-to-p part, 1 on the
    p-part) and the units of the p-part (1 off it)."""
    require_prime(p)
    pk = p ** val_p(E, p)
    m = E // pk
    return [crt(1, pk, p % m, m)] + [crt(a, pk, 1, m) for a in range(2, pk) if a % p]


def galois_exponents(E, p):
    """Exponents u acting on E-th roots of unity by the p-adic Galois group,
    the closure of 1 under `galois_generators`.  Returns a sorted list of
    units mod E.
    """
    gens = galois_generators(E, p)
    if E == 1:
        return [1]
    return sorted(closure([1], lambda u: [u * g % E for g in gens]))


def frobenius_orbits(G: FiniteAbelianGroup, p):
    """Partition of the characters of G into orbits of the p-adic Galois action.

    Each orbit is the full set {χ^u} over Galois exponents u; for a
    character of order prime to p this is the orbit of χ ↦ χ^p.
    Returns a list of orbits (tuples of coefficient tuples), sorted by
    minimal member; the trivial character's orbit comes first.
    """
    gens = galois_generators(G.exponent, p)
    found = orbits(G.characters(), lambda chi: [G.char_pow(chi, g) for g in gens])
    return sorted((tuple(sorted(o)) for o in found), key=lambda o: o[0])


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


def serialize_group(G: FiniteAbelianGroup) -> str:
    return ",".join(str(d) for d in G.invariant_factors)


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
