"""Primitive idempotents of Q_p[Γ] for finite abelian Γ, the local-ring
data of their integral images, valuations of images of group elements,
the threshold ideal, and the ramification-type classifiers.

An idempotent is identified with a Galois orbit of characters; the
integral image is a complete DVR with ramification index φ(p^k), residue
degree f and residue field of size Q = p^f, where the common character
order is n = p^k · m' and f is the order of p mod m'.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import linalg
from .abelian import (
    FiniteAbelianGroup,
    euler_phi_prime_power,
    frobenius_orbits,
    mult_order,
    require_prime,
    val_p,
)

P_UNIFORMIZER = "P"
ONE_MINUS_GAMMA = "ONE_MINUS_GAMMA"

ONE_MINUS_GAMMA_ANNIHILATES = "ONE_MINUS_GAMMA_ANNIHILATES"
NORM_ANNIHILATES = "NORM_ANNIHILATES"

INFINITE_VALUATION = 10**9

# largest |Γ| whose characters are listed: Z/2^20 at p = 2 takes seconds
CHARACTER_ENUM_CAP = 2**20


@dataclass(frozen=True)
class IdealPower:
    """The ideal 𝔪^d of a DVR; d = 0 means the whole ring."""

    d: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("ideal exponent must be >= 0")

    @property
    def is_whole_ring(self):
        return self.d == 0


WHOLE_RING = IdealPower(0)


@dataclass(frozen=True)
class PrimitiveIdempotent:
    group: FiniteAbelianGroup
    p: int
    orbit: tuple  # sorted tuple of character coefficient tuples

    def __post_init__(self):
        require_prime(self.p)

    @property
    def rep(self):
        return self.orbit[0]

    @cached_property
    def char_order(self):
        return self.group.char_order(self.rep)

    @cached_property
    def k(self):
        return val_p(self.char_order, self.p)

    @property
    def p_part(self):
        return self.p**self.k

    @cached_property
    def m_prime(self):
        return self.char_order // self.p_part

    @cached_property
    def e_ram(self):
        return euler_phi_prime_power(self.p, self.k)

    @cached_property
    def f(self):
        return mult_order(self.p, self.m_prime)

    @cached_property
    def Q(self):
        return self.p**self.f

    @property
    def dimension(self):
        return self.e_ram * self.f

    @property
    def uniformizer_kind(self):
        return P_UNIFORMIZER if self.k == 0 else ONE_MINUS_GAMMA

    @property
    def is_trivial(self):
        return self.char_order == 1

    def value_exponent(self, g):
        """χ(g) for the orbit representative, as an exponent mod exponent(Γ)."""
        return self.group.char_value_exponent(self.rep, g)

    def value_order(self, g):
        """Multiplicative order of χ(g)."""
        E = self.group.exponent
        t = self.value_exponent(g)
        return E // math.gcd(E, t) if t else 1

    def one_minus_value_valuation(self, g):
        """𝔪-adic valuation of 1 − χ(g); INFINITE_VALUATION when χ(g) = 1."""
        d0 = self.value_order(g)
        if d0 == 1:
            return INFINITE_VALUATION
        m0 = d0 // self.p ** val_p(d0, self.p)
        if m0 > 1:
            return 0
        a = val_p(d0, self.p)
        return self.e_ram // euler_phi_prime_power(self.p, a)

    def prime_to_p_component(self, coeffs):
        """The prime-to-p part of a character (trivial if its order is a p-power)."""
        n = self.group.char_order(coeffs)
        pk = self.p ** val_p(n, self.p)
        mp = n // pk
        if mp == 1:
            return self.group.identity()
        u = pk * pow(pk, -1, mp) % (pk * mp)
        return self.group.char_pow(coeffs, u)


def enumerate_idempotents(G: FiniteAbelianGroup, p):
    """One primitive idempotent per Galois orbit of characters; the trivial
    idempotent comes first.  ValueError if p is not prime or |Γ| exceeds
    CHARACTER_ENUM_CAP, before anything is listed.

    The orbits are listed once per (Γ, p) for the life of the process;
    each call returns a fresh list of the same idempotents."""
    require_prime(p)
    if G.order > CHARACTER_ENUM_CAP:
        raise ValueError(f"Γ has order {G.order}; its characters are listed only up to "
                         f"order {CHARACTER_ENUM_CAP}")
    return list(_idempotents_cached(G, p))


@lru_cache(maxsize=None)
def _idempotents_cached(G: FiniteAbelianGroup, p):
    out = [PrimitiveIdempotent(G, p, orbit) for orbit in frobenius_orbits(G, p)]
    out.sort(key=lambda e: (not e.is_trivial, e.char_order, e.rep))
    return tuple(out)


def gamma_annihilation(e: PrimitiveIdempotent, g):
    """Which of 1−γ and the norm Σ_{j<=|γ|} γ^j kills the image ring."""
    if all(a == 0 for a in g):
        raise ValueError("identity element is not classified")
    if e.value_exponent(g) == 0:
        return ONE_MINUS_GAMMA_ANNIHILATES
    return NORM_ANNIHILATES


def ideal_image_valuation(e: PrimitiveIdempotent, g) -> IdealPower:
    """Valuation of the image of the ideal (1−γ, Σ_{j=1}^{|γ|} γ^j).

    When χ(γ) = 1 the image is (0, |γ|), of valuation e_ram·val_p(|γ|);
    when χ(γ) has order divisible by a prime other than p, 1−χ(γ) is a
    unit; when χ(γ) has order p^a the valuation is φ(p^k)/φ(p^a).
    """
    if all(a == 0 for a in g):
        raise ValueError("identity element has no image ideal")
    d0 = e.value_order(g)
    if d0 == 1:
        return IdealPower(e.e_ram * val_p(e.group.element_order(g), e.p))
    v = e.one_minus_value_valuation(g)
    return IdealPower(v)


@lru_cache(maxsize=None)
def _threshold_cached(e: PrimitiveIdempotent):
    orders, _, _ = linalg.quotient_structure(e.group.invariant_factors, [e.rep])
    d = e.e_ram * val_p(max(orders, default=1), e.p)
    return IdealPower(max(d, e.p ** (e.k - 1) if e.k else 0))


def threshold_ideal(e: PrimitiveIdempotent) -> IdealPower:
    """Intersection over nontrivial γ of the image ideals: 𝔪^d with d the
    max of their valuations, read off the character χ of e.  A γ with χ(γ)
    of order p^a >= p gives φ(p^k)/φ(p^a) <= p^(k−1), equal at a = 1 (which
    occurs iff k >= 1); a γ in ker χ gives e_ram·val_p(|γ|), largest at the
    exponent of ker χ, which is that of Γ^/⟨χ⟩; any other γ gives 0."""
    return _threshold_cached(e)


def residue_module_key(e: PrimitiveIdempotent):
    """Canonical key of the simple residue module A = image ring / 𝔪.

    Two idempotents share a key iff their residue modules are isomorphic
    as Γ-modules: same Q and same orbit of prime-to-p character parts.
    """
    parts = frozenset(e.prime_to_p_component(chi) for chi in e.orbit)
    return (e.Q, parts)


def ramtype_qualifies(e: PrimitiveIdempotent, I: IdealPower, inertia_gens, decomposition_gens):
    """Ramification-type test against the ideal I = 𝔪^d.

    True iff a generator γ of the (cyclic, nontrivial) inertia subgroup
    has image-ideal valuation >= d, and every element of the
    decomposition subgroup acts trivially on the ring mod 𝔪^d.  Any
    generator serves: χ(γ^u) = χ(γ)^u for u prime to |γ| has the same
    order, so the same image ideal.  The residue-characteristic
    exclusion is the caller's responsibility.
    """
    G = e.group
    inertia = G.subgroup_generated(inertia_gens)
    decomp = G.subgroup_generated(decomposition_gens)
    if not inertia <= decomp:
        raise ValueError("inertia must lie inside the decomposition subgroup")
    gen = next((g for g in inertia if G.element_order(g) == len(inertia)), None)
    if gen is None:
        raise ValueError("inertia subgroup is not cyclic")
    cond_a = any(gen) and ideal_image_valuation(e, gen).d >= I.d
    cond_b = all(e.one_minus_value_valuation(g) >= I.d for g in decomp)
    return cond_a and cond_b
