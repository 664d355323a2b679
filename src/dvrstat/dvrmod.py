"""Partition calculus for finite modules over a DVR whose residue field
has Q elements: sizes, ranks, ideal operations, closures, and exact
Hom/Sur/Aut counts with the weight-function factorization.

A module is named by its partition λ: ⊕_i R/𝔪^{λ_i}.  The counting
identities here are validated elementwise by the oracle module.
"""

import itertools
from dataclasses import dataclass

from .abelian import prime_power_split


@dataclass(frozen=True)
class ModuleType:
    """Partition type of a finite DVR-module; parts weakly decreasing > 0."""

    Q: int
    parts: tuple

    def __post_init__(self):
        parts = tuple(sorted((int(x) for x in self.parts), reverse=True))
        object.__setattr__(self, "parts", parts)
        prime_power_split(self.Q)
        if parts and parts[-1] < 1:
            raise ValueError("parts must be positive")

    @property
    def size(self):
        return self.Q ** sum(self.parts)

    @property
    def rank(self):
        return len(self.parts)

    def conjugate(self):
        if not self.parts:
            return ()
        return tuple(sum(1 for a in self.parts if a >= j) for j in range(1, self.parts[0] + 1))


@dataclass(frozen=True)
class IdealOps:
    """The standard operations at I = 𝔪^d."""

    image: ModuleType        # I·M
    torsion: ModuleType      # M[I], which has the partition of M/IM
    rank: int                # rk_I M = #{i : λ_i >= d}
    closure: ModuleType      # the I-closure, parts λ_i + d


def _check_Q(M, N):
    if M.Q != N.Q:
        raise ValueError("residue field size mismatch")


def ideal_ops(M: ModuleType, d: int) -> IdealOps:
    if d < 0:
        raise ValueError("ideal exponent must be >= 0")
    lam = M.parts
    image = ModuleType(M.Q, tuple(a - d for a in lam if a > d))
    tor = ModuleType(M.Q, tuple(min(a, d) for a in lam if min(a, d) > 0))
    rank = sum(1 for a in lam if a >= d)
    closure = ModuleType(M.Q, tuple(a + d for a in lam))
    return IdealOps(image=image, torsion=tor, rank=rank, closure=closure)


def hom_count(M: ModuleType, N: ModuleType) -> int:
    _check_Q(M, N)
    return M.Q ** sum(min(a, b) for a in M.parts for b in N.parts)


def sur_count(M: ModuleType, N: ModuleType) -> int:
    """Exact number of surjections M → N.

    A homomorphism is surjective iff its reduction mod 𝔪 is (Nakayama);
    an entry of the reduced matrix can be nonzero only when λ_i >= μ_j,
    giving a staircase full-rank count on top of the Hom count.
    """
    _check_Q(M, N)
    Q = M.Q
    lam, mu = M.parts, N.parts
    cols = [sum(1 for a in lam if a >= b) for b in mu]  # μ descending ⇒ cols ascending
    prod = 1
    for j, r in enumerate(cols):
        if r <= j:
            return 0
        prod *= Q**r - Q**j
    exp = sum(min(a, b) for a in lam for b in mu) - sum(cols)
    return Q**exp * prod


def aut_count(M: ModuleType) -> int:
    return sur_count(M, M)


def weight(M: ModuleType, H: ModuleType, d: int) -> int:
    """#Hom(M, H[I]) gated on Sur(M, H/IH) being nonempty, I = 𝔪^d.

    Requires H to be an I-closure: every part of H exceeds d.  Satisfies
    sur_count(M, H) = weight(M, H, d) * sur_count(IM, IH).
    """
    _check_Q(M, H)
    if d < 0:
        raise ValueError("ideal exponent must be >= 0")
    if H.parts and H.parts[-1] <= d and d > 0:
        raise ValueError("H is not the closure of IH at this depth")
    ops = ideal_ops(H, d)
    if sur_count(M, ops.torsion) == 0:
        return 0
    return hom_count(M, ops.torsion)


def gaussian_binomial(a: int, b: int, Q: int) -> int:
    if not a >= b >= 0:
        raise ValueError("need a >= b >= 0")
    num = den = 1
    for i in range(b):
        num *= Q ** (a - i) - 1
        den *= Q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def partitions_of(m, cap=None):
    if cap is None:
        cap = m
    if m == 0:
        return [()]
    out = []
    for first in range(min(m, cap), 0, -1):
        for rest in partitions_of(m - first, first):
            out.append((first,) + rest)
    return out


def module_types(Q, max_part, max_rank):
    """All ModuleTypes with bounded part size and rank (the zero module included)."""
    out = [ModuleType(Q, ())]
    for r in range(1, max_rank + 1):
        for parts in itertools.combinations_with_replacement(range(1, max_part + 1), r):
            out.append(ModuleType(Q, tuple(sorted(parts, reverse=True))))
    return out
