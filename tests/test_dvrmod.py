from hypothesis import given, settings, strategies as st

import pytest

from dvrstat.dvrmod import (
    ModuleType,
    aut_count,
    gaussian_binomial,
    hom_count,
    ideal_ops,
    module_types,
    partitions_of,
    partitions_upto,
    sur_count,
    weight,
)

partition = st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
qs = st.sampled_from([2, 3, 4, 5])


def test_module_type_validation():
    assert ModuleType(2, (1, 2)).parts == (2, 1)  # canonicalized
    with pytest.raises(ValueError):
        ModuleType(2, (0,))
    with pytest.raises(ValueError):
        ModuleType(1, (1,))
    for Q in (6, 12, 0):
        with pytest.raises(ValueError, match="not a prime power"):
            ModuleType(Q, (1,))


def test_conjugate_partition():
    assert ModuleType(2, (3, 1)).conjugate() == (2, 1, 1)
    assert ModuleType(2, ()).conjugate() == ()


def test_reference_counts():
    # cyclic Z/Q^2 onto Z/Q: Q - 1 surjections at Q = 2, 2 at Q = 3
    assert sur_count(ModuleType(2, (2,)), ModuleType(2, (1,))) == 1
    assert sur_count(ModuleType(3, (2,)), ModuleType(3, (1,))) == 2
    # (1,1) onto (1,1) over F2 is GL(2, 2)
    assert sur_count(ModuleType(2, (1, 1)), ModuleType(2, (1, 1))) == 6
    assert aut_count(ModuleType(2, (2, 1))) == 8
    assert hom_count(ModuleType(2, (2, 1)), ModuleType(2, (1,))) == 4


def test_sur_zero_when_rank_insufficient():
    assert sur_count(ModuleType(2, (3,)), ModuleType(2, (1, 1))) == 0
    assert sur_count(ModuleType(2, (1,)), ModuleType(2, (2,))) == 0


@given(qs, partition, partition)
@settings(max_examples=80, deadline=None)
def test_sur_at_most_hom(Q, lam, mu):
    M, N = ModuleType(Q, lam), ModuleType(Q, mu)
    assert 0 <= sur_count(M, N) <= hom_count(M, N)


@given(qs, partition)
@settings(max_examples=60, deadline=None)
def test_hom_symmetric_and_aut_positive(Q, lam):
    M = ModuleType(Q, lam)
    # the lower bound `counts` refuses an unprintable |Aut| by
    assert aut_count(M) >= Q ** (sum(M.parts) - M.rank) >= 1
    for mu in [(1,), (2, 1)]:
        N = ModuleType(Q, mu)
        assert hom_count(M, N) == hom_count(N, M)


@given(qs, partition, st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_ideal_ops_shapes(Q, lam, d):
    M = ModuleType(Q, lam)
    ops = ideal_ops(M, d)
    assert ops.image.size * ops.torsion.size == M.size
    expect_rank = sum(1 for a in lam if a >= d) if d else len(lam)
    assert ops.rank == expect_rank
    assert ideal_ops(ops.closure, d).image == M


@given(qs, partition, partition, st.integers(min_value=0, max_value=2))
@settings(max_examples=120, deadline=None)
def test_weight_identity(Q, lam, mu, d):
    M, H = ModuleType(Q, lam), ModuleType(Q, mu)
    if H.parts and H.parts[-1] <= d and d > 0:
        return
    lhs = sur_count(M, H)
    oM, oH = ideal_ops(M, d), ideal_ops(H, d)
    assert lhs == weight(M, H, d) * sur_count(oM.image, oH.image)


def test_weight_rejects_non_closure():
    with pytest.raises(ValueError):
        weight(ModuleType(2, (2,)), ModuleType(2, (1,)), 1)


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 5, 7) == 1
    assert gaussian_binomial(5, 0, 7) == 1


def test_partition_helpers():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_upto(3)) == 1 + 1 + 2 + 3
    assert len(module_types(2, 2, 2)) == len([(), (1,), (2,), (1, 1), (2, 1), (2, 2)])
