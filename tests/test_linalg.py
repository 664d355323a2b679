import itertools as it
import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from dvrstat.abelian import closure
from dvrstat.linalg import (
    _ext_gcd,
    congruence_kernel,
    hensel_lift_factor,
    identity_matrix,
    kernel_mod,
    mat_mul,
    mat_vec,
    p_echelon,
    poly_add_scaled,
    poly_divmod,
    poly_ext_gcd_modp,
    poly_mul,
    poly_trim,
    quotient_structure,
    smith_normal_form,
)


def test_poly_ext_gcd_modp_exhaustive_small_fields():
    for p in (3, 5):
        polys = [list(c) for c in it.product(range(p), repeat=3)]  # degree <= 2
        for a, b in it.product(polys, repeat=2):
            if not poly_trim(list(a)) and not poly_trim(list(b)):
                continue
            g, s, t = poly_ext_gcd_modp(a, b, p)
            assert g and g[-1] == 1
            assert poly_add_scaled(poly_mul(s, a, p), poly_mul(t, b, p), 1, p) == g
            assert not poly_divmod(a, g, p)[1] and not poly_divmod(b, g, p)[1]


def test_poly_ext_gcd_modp_non_monic_remainder():
    # coprime over F_3; the first remainder 2 is not monic
    assert poly_ext_gcd_modp([1, 0, 1], [1, 2], 3)[0] == [1]


def test_hensel_lift_factor_odd_p():
    # z^2 + 1 = (z + 2)(z + 3) mod 5: lift the square root of -1 to Z/125
    U, V = hensel_lift_factor([1, 0, 1], [2, 1], 5, 3)
    assert poly_mul(U, V, 125) == [1, 0, 1]
    assert [x % 5 for x in U] == [2, 1] and U[-1] == V[-1] == 1
    assert (U[0] ** 2 + 1) % 125 == 0


def test_caller_input_errors_are_value_errors():
    # checks on caller input must not be asserts, which -O strips
    with pytest.raises(ValueError, match="divisor must be monic"):
        poly_divmod([1, 2], [1, 2], 5)
    with pytest.raises(ValueError, match="u does not divide F mod p"):
        hensel_lift_factor([1, 0, 1], [1, 1], 5, 3)
    with pytest.raises(ValueError, match="factor not coprime to cofactor mod p"):
        hensel_lift_factor([1, 2, 1], [1, 1], 5, 3)  # (z + 1)^2
    _, _, coords = kernel_mod([[1, 1]], 4, 2)
    with pytest.raises(ValueError, match="vector not in solution group"):
        coords([1, 0])


small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=m, max_size=m)))


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_smith_normal_form_column_side(A):
    m, n = len(A), len(A[0])
    D, V, Vinv = smith_normal_form(A)
    assert mat_mul(V, Vinv) == identity_matrix(n)
    diag = [D[t][t] for t in range(min(m, n))]
    assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert diag == [int(d) for d in invariant_factors(Matrix(A), domain=ZZ)]
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    # A V = U^-1 D: column t of A V is d_t times a column of U^-1
    AV = mat_mul(A, V)
    for t in range(n):
        d = diag[t] if t < len(diag) else 0
        assert all(row[t] % d == 0 if d else row[t] == 0 for row in AV)


def _full_scan_snf(A):
    """The Smith normal form as it was before its pivot search stopped at
    the first |a| = 1: every search scans the whole remaining matrix."""
    m, n = len(A), len(A[0])
    D, V, Vinv = [list(row) for row in A], identity_matrix(n), identity_matrix(n)

    def cols(i, j, R, Rinv):
        # cols i, j of D and V <- (cols i, j) @ R; rows i, j of Vinv <- Rinv @ (rows i, j)
        for M in (D, V):
            for r in M:
                r[i], r[j] = r[i] * R[0][0] + r[j] * R[1][0], r[i] * R[0][1] + r[j] * R[1][1]
        a, b = Vinv[i], Vinv[j]
        Vinv[i] = [Rinv[0][0] * x + Rinv[0][1] * y for x, y in zip(a, b)]
        Vinv[j] = [Rinv[1][0] * x + Rinv[1][1] * y for x, y in zip(a, b)]

    for t in range(min(m, n)):
        while True:
            entries = [(abs(D[i][j]), i, j) for i in range(t, m) for j in range(t, n) if D[i][j]]
            if not entries:
                break
            _, pi, pj = min(entries)
            D[t], D[pi] = D[pi], D[t]
            if pj != t:
                cols(t, pj, [[0, 1], [1, 0]], [[0, 1], [1, 0]])
            if D[t][t] < 0:
                D[t] = [-a for a in D[t]]
            p = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                D[i] = [a - D[i][t] // p * b for a, b in zip(D[i], D[t])]
                dirty = dirty or D[i][t] != 0
            for j in range(t + 1, n):
                q = D[t][j] // p
                if q:
                    cols(t, j, [[1, -q], [0, 1]], [[1, q], [0, 1]])
                dirty = dirty or D[t][j] != 0
            if not dirty:
                break
        if D[t][t] == 0:
            break
    changed = True
    while changed:
        changed = False
        for t in range(min(m, n) - 1):
            a, b = D[t][t], D[t + 1][t + 1]
            if a and b and b % a:
                g = math.gcd(a, b)
                _, x, y = _ext_gcd(a, b)
                rt, rs = D[t], D[t + 1]
                D[t] = [x * u + y * v for u, v in zip(rt, rs)]
                D[t + 1] = [-b // g * u + a // g * v for u, v in zip(rt, rs)]
                cols(t, t + 1, [[1, -(y * b) // g], [1, (x * a) // g]],
                     [[(x * a) // g, (y * b) // g], [-1, 1]])
                changed = True
    return D, V, Vinv


def test_smith_normal_form_matches_full_scan():
    # the pivot search stops at the first |a| = 1, which no later entry
    # can beat, so D, V and V⁻¹ stay bit-for-bit those of the full scan
    rng = random.Random(0)
    for trial in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        lo = rng.choice([1, 2, 9])
        A = [[rng.randint(-lo, lo) * rng.choice([0, 1, 1, 2, 4]) for _ in range(n)] for _ in range(m)]
        if trial % 2:  # the [A | diag(mods)] shape of quotient_structure
            A = [row + [rng.choice([2, 4, 8, 9]) if i == j else 0 for j in range(m)] for i, row in enumerate(A)]
        assert smith_normal_form(A) == _full_scan_snf(A)


def _per_column_snf(A, m, n):
    """The Smith normal form as it was before its column pass was batched:
    after each pivot's row pass, col j -= q_j · col t one j at a time."""
    D, V, Vinv = [list(row) for row in A], identity_matrix(n), identity_matrix(n)

    def col_swap(i, j):
        for r in D + V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_addmul(dst, src, t):
        for r in D + V:
            r[dst] += t * r[src]
        Vinv[src] = [a - t * b for a, b in zip(Vinv[src], Vinv[dst])]

    for t in range(min(m, n)):
        while True:
            piv, best = None, None
            for i in range(t, m):
                for j in range(t, n):
                    a = abs(D[i][j])
                    if a and (best is None or a < best):
                        best, piv = a, (i, j)
                        if a == 1:
                            break
                if best == 1:
                    break
            if piv is None:
                break
            D[t], D[piv[0]] = D[piv[0]], D[t]
            if piv[1] != t:
                col_swap(t, piv[1])
            if D[t][t] < 0:
                D[t] = [-a for a in D[t]]
            p = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                q = D[i][t] // p
                if q:
                    D[i] = [a - q * b for a, b in zip(D[i], D[t])]
                dirty = dirty or D[i][t] != 0
            for j in range(t + 1, n):
                q = D[t][j] // p
                if q:
                    col_addmul(j, t, -q)
                dirty = dirty or D[t][j] != 0
            if not dirty:
                break
        if D[t][t] == 0:
            break
    changed = True
    while changed:
        changed = False
        for t in range(min(m, n) - 1):
            a, b = D[t][t], D[t + 1][t + 1]
            if a and b and b % a:
                g = math.gcd(a, b)
                _, x, y = _ext_gcd(a, b)
                rt, rs = D[t], D[t + 1]
                D[t] = [x * u + y * v for u, v in zip(rt, rs)]
                D[t + 1] = [-b // g * u + a // g * v for u, v in zip(rt, rs)]
                R, Rinv = [[1, -(y * b) // g], [1, (x * a) // g]], [[(x * a) // g, (y * b) // g], [-1, 1]]
                for r in D + V:
                    r[t], r[t + 1] = r[t] * R[0][0] + r[t + 1] * R[1][0], r[t] * R[0][1] + r[t + 1] * R[1][1]
                rt, rs = Vinv[t], Vinv[t + 1]
                Vinv[t] = [Rinv[0][0] * u + Rinv[0][1] * v for u, v in zip(rt, rs)]
                Vinv[t + 1] = [Rinv[1][0] * u + Rinv[1][1] * v for u, v in zip(rt, rs)]
                changed = True
    return D, V, Vinv


def test_smith_normal_form_column_pass_matches_per_column(monkeypatch):
    # each q_j reads off pivot row t before any column moves, so the one
    # pass over the rows of D and V and the one sum into V⁻¹[t] leave D,
    # V and V⁻¹ bit-for-bit those of col_addmul column by column
    rng = random.Random(1)
    for trial in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 9)
        A = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        if trial % 2:  # [A | diag(mods)], as quotient_structure builds it
            A = [row + [rng.choice([2, 3, 4, 8, 9, 27]) if i == j else 0 for j in range(m)]
                 for i, row in enumerate(A)]
            n += m
        assert smith_normal_form(A, m=m, n=n) == _per_column_snf(A, m, n)
    # the cocycle system of enumerate_extensions on a Z/4 module of order 8
    from dvrstat import linalg, oracle
    from dvrstat.abelian import FiniteAbelianGroup
    from dvrstat.dvrmod import ModuleType
    from dvrstat.idempotents import enumerate_idempotents

    systems = []
    kernel = linalg.kernel_mod
    monkeypatch.setattr(linalg, "kernel_mod", lambda B, L, ncols: systems.append((B, ncols)) or kernel(B, L, ncols))
    e = enumerate_idempotents(FiniteAbelianGroup((4,)), 2)[1]
    oracle.enumerate_extensions(oracle.realize(e, ModuleType(2, (2, 1))), refine=False)
    (B, ncols), = systems
    assert (len(B), ncols) == (72, 18)  # 3³·k + 3²·k rows in 3²·k unknowns, k = 2
    assert smith_normal_form(B, m=len(B), n=ncols) == _per_column_snf(B, len(B), ncols)


# (mods, number of generators): ambient groups of order <= 72
QUOTIENT_SHAPES = [((2,), 0), ((2,), 1), ((8,), 2), ((9,), 1), ((2, 3), 0), ((4, 2), 1), ((4, 4), 2),
                   ((3, 9), 2), ((8, 9), 1), ((2, 2, 2), 2), ((2, 4, 8), 1), ((1, 3, 3), 2), ((2, 3, 4), 3)]


def test_quotient_structure_matches_brute_force():
    # Z^2 / <(2, 0), (0, 3)> is cyclic of order 6
    assert quotient_structure([2, 3], [])[0] == [6]
    rng = random.Random(0)
    for mods, ngens in QUOTIENT_SHAPES:
        ambient = list(it.product(*(range(md) for md in mods)))
        for _ in range(3):
            gens = [[rng.randrange(-9, 10) for _ in mods] for _ in range(ngens)]
            orders, proj, lift = quotient_structure(list(mods), gens)

            def reduce(x):
                return tuple(a % md for a, md in zip(x, mods))

            def image(x):
                return tuple(c % o for c, o in zip(mat_vec(proj, x), orders))

            S = closure([reduce([0] * len(mods))],
                        lambda x: [reduce([a + b for a, b in zip(x, gen)]) for gen in gens])
            assert math.prod(orders) * len(S) == len(ambient)
            assert all(o > 1 for o in orders)
            assert all(not any(image(gen)) for gen in gens)
            assert [image(col) for col in zip(*lift)] == [tuple(row) for row in identity_matrix(len(orders))]
            for x, y in it.product(ambient, repeat=2):
                assert (image(x) == image(y)) == (reduce([a - b for a, b in zip(x, y)]) in S)


# (rows, unknowns, L)
KERNEL_SHAPES = [(0, 2, 4), (1, 1, 8), (1, 2, 4), (1, 3, 2), (2, 2, 9), (2, 3, 4), (3, 2, 8), (2, 2, 6)]


def test_kernel_mod_matches_brute_force():
    rng = random.Random(0)
    for m, ncols, L in KERNEL_SHAPES:
        for _ in range(4):
            B = [[rng.randrange(-9, 10) for _ in range(ncols)] for _ in range(m)]
            gens, orders, coords = kernel_mod(B, L, ncols)
            solutions = [y for y in it.product(range(L), repeat=ncols)
                         if all(c % L == 0 for c in mat_vec(B, y))]
            assert all(not any(c % L for c in mat_vec(B, gen)) for gen in gens)
            assert all(o > 1 for o in orders) and math.prod(orders) == len(solutions)
            assert sorted(coords(y) for y in solutions) == list(it.product(*(range(o) for o in orders)))


# (mods, wmods): rows mod mods and unknowns mod wmods, powers of one
# prime p in {2, 3, 5}, with no rows, no unknowns, and the unknown
# moduli the oracle passes: the rows' own (a norm kernel), the largest
# one repeated (a submodule's generators), and the concatenation of two
# modules' orders (a Γ-hom's entries, a fiber's X ⊕ Y)
CONGRUENCE_SHAPES = [((), (4, 2)), ((8,), ()), ((4, 2), ()), ((1, 4), (2, 4)), ((8,), (8, 8)),
                     ((9,), (3, 9)), ((2, 4), (4, 2, 8)), ((3, 9, 27), (9, 3)), ((25, 5), (5, 25)),
                     ((5,), (5, 5, 5)), ((4, 2), (4, 2)), ((9, 3), (9, 3)), ((8, 2), (8, 8)),
                     ((4, 2, 4), (4, 2, 4, 2)), ((2,), (4, 2, 2))]


def test_congruence_kernel_matches_brute_force():
    rng = random.Random(0)
    for mods, wmods in CONGRUENCE_SHAPES:
        for _ in range(4):
            # A w is well defined on ⊕ Z/wmods
            A = [[rng.randrange(-9, 10) * (md // math.gcd(md, wm)) for wm in wmods] for md in mods]

            def image(w):
                return tuple(sum(a * x for a, x in zip(row, w)) % md for row, md in zip(A, mods))

            zero = image([0] * len(wmods))
            preimages = {}
            for w in it.product(*(range(wm) for wm in wmods)):
                preimages.setdefault(image(w), set()).add(w)
            echelon, solve = congruence_kernel(A, mods, wmods)
            kernel = [row for row in echelon[1] if row is not None]
            # the graph's echelon, cut to the w block, is the kernel's own
            assert echelon == p_echelon(kernel, wmods)
            assert all(image(row) == zero for row in kernel)
            span = closure([(0,) * len(wmods)],
                           lambda w: [tuple((x + c) % wm for x, c, wm in zip(w, row, wmods)) for row in kernel])
            assert span == preimages[zero]
            for b in it.product(*(range(md) for md in mods)):
                w = solve(b)
                assert (w is None) == (b not in preimages)
                assert w is None or tuple(w) in preimages[b]


def test_p_echelon_is_a_reduced_howell_form():
    # the rows at or past v generate the elements of <gens> that vanish
    # before v, each row is reduced below the later pivots, and the form
    # is the same for any generating set of the same subgroup
    rng = random.Random(1)
    for mods in [(4,), (8, 2), (2, 8), (4, 4), (9, 3, 27), (2, 4, 8), (5, 25), (4, 2, 4), (2, 2, 2, 2)]:
        for _ in range(8):
            gens = [[rng.randrange(-20, 20) for _ in mods] for _ in range(rng.randint(0, 4))]

            def span(vectors):
                return closure([(0,) * len(mods)],
                               lambda x: [tuple((a + b) % m for a, b, m in zip(x, g, mods)) for g in vectors])

            S = span(gens)
            steps, rows = p_echelon(gens, mods)
            assert math.prod(m // d for m, d in zip(mods, steps)) == len(S)
            for v in range(len(mods)):
                tail = [row for row in rows[v:] if row is not None]
                assert span(tail) == {x for x in S if not any(x[:v])}
                if rows[v] is None:
                    assert steps[v] == mods[v]
                else:
                    assert rows[v][v] == steps[v] < mods[v] and not any(rows[v][:v])
                    assert all(rows[v][w] < steps[w] for w in range(v + 1, len(mods)))
            shuffled = rng.sample(sorted(S), len(S))
            assert p_echelon(shuffled, mods) == (steps, rows)
