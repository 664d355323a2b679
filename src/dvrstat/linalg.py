"""Exact integer linear algebra: Smith normal form with transforms,
linear congruence solving, and structure of subgroups/quotients of
finite abelian groups given by generator matrices.

All matrices are lists of lists of Python ints; nothing here knows
about modules or group actions.
"""

import math
from fractions import Fraction


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n = len(A)
    m = len(B[0]) if B else 0
    k = len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    oi[j] += a * Bt[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def smith_normal_form(A, m=None, n=None):
    """Diagonalize A over Z: returns (D, U, Uinv, V, Vinv) with
    U @ A @ V = D, U and V unimodular, diagonal d_1 | d_2 | ... >= 0.
    """
    if m is None:
        m = len(A)
    if n is None:
        n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    U = identity_matrix(m)
    Uinv = identity_matrix(m)
    V = identity_matrix(n)
    Vinv = identity_matrix(n)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_addmul(dst, src, t):
        # row dst += t * row src
        D[dst] = [a + t * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + t * b for a, b in zip(U[dst], U[src])]
        for r in Uinv:
            r[src] -= t * r[dst]

    def col_addmul(dst, src, t):
        # col dst += t * col src
        for r in D:
            r[dst] += t * r[src]
        for r in V:
            r[dst] += t * r[src]
        Vinv[src] = [a - t * b for a, b in zip(Vinv[src], Vinv[dst])]

    def row_negate(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    def left_2x2(t, L, Linv):
        # rows t, t+1 <- L @ (rows t, t+1); transforms updated to match
        for M in (D, U):
            rt, rs = M[t], M[t + 1]
            M[t] = [L[0][0] * a + L[0][1] * b for a, b in zip(rt, rs)]
            M[t + 1] = [L[1][0] * a + L[1][1] * b for a, b in zip(rt, rs)]
        for r in Uinv:
            a, b = r[t], r[t + 1]
            r[t] = a * Linv[0][0] + b * Linv[1][0]
            r[t + 1] = a * Linv[0][1] + b * Linv[1][1]

    def right_2x2(t, R, Rinv):
        # cols t, t+1 <- (cols t, t+1) @ R
        for M in (D,):
            for r in M:
                a, b = r[t], r[t + 1]
                r[t] = a * R[0][0] + b * R[1][0]
                r[t + 1] = a * R[0][1] + b * R[1][1]
        for r in V:
            a, b = r[t], r[t + 1]
            r[t] = a * R[0][0] + b * R[1][0]
            r[t + 1] = a * R[0][1] + b * R[1][1]
        rt, rs = Vinv[t], Vinv[t + 1]
        Vinv[t] = [Rinv[0][0] * a + Rinv[0][1] * b for a, b in zip(rt, rs)]
        Vinv[t + 1] = [Rinv[1][0] * a + Rinv[1][1] * b for a, b in zip(rt, rs)]

    for t in range(min(m, n)):
        while True:
            piv = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    a = abs(D[i][j])
                    if a and (best is None or a < best):
                        best = a
                        piv = (i, j)
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if D[t][t] < 0:
                row_negate(t)
            p = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                q = D[i][t] // p
                if q:
                    row_addmul(i, t, -q)
                if D[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                q = D[t][j] // p
                if q:
                    col_addmul(j, t, -q)
                if D[t][j]:
                    dirty = True
            if not dirty:
                break
        if t >= m or t >= n or D[t][t] == 0:
            break

    # enforce the divisibility chain d_t | d_{t+1}
    r = min(m, n)
    changed = True
    while changed:
        changed = False
        for t in range(r - 1):
            a, b = D[t][t], D[t + 1][t + 1]
            if a and b and b % a != 0:
                g = math.gcd(a, b)
                # x*a + y*b = g; replace diag(a,b) by diag(g, a*b/g)
                x, y = _bezout(a, b)
                L = [[x, y], [-b // g, a // g]]
                Linv = [[a // g, -y], [b // g, x]]
                R = [[1, -(y * b) // g], [1, (x * a) // g]]
                Rinv = [[(x * a) // g, (y * b) // g], [-1, 1]]
                left_2x2(t, L, Linv)
                right_2x2(t, R, Rinv)
                assert D[t][t] == g and D[t + 1][t + 1] == a * b // g
                assert D[t][t + 1] == 0 and D[t + 1][t] == 0
                changed = True
    return D, U, Uinv, V, Vinv


def _bezout(a, b):
    g, x, y = _ext_gcd(a, b)
    return x, y


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def lattice_quotient(dim, cols):
    """Structure of Z^dim / L where L is spanned by the given columns
    (each a length-dim vector).  L must have full rank (finite quotient).

    Returns (orders, proj, lift): the quotient is ⊕ Z/orders[t]; an
    ambient vector x has quotient coordinates (proj @ x) mod orders, and
    lift maps quotient coordinates to an ambient representative.
    """
    if dim == 0:
        return [], [], []
    A = [[cols[j][i] for j in range(len(cols))] for i in range(dim)]
    D, U, Uinv, V, Vinv = smith_normal_form(A, m=dim, n=len(cols))
    orders, keep = [], []
    for t in range(dim):
        d = D[t][t] if t < len(cols) else 0
        assert d != 0, "lattice not of full rank"
        if d > 1:
            orders.append(d)
            keep.append(t)
    proj = [U[t] for t in keep]
    lift = [[Uinv[i][t] for t in keep] for i in range(dim)]
    return orders, proj, lift


def quotient_structure(mods, gens):
    """Structure of (⊕_i Z/mods[i]) / <gens> with coordinate transforms.

    gens: list of length-k vectors.  Returns (orders, proj, lift).
    """
    k = len(mods)
    cols = list(gens) + [[mods[i] if i == j else 0 for i in range(k)] for j in range(k)]
    return lattice_quotient(k, cols)


def integer_kernel(A, m, n):
    """Basis (list of length-n columns) of the integer kernel of the m x n matrix A."""
    D, U, Uinv, V, Vinv = smith_normal_form(A, m=m, n=n)
    out = []
    for j in range(n):
        d = D[j][j] if j < m else 0
        if d == 0:
            out.append([V[i][j] for i in range(n)])
    return out


def solve_congruence(A, b, mods):
    """One solution x of A x ≡ b componentwise (row i mod mods[i]), or None.

    A: m x n integer matrix, b: length m, mods: length m of moduli >= 1.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0:
        return [0] * n
    L = 1
    for md in mods:
        L = L * md // math.gcd(L, md)
    As = [[(L // mods[i]) * a for a in A[i]] for i in range(m)]
    bs = [(L // mods[i]) * b[i] for i in range(m)]
    D, U, Uinv, V, Vinv = smith_normal_form(As, m=m, n=n)
    c = mat_vec(U, bs)
    y = [0] * n
    for t in range(m):
        d = D[t][t] if t < n else 0
        rhs = c[t] % L
        if d == 0:
            if rhs != 0:
                return None
            continue
        g = math.gcd(d, L)
        if rhs % g != 0:
            return None
        y[t] = (rhs // g) * pow(d // g, -1, L // g) % (L // g)
    return mat_vec(V, y)


def kernel_mod(B, L, ncols):
    """Solution group of B y ≡ 0 (mod L) inside (Z/L)^ncols.

    Returns (gens, orders, coords): gens[t] generates a cyclic factor of
    order orders[t] > 1; coords(y) returns the coordinates of a solution
    y in ⊕ Z/orders[t] (asserting membership).
    """
    m = len(B)
    if m == 0:
        B = [[0] * ncols]
        m = 1
    D, U, Uinv, V, Vinv = smith_normal_form(B, m=m, n=ncols)
    svec, orders, keep = [], [], []
    for t in range(ncols):
        d = D[t][t] if t < m else 0
        s = L // math.gcd(d, L)
        svec.append(s)
        if L // s > 1:
            orders.append(L // s)
            keep.append(t)
    gens = [[(svec[t] * V[i][t]) % L for i in range(ncols)] for t in keep]

    def coords(y):
        w = [x % L for x in mat_vec(Vinv, y)]
        out = []
        for t in range(ncols):
            assert w[t] % svec[t] == 0, "vector not in solution group"
            if t in keep:
                out.append((w[t] // svec[t]) % (L // svec[t]))
        return tuple(out)

    return gens, orders, coords


# ---------------------------------------------------------------------------
# polynomial arithmetic with coefficient lists (index = degree)

def poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b, mod):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % mod
    return poly_trim(out)


def poly_sub(a, b, mod):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % mod for i in range(n)]
    return poly_trim(out)


def poly_add_scaled(a, b, scale, mod):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + scale * (b[i] if i < len(b) else 0)) % mod for i in range(n)]
    return poly_trim(out)


def poly_divmod(a, b, mod):
    """Division with remainder by a monic polynomial b, coefficients mod `mod`."""
    assert b and b[-1] % mod == 1, "divisor must be monic"
    a = [x % mod for x in a]
    poly_trim(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] % mod
        d = len(a) - len(b)
        q[d] = c
        for i in range(len(b)):
            a[d + i] = (a[d + i] - c * b[i]) % mod
        poly_trim(a)
    return poly_trim(q), a


def poly_ext_gcd_modp(a, b, p):
    """(g, s, t) with s a + t b = g over F_p, g monic."""
    r0, r1 = poly_trim([x % p for x in a]), poly_trim([x % p for x in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        q, r = poly_divmod(r0, [x * inv % p for x in r1], p)
        q = [x * inv % p for x in q]  # r0 = q·r1 + r
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = [x * inv % p for x in r0]
        s0 = [x * inv % p for x in s0]
        t0 = [x * inv % p for x in t0]
    return r0, s0, t0


def hensel_lift_factor(F, u, p, N):
    """Lift a monic factor u of the monic F from mod p to mod p^N.

    Returns (U, Vc) monic with U*Vc ≡ F mod p^N and U ≡ u mod p.
    Requires gcd(u, F/u) = 1 mod p (true for squarefree F).
    """
    u = poly_trim([x % p for x in u])
    v, rem = poly_divmod([x % p for x in F], u, p)
    assert not rem, "u does not divide F mod p"
    g, a, b = poly_ext_gcd_modp(u, v, p)
    assert g == [1], "factor not coprime to cofactor mod p"
    U, Vc = list(u), list(v)
    pj = p
    for _ in range(1, N):
        mod = pj * p
        E = poly_sub([x % mod for x in F], poly_mul(U, Vc, mod), mod)
        assert all(x % pj == 0 for x in E)
        Ered = poly_trim([(x // pj) % p for x in E])
        # solve du*v + dv*u = Ered over F_p with deg du < deg u
        du = poly_divmod(poly_mul(b, Ered, p), u, p)[1]
        dv, rem2 = poly_divmod(poly_sub(Ered, poly_mul(du, v, p), p), u, p)
        assert not rem2
        U = poly_add_scaled(U, du, pj, mod)
        Vc = poly_add_scaled(Vc, dv, pj, mod)
        pj = mod
    q, rem = poly_divmod([x % p**N for x in F], U, p**N)
    assert not rem, "hensel lift lost the factorization"
    return U, q


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
