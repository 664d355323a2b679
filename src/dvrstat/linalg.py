"""Exact integer linear algebra: Smith normal form with column transforms,
the structure of subgroups/quotients of finite abelian groups given by
generator matrices, and, over moduli that are powers of one prime, a
reduced echelon form with the linear congruences solved on it.

All matrices are lists of lists of Python ints; nothing here knows
about modules or group actions.
"""

import math
import operator


def identity_matrix(n):
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


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
    return [sum(map(operator.mul, row, v)) for row in A]


def smith_normal_form(A, m=None, n=None):
    """Diagonalize A over Z: returns (D, V, Vinv) with U @ A @ V = D for
    some unimodular U, V unimodular, diagonal d_1 | d_2 | ... >= 0.

    Only the column transform is kept.  Callers that need rows of U or
    columns of U⁻¹ read them off U @ A = D @ Vinv and A @ V = U⁻¹ @ D.
    """
    if m is None:
        m = len(A)
    if n is None:
        n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    V = identity_matrix(n)
    Vinv = identity_matrix(n)

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def left_2x2(t, L):
        # rows t, t+1 <- L @ (rows t, t+1)
        rt, rs = D[t], D[t + 1]
        D[t] = [L[0][0] * a + L[0][1] * b for a, b in zip(rt, rs)]
        D[t + 1] = [L[1][0] * a + L[1][1] * b for a, b in zip(rt, rs)]

    def right_2x2(t, R, Rinv):
        # cols t, t+1 <- (cols t, t+1) @ R
        for r in D:
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
            # the least |a|, first in row-major order; no later entry
            # beats |a| = 1, so the scan stops there
            piv = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    a = abs(D[i][j])
                    if a and (best is None or a < best):
                        best = a
                        piv = (i, j)
                        if a == 1:
                            break
                if best == 1:
                    break
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                D[t], D[pi] = D[pi], D[t]
            if pj != t:
                col_swap(t, pj)
            if D[t][t] < 0:
                D[t] = [-a for a in D[t]]
            p = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                q = D[i][t] // p
                if q:
                    D[i] = [a - q * b for a, b in zip(D[i], D[t])]
                if D[i][t]:
                    dirty = True
            # col j -= q_j * col t for every j > t at once: column t is
            # fixed meanwhile, so each q_j reads off pivot row t first
            qs = [(j, a // p) for j, a in enumerate(D[t][t + 1:], t + 1) if a // p]
            if qs:
                for M in (D, V):
                    for r in M:
                        c = r[t]
                        if c:
                            for j, q in qs:
                                r[j] -= c * q
                vt = Vinv[t]
                for j, q in qs:
                    vt = [a + q * b for a, b in zip(vt, Vinv[j])]
                Vinv[t] = vt
            if any(D[t][t + 1:]):
                dirty = True
            if not dirty:
                break
        if D[t][t] == 0:
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
                _, x, y = _ext_gcd(a, b)
                left_2x2(t, [[x, y], [-b // g, a // g]])
                right_2x2(t, [[1, -(y * b) // g], [1, (x * a) // g]], [[(x * a) // g, (y * b) // g], [-1, 1]])
                assert D[t][t] == g and D[t + 1][t + 1] == a * b // g
                assert D[t][t + 1] == 0 and D[t + 1][t] == 0
                changed = True
    return D, V, Vinv


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


def quotient_structure(mods, gens):
    """Structure of (⊕_i Z/mods[i]) / <gens> with coordinate transforms,
    for moduli mods[i] >= 1 and gens a list of length-k vectors.

    Returns (orders, proj, lift): the quotient is ⊕ Z/orders[t]; an
    ambient vector x has quotient coordinates (proj @ x) mod orders, and
    the columns of lift are ambient representatives of the quotient
    generators.  One SNF of A = [gens | diag(mods)] gives both: proj
    holds rows of U, read off U @ A = D @ Vinv at the diag(mods) columns,
    and lift holds columns of U⁻¹, read off A @ V = U⁻¹ @ D.
    """
    k, g = len(mods), len(gens)
    A = [[x[i] for x in gens] + [mods[i] if i == j else 0 for j in range(k)] for i in range(k)]
    D, V, Vinv = smith_normal_form(A, m=k, n=g + k)
    # diag(mods) gives A full row rank: D[t][t] >= 1 for every t < k
    keep = [t for t in range(k) if D[t][t] > 1]
    orders = [D[t][t] for t in keep]
    proj = [[D[t][t] * Vinv[t][g + j] // mods[j] for j in range(k)] for t in keep]
    lift = [[sum(a * V[c][t] for c, a in enumerate(row)) // D[t][t] for t in keep] for row in A]
    return orders, proj, lift


def p_echelon(gens, mods):
    """Reduced echelon form (a Howell form) of the subgroup S of
    ⊕ Z/mods generated by gens, for moduli that are powers of one prime.

    Returns (steps, rows): the elements of S that vanish before
    coordinate v have v-th coordinates steps[v]·Z/mods[v], and rows[v]
    (None when steps[v] = mods[v]) is the one among them with x_v =
    steps[v] and each later x_w in range(steps[w]); the rows at or past
    v generate them, and |S| = ∏ mods[v] / steps[v].
    """
    gens = [[x % m for x, m in zip(g, mods)] for g in gens]
    steps, rows = [], []
    for v, m in enumerate(mods):
        # every generator vanishes before v; the pivot has the least gcd
        # with m at v, which divides every other entry there
        live = [t for t, g in enumerate(gens) if g[v]]
        if not live:
            steps.append(m)
            rows.append(None)
            continue
        piv = gens.pop(min(live, key=lambda t: math.gcd(gens[t][v], m)))
        d = math.gcd(piv[v], m)
        u = pow(piv[v] // d, -1, m)  # prime to p, so a unit mod every modulus
        piv = [x * u % o for x, o in zip(piv, mods)]
        gens = [[(x - g[v] // d * y) % o for x, y, o in zip(g, piv, mods)] if g[v] else g
                for g in gens]
        gens.append([m // d * y % o for y, o in zip(piv, mods)])  # in S, 0 at v
        gens = [g for g in gens if any(g)]
        steps.append(d)
        rows.append(piv)
    for v, row in enumerate(rows):
        for w in range(v + 1, len(mods)):
            c = row[w] // steps[w] if row is not None else 0
            if c:
                row[:] = [(x - c * y) % o for x, y, o in zip(row, rows[w], mods)]
    return steps, rows


def congruence_kernel(A, mods, wmods):
    """The system A w ≡ b (row i mod mods[i]) for w in ⊕ Z/wmods, with A
    well defined there (wmods[j]·A[i][j] ≡ 0 mod mods[i]) and every
    modulus a power of one prime.

    Returns (kernel, solve): kernel is the reduced echelon (steps, rows)
    of the solutions of A w ≡ 0; solve(b) returns one w with A w ≡ b, or
    None if there is none.  Both come from one `p_echelon` of the graph
    {(A w, w)}, generated by the (A e_j, e_j): its part in the w block is
    the echelon of the (0, w) with A w ≡ 0, and reducing (b, 0) against
    its rows that pivot in the A block leaves (0, −w) exactly when A w ≡ b.
    """
    m = len(mods)
    allmods = [*mods, *wmods]
    graph = [[row[j] for row in A] + [int(i == j) for i in range(len(wmods))] for j in range(len(wmods))]
    steps, rows = p_echelon(graph, allmods)
    kernel = steps[m:], [None if row is None else row[m:] for row in rows[m:]]
    # the closure keeps only the rows it reads
    steps, rows = steps[:m], rows[:m]

    def solve(b):
        x = [c % o for c, o in zip(b, mods)] + [0] * len(wmods)
        for v, (d, row) in enumerate(zip(steps, rows)):
            q, r = divmod(x[v], d)
            if r:
                return None
            if q:
                x = [(a - q * c) % o for a, c, o in zip(x, row, allmods)]
        return [-c % o for c, o in zip(x[m:], wmods)]

    return kernel, solve


def kernel_mod(B, L, ncols):
    """Solution group of B y ≡ 0 (mod L) inside (Z/L)^ncols.

    Returns (gens, orders, coords): gens[t] generates a cyclic factor of
    order orders[t] > 1; coords(y) returns the coordinates of a solution
    y in ⊕ Z/orders[t] (ValueError if y is no solution).
    """
    m = len(B)
    D, V, Vinv = smith_normal_form(B, m=m, n=ncols)
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
            if w[t] % svec[t]:
                raise ValueError("vector not in solution group")
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


def poly_add_scaled(a, b, scale, mod):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + scale * (b[i] if i < len(b) else 0)) % mod for i in range(n)]
    return poly_trim(out)


def poly_divmod(a, b, mod):
    """Division with remainder by a monic polynomial b, coefficients mod `mod`."""
    if not b or b[-1] % mod != 1:
        raise ValueError("divisor must be monic")
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
        s0, s1 = s1, poly_add_scaled(s0, poly_mul(q, s1, p), -1, p)
        t0, t1 = t1, poly_add_scaled(t0, poly_mul(q, t1, p), -1, p)
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
    if rem:
        raise ValueError("u does not divide F mod p")
    g, a, b = poly_ext_gcd_modp(u, v, p)
    if g != [1]:
        raise ValueError("factor not coprime to cofactor mod p")
    U, Vc = list(u), list(v)
    pj = p
    for _ in range(1, N):
        mod = pj * p
        E = poly_add_scaled(F, poly_mul(U, Vc, mod), -1, mod)
        assert all(x % pj == 0 for x in E)
        Ered = poly_trim([(x // pj) % p for x in E])
        # solve du*v + dv*u = Ered over F_p with deg du < deg u
        du = poly_divmod(poly_mul(b, Ered, p), u, p)[1]
        dv, rem2 = poly_divmod(poly_add_scaled(Ered, poly_mul(du, v, p), -1, p), u, p)
        assert not rem2
        U = poly_add_scaled(U, du, pj, mod)
        Vc = poly_add_scaled(Vc, dv, pj, mod)
        pj = mod
    q, rem = poly_divmod([x % p**N for x in F], U, p**N)
    assert not rem, "hensel lift lost the factorization"
    return U, q
