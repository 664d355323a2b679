"""Exact arithmetic for the order-2 symmetry case: a reduced class-2
central cover of H ⋊ Z/2 for a finite abelian 2-group H, the lifting map
W sending lattice vectors into the cover kernel, power-solution counts,
the lattice sums b(H, q, n), and the weighted-moment ratio.

H is specified by its 2-exponents d_1 >= ... >= d_r (orders 2^{d_i}).
The cover kernel is ∏_{i<j} Z/2^{d_j - 1} ≅ ∧²(2H), with one central
commutator coordinate per generator pair.
"""

import itertools
import math
from fractions import Fraction

from .abelian import val_p


class NilClass2Cover:
    """Class-2 cover of H = ∏ Z/2^{d_i} generated by lifts x̃_i.

    Elements are (a, c): a are generator exponents mod 2^{d_i}, c the
    central commutator coordinates, one per pair i < j, mod 2^{d_j - 1}.
    Collection is left-to-right by generator index:
    x̃^a · x̃^b = x̃^{a+b} ∏_{i<j} [x̃_i, x̃_j]^{-a_j b_i}.
    """

    def __init__(self, ds):
        ds = tuple(int(d) for d in ds)
        if any(a < b for a, b in zip(ds, ds[1:])):
            raise ValueError(f"exponents {ds} must be sorted descending")
        if any(d < 1 for d in ds):
            raise ValueError(f"exponents {ds} must be positive")
        self.ds = ds
        self.r = len(ds)
        self.orders = tuple(2**d for d in ds)
        self.pairs = [(i, j) for i in range(self.r) for j in range(i + 1, self.r)]
        self.pair_mods = tuple(2 ** (ds[j] - 1) for _, j in self.pairs)

    # -- elements -----------------------------------------------------------

    def identity(self):
        return ((0,) * self.r, (0,) * len(self.pairs))

    def kernel_zero(self):
        return (0,) * len(self.pairs)

    @property
    def size(self):
        return math.prod(self.orders) * self.kernel_size

    @property
    def kernel_size(self):
        return math.prod(self.pair_mods)

    @property
    def kernel_exponent(self):
        return max(self.pair_mods, default=1)

    def elements(self):
        for a in itertools.product(*(range(o) for o in self.orders)):
            for c in self.kernel_elements():
                yield (a, c)

    def kernel_elements(self):
        return itertools.product(*(range(m) for m in self.pair_mods))

    def kernel_add(self, c1, c2):
        return tuple((x + y) % m for x, y, m in zip(c1, c2, self.pair_mods))

    def kernel_smul(self, n, c):
        return tuple((n * x) % m for x, m in zip(c, self.pair_mods))

    # -- group law ----------------------------------------------------------

    def mul(self, x, y):
        a, c = x
        b, cp = y
        a2 = tuple((u + v) % o for u, v, o in zip(a, b, self.orders))
        c2 = list(self.kernel_add(c, cp))
        for t, (i, j) in enumerate(self.pairs):
            c2[t] = (c2[t] - a[j] * b[i]) % self.pair_mods[t]
        return (a2, tuple(c2))

    def element_order(self, x):
        o = 1
        y = x
        while y != self.identity():
            y = self.mul(y, x)
            o += 1
        return o

    def sigma(self, x):
        """The order-2 symmetry: inverts the generators, fixes the kernel."""
        a, c = x
        return (tuple((-u) % o for u, o in zip(a, self.orders)), c)

    def square_of_lift(self, a):
        """(x̃^a σ)² as a kernel element: coordinate (i, j) is a_i·a_j."""
        a = tuple(u % o for u, o in zip(a, self.orders))
        x = (a, self.kernel_zero())
        prod = self.mul(x, self.sigma(x))
        avec, c = prod
        assert all(u == 0 for u in avec)
        expect = tuple(a[i] * a[j] % m for (i, j), m in zip(self.pairs, self.pair_mods))
        assert c == expect
        return c


def class_reps(cover: NilClass2Cover):
    """{0,1}-exponent normal forms indexing the twisted conjugacy classes;
    one per element of H/2H."""
    return list(itertools.product((0, 1), repeat=cover.r))


def t_exponent(cover: NilClass2Cover, q):
    """((q-1)/2)·q^{-1} mod the kernel exponent."""
    if q % 2 == 0:
        raise ValueError("q must be odd")
    ex = cover.kernel_exponent
    if ex == 1:
        return 0
    return (q - 1) // 2 * pow(q, -1, ex) % ex


def w_map(cover: NilClass2Cover, q, m_vec):
    """W_{q⁻¹} of a lattice vector (coordinates aligned with class_reps):
    Σ_a m_a · t(q) · square_of_lift(a), in the cover kernel."""
    reps = class_reps(cover)
    if len(m_vec) != len(reps):
        raise ValueError(f"lattice vector has {len(m_vec)} coordinates, expected {len(reps)}")
    t = t_exponent(cover, q)
    acc = cover.kernel_zero()
    for m_a, a in zip(m_vec, reps):
        if m_a:
            acc = cover.kernel_add(acc, cover.kernel_smul(m_a * t, cover.square_of_lift(a)))
    return acc


def nr_pow(cover: NilClass2Cover, q, a):
    """Number of kernel elements x with x^{q-1} = a."""
    if q % 2 == 0:
        raise ValueError("q must be odd")
    v = val_p(q - 1, 2)
    out = 1
    for coord, mod in zip(a, cover.pair_mods):
        g = min(2**v, mod)
        if coord % g != 0:
            return 0
        out *= g
    return out


def lattice_kernel_vectors(cover: NilClass2Cover, n):
    """All m̲ ≥ 0 over H/2H with Σ m_a = n, Σ m_a ≡ 0 (mod 2), and
    Σ m_a·a ≡ 0 in H/2H, in lexicographic order.

    The reference sweep, for small n and r: one filter over the
    compositions of n into 2^r parts, the gaps between 2^r − 1 bars in
    n + 2^r − 1 slots.  Tests compare it with the counts of
    lattice_kernel_count, w_image_multiset and b_exact."""
    if n % 2:
        return []
    reps = class_reps(cover)
    slots = n + len(reps) - 1
    comps = (tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
             for bars in itertools.combinations(range(slots), len(reps) - 1))
    return [m for m in comps
            if not any(sum(m_a * a[i] for m_a, a in zip(m, reps)) % 2 for i in range(cover.r))]


def lattice_kernel_count(cover: NilClass2Cover, n):
    """#{m̲ ≥ 0 : Σ m_a = n, image 0 in H/2H × Z/2}, as a character sum.

    The count is the average over the characters χ of H/2H of the xⁿ
    coefficient of ∏_a (1 − χ(a)x)^{−1}, for even n (0 for odd n).
    With c = 2^r classes, the trivial character gives C(n + c − 1, c − 1);
    each of the other c − 1 is −1 on half the classes, so its product is
    (1 − x²)^{−c/2}, with xⁿ coefficient C(n/2 + c/2 − 1, c/2 − 1)."""
    if n % 2:
        return 0
    c = 2**cover.r
    if c == 1:
        return 1
    return (math.comb(n + c - 1, c - 1) + (c - 1) * math.comb(n // 2 + c // 2 - 1, c // 2 - 1)) // c


def _check_n(n):
    if n < 0:
        raise ValueError(f"n = {n} must be >= 0")


def b_exact(ds, q, n):
    """Σ over lattice-kernel vectors m̲ of nr_{q-1}(W_{q⁻¹}(m̲)), taken
    over the fibers of W: Σ_w #W⁻¹(w)·nr_{q-1}(w)."""
    fibers = w_image_multiset(ds, q, n)
    cover = NilClass2Cover(ds)
    return sum(cnt * nr_pow(cover, q, w) for w, cnt in fibers.items())


def _pair_torsion(cover, v):
    """#(∧²2H)[2^{v-1}] = ∏ min(2^{v-1}, mod) over the pair moduli; each
    is a power of 2, so the exponent is capped before the power is built."""
    return math.prod(2 ** min(v - 1, mod.bit_length() - 1) for mod in cover.pair_mods)


def b_closed(ds, v, n):
    """The large-n lattice sum as a formula, sharing no code with b_exact:
    #(∧²2H)[2^{v-1}] times the lattice-kernel count's character sum."""
    if v < 1:
        raise ValueError("v must be >= 1")
    _check_n(n)
    cover = NilClass2Cover(ds)
    return _pair_torsion(cover, v) * lattice_kernel_count(cover, n)


def w_image_multiset(ds, q, n):
    """Fiber sizes of m̲ ↦ W_{q⁻¹}(m̲) over the lattice kernel: a dict
    kernel element -> count, by dynamic programming over the class reps.

    The state after the first k reps a is (Σ m_a, Σ m_a·a in H/2H,
    Σ m_a·t(q)·square_of_lift(a) in the cover kernel) -> number of
    prefixes (m_a) reaching it; the states with Σ m_a = n and residue 0
    after the last rep are the fibers of W.  The last rep takes the
    remainder n - Σ m_a, so only those states are built for it."""
    _check_n(n)
    if n % 2:
        return {}
    cover = NilClass2Cover(ds)
    reps = class_reps(cover)
    t = t_exponent(cover, q)
    zero = (0,) * cover.r
    dp = {(0, zero, cover.kernel_zero()): 1}
    for k, a in enumerate(reps):
        step = cover.kernel_smul(t, cover.square_of_lift(a))
        last = k == len(reps) - 1
        nxt = {}
        for (s, res, w), cnt in dp.items():
            odd = tuple(x ^ y for x, y in zip(res, a))
            m_lo = n - s if last else 0
            w_m = cover.kernel_add(w, cover.kernel_smul(m_lo, step))
            for m_a in range(m_lo, n - s + 1):
                key = (s + m_a, odd if m_a % 2 else res, w_m)
                nxt[key] = nxt.get(key, 0) + cnt
                w_m = cover.kernel_add(w_m, step)
        dp = nxt
    return {w: cnt for (s, res, w), cnt in dp.items() if res == zero}


def scaled_kernel(ds, v):
    """The subgroup 2^{v-1}·ker of the cover kernel, as a set."""
    cover = NilClass2Cover(ds)
    s = 2 ** (v - 1)
    return {cover.kernel_smul(s, c) for c in cover.kernel_elements()}


def moment_ratio(ds, v):
    """|(∧²(2H))[2^{v-1}]| / |2H| as an exact rational."""
    ds = tuple(int(d) for d in ds)
    if not ds:
        raise ValueError("H must be nontrivial")
    if v < 1:
        raise ValueError("v must be >= 1")
    cover = NilClass2Cover(ds)
    return Fraction(_pair_torsion(cover, v), math.prod(2 ** (d - 1) for d in ds))
