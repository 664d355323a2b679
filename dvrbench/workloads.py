"""Seeded request lists for the three workloads.

A request is ("cli", argv) for `dvrstat.cli.main(argv)` or ("fiber",
(idempotent index, λ1, λ2, λ3)) for the library-level fiber-product
request, which has no CLI.  Every workload is an endless sequence of
blocks; each block has a fixed composition (how many requests of each
kind and cost tier) and the seed picks the parameters, the Philox seeds
and the order.  The timed loop stops at a block boundary, so every run
measures whole blocks of the same mix whatever the seed.

Within a tier the parameters are dealt from a shuffled deck that is
reshuffled when empty, so a run covers each tier evenly.
"""

import itertools
import random

WORKLOADS = ("sampler", "oracle", "exact")


def key(req):
    """Canonical one-line form of a request, used for references."""
    kind, args = req
    if kind == "cli":
        return " ".join(args)
    ei, l1, l2, l3 = args
    return f"fiber --idem {ei} --n1 {_p(l1)} --n2 {_p(l2)} --n3 {_p(l3)}"


def _p(parts):
    return ",".join(map(str, parts))


def _cli(*args):
    return ("cli", tuple(str(a) for a in args))


class _Deck:
    """Draw without replacement from a fixed list, reshuffling when empty."""

    def __init__(self, items, rng):
        self.items, self.rng, self.left = list(items), rng, []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _partitions(total, max_part=None, max_rank=None):
    """Partitions of exactly `total`, as descending tuples."""
    max_part = total if max_part is None else max_part
    if total == 0:
        return [()]
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return [p for p in out if max_rank is None or len(p) <= max_rank]


def _parts_upto(total, max_rank=None):
    return [p for s in range(1, total + 1) for p in _partitions(s, max_rank=max_rank)]


# ---------------------------------------------------------------------------
# sampler: the Monte-Carlo cokernel sampler, integer and Galois-ring paths

# latency_p50_ms falls in the middle of the n = 8 cluster: as many
# requests are cheaper (n = 4, 6) as are dearer (n = 10, 12 and the
# ring path).  The ring path, the slowest fifth, sets latency_p90_ms.
SAMPLER_INT_N = (4, 4, 6, 6, 8, 8, 8, 10, 12)
SAMPLER_INT_TRIALS = 300
SAMPLER_RING_TRIALS = 100
# Odd-p prime-power Q exits 2 at the seed commit ("divisor must be
# monic" in linalg.poly_ext_gcd_modp).  These requests run after the
# timed phase and are reported apart, so the defect stays visible.
ODD_RING_PROBES = (
    _cli("sample", "--Q", 9, "--n", 2, "--prec", 3, "--trials", 20, "--seed", 7),
    _cli("sample", "--Q", 25, "--n", 3, "--prec", 3, "--trials", 20, "--seed", 11),
)


def sampler_blocks(rng):
    while True:
        block = []
        for Q in (2, 3, 5):
            for n in SAMPLER_INT_N:
                block.append(_cli("sample", "--Q", Q, "--n", n, "--prec", rng.randint(3, 6),
                                  "--trials", SAMPLER_INT_TRIALS,
                                  "--seed", rng.randrange(2**32)))
        for Q in (4, 8):
            for n in (2, 3, 4):
                block.append(_cli("sample", "--Q", Q, "--n", n, "--prec", rng.randint(3, 5),
                                  "--trials", SAMPLER_RING_TRIALS,
                                  "--seed", rng.randrange(2**32)))
        rng.shuffle(block)
        yield block


SAMPLER_WARMUP = (
    _cli("sample", "--Q", 7, "--n", 2, "--prec", 2, "--trials", 5, "--seed", 1),
    _cli("sample", "--Q", 4, "--n", 2, "--prec", 2, "--trials", 2, "--seed", 1),
)


# ---------------------------------------------------------------------------
# oracle: extension enumeration over the criterion-5 catalog, and fiber
# products of the criterion-9 shape

# The oracle pool is every catalog ext request (Γ in {Z/2, Z/3, Z/4},
# p in {2, 3}, every idempotent, |H| <= 64) that ran within 0.5 s at the
# seed commit, plus every criterion-9 fiber request whose modules have
# rank <= 3 (catalog.json).  A block is the whole pool in seed order, so
# every run measures the same requests, one to three times: the
# catalog's latencies are too sparse in their tail for a sample of it to
# give steady percentiles.  Requests left out for size are listed in
# left_out.json.
def _pool():
    import json
    import pathlib

    data = json.loads((pathlib.Path(__file__).parent / "catalog.json").read_text())
    reqs = []
    for kind, e in data["pool"]:
        if kind == "ext":
            g, p, i, parts = e
            reqs.append(_cli("ext", "--gamma", g, "--p", p, "--index", i, "--parts", _p(parts)))
        else:
            reqs.append(("fiber", (e[0], tuple(e[1]), tuple(e[2]), tuple(e[3]))))
    return reqs


def oracle_blocks(rng):
    pool = _pool()
    while True:
        block = pool[:]
        rng.shuffle(block)
        yield block


ORACLE_WARMUP = (
    # p = 5 is outside the catalog; Γ = Z/3 has residue degree 2 there,
    # so realize builds an unramified factor (and imports sympy)
    _cli("ext", "--gamma", 3, "--p", 5, "--index", 1, "--parts", 1),
    ("fiber", (1, (3,), (3,), (3,))),
)


def fiber_request(ei, l1, l2, l3):
    """Criterion-9 shaped fiber-product request over Γ = Z/2, p = 2.

    Realizes the three modules, enumerates Hom(N_i, N3) on both sides,
    keeps the surjections, and runs fiber_tools on the first 2 x 2 pairs.
    Returns a canonical record: the residue rank of N3 and, per pair,
    the orders of the common quotient, the fiber product and ⊠, and the
    residue rank of ⊠.
    """
    from dvrstat import oracle
    from dvrstat.abelian import FiniteAbelianGroup
    from dvrstat.dvrmod import ModuleType
    from dvrstat.idempotents import enumerate_idempotents

    e = enumerate_idempotents(FiniteAbelianGroup((2,)), 2)[ei]
    N1, N2, N3 = (oracle.realize(e, ModuleType(2, lam)) for lam in (l1, l2, l3))
    surs1 = [f for f in oracle.enumerate_module_homs(N1, N3) if f.is_surjective()]
    surs2 = [f for f in oracle.enumerate_module_homs(N2, N3) if f.is_surjective()]
    pairs = []
    for pi1 in surs1[:2]:
        for pi2 in surs2[:2]:
            res = oracle.fiber_tools(e, pi1, pi2)
            pairs.append([res.common_quotient.size, res.fiber_product.size,
                          res.boxtimes.size, oracle.residue_rank(res.boxtimes, e)])
    return {"rank3": oracle.residue_rank(N3, e), "pairs": pairs}


# ---------------------------------------------------------------------------
# exact: many cheap closed-form requests, a few heavy exact sums, and
# one run of each verification suite

VERIFY_SUITES = ("rings", "modules", "groups", "schur", "measure")
CYCLIC_GAMMAS = (2, 3, 4, 6, 8, 9)
GAMMAS = ("2", "3", "4", "5", "6", "8", "9", "2,2", "2,4", "3,3")
# number of primitive idempotents of Q_p[Γ] for p = 2, 3, 5
IDEM_COUNT = {2: (2, 2, 2), 3: (2, 2, 2), 4: (3, 3, 4), 6: (4, 4, 4), 8: (4, 5, 6), 9: (3, 3, 3)}
PRIMES = (2, 3, 5)
H_RANK12 = ("2", "4", "8", "2,2", "4,2", "4,4", "8,2", "8,4")
H_RANK3 = ("2,2,2", "4,2,2", "4,4,2")


def _exact_cheap_grids():
    small = _parts_upto(4, max_rank=3)
    g = {}
    g["counts"] = [_cli("counts", "--Q", Q, "--lam", _p(a), "--mu", _p(b))
                   for Q in PRIMES for a in small for b in small]
    g["weight"] = [_cli("weight", "--Q", Q, "--lam", _p(a), "--mu", _p(b), "--d", d)
                   for Q in PRIMES for a in small for d in (0, 1, 2)
                   for b in _parts_upto(6, max_rank=2) if b[-1] > d]
    g["measure"] = [_cli("measure", "--Q", Q, "--parts", _p(a)) for Q in PRIMES for a in small]
    g["ratio"] = [_cli("ratio", "--H", H, "--v", v) for H in H_RANK12 + H_RANK3 for v in (1, 2, 3)]
    g["oracle"] = [_cli("oracle", "--Q", Q, "--lam", _p(a), "--mu", _p(b))
                   for Q in PRIMES
                   for a in _parts_upto(3 if Q < 5 else 2, max_rank=2)
                   for b in _parts_upto(3 if Q < 5 else 2, max_rank=2)]
    g["idem"] = [_cli("idem", "--gamma", G, "--p", p) for G in GAMMAS for p in PRIMES]
    g["ie"] = [_cli("ie", "--gamma", G, "--p", p) for G in GAMMAS for p in PRIMES]
    g["ramtype"] = [
        _cli("ramtype", "--gamma", m, "--p", p, "--index", i, "--d", d,
             "--inertia", k, "--decomposition", 1)
        for m in CYCLIC_GAMMAS for pi, p in enumerate(PRIMES)
        for i in range(IDEM_COUNT[m][pi]) for d in (0, 1, 2)
        for k in range(1, m) if m % k == 0
    ]
    return g


def _exact_heavy_grids():
    """Heavy slots.  The cost of b2 is set by n and that of moment by B,
    so each slot fixes those and the seed picks the rest; the moment
    slots are the cluster in which latency_p90_ms falls."""
    V = [(1,), (2,), (1, 1), (2, 1), (2, 2)]
    g = {f"b2_rank3_n{n}": [_cli("b2", "--H", H, "--q", q, "--n", n)
                            for H in H_RANK3 for q in (3, 5, 9)]
         for n in (8, 10, 12)}
    # includes H = (4,4) and (8,4) at q = 3: the known v = 1 deviations
    g["b2_rank12"] = [_cli("b2", "--H", H, "--q", q, "--n", n)
                      for H in H_RANK12 for q in (3, 5, 9) for n in range(2, 13)]
    moments = {"moment_small": range(8, 19), "moment_p90": (19, 20), "moment_big": (21, 22)}
    for slot, Bs in moments.items():
        g[slot] = [_cli("moment", "--Q", Q, "--V", _p(v), "--B", B)
                   for Q in (2, 3, 4, 5) for v in V for B in Bs]
    return g


# A block is EXACT_ROUNDS rounds of the mix plus one verify per suite.
# Verify is a large fixed cost (the rings suite fills abelian's subgroup
# cache); in one long block its share of a run does not depend on how
# many blocks fit, so throughput is not amplified by the stop rule.
EXACT_ROUNDS = 12
EXACT_CHEAP_PER_KIND = 4
EXACT_HEAVY_MIX = {"b2_rank3_n8": 1, "b2_rank3_n10": 1, "b2_rank3_n12": 1, "b2_rank12": 1,
                   "moment_small": 1, "moment_p90": 4, "moment_big": 1}


def exact_blocks(rng):
    cheap = {k: _Deck(v, rng) for k, v in _exact_cheap_grids().items()}
    heavy = {k: _Deck(v, rng) for k, v in _exact_heavy_grids().items()}
    while True:
        block = [_cli("verify", "--suite", s) for s in VERIFY_SUITES]
        for _ in range(EXACT_ROUNDS):
            block += [d.draw() for d in cheap.values() for _ in range(EXACT_CHEAP_PER_KIND)]
            block += [heavy[k].draw() for k, n in EXACT_HEAVY_MIX.items() for _ in range(n)]
        rng.shuffle(block)
        yield block


EXACT_WARMUP = (
    _cli("counts", "--Q", 7, "--lam", 1, "--mu", 1),
    _cli("weight", "--Q", 7, "--lam", 1, "--mu", 2, "--d", 1),
    _cli("measure", "--Q", 7, "--parts", 1),
    _cli("ratio", "--H", 16, "--v", 1),
    _cli("oracle", "--Q", 7, "--lam", 1, "--mu", 1),
    _cli("idem", "--gamma", 7, "--p", 2),
    _cli("ie", "--gamma", 7, "--p", 2),
    _cli("ramtype", "--gamma", 7, "--p", 2, "--index", 0, "--d", 0, "--inertia", 1,
         "--decomposition", 1),
    _cli("b2", "--H", 16, "--q", 7, "--n", 2),
    _cli("moment", "--Q", 7, "--V", 1, "--B", 2),
    # verify has no input outside the timed list, so it has no warm-up
)


# ---------------------------------------------------------------------------

_BLOCKS = {"sampler": sampler_blocks, "oracle": oracle_blocks, "exact": exact_blocks}
WARMUP = {"sampler": SAMPLER_WARMUP, "oracle": ORACLE_WARMUP, "exact": EXACT_WARMUP}


def grid(workload):
    """Every request the oracle or exact workload can issue, any seed."""
    if workload == "oracle":
        return _pool()
    if workload == "exact":
        grids = {**_exact_cheap_grids(), **_exact_heavy_grids()}
        return [r for g in grids.values() for r in g] + \
            [_cli("verify", "--suite", s) for s in VERIFY_SUITES]
    raise ValueError(f"{workload} has no finite grid")


def blocks(workload, seed):
    """Endless, seed-determined sequence of request blocks."""
    return _BLOCKS[workload](random.Random(f"{workload}:{seed}"))


def first_blocks(workload, seed, count):
    return list(itertools.islice(blocks(workload, seed), count))
