"""Batch command-line frontend.

Every invocation prints a one-line JSON provenance header (version,
request echo, seed) followed by the payload: JSON records one per line,
or an RFC-4180 CSV table for `sample`.  Exit codes: 2 on parse errors,
1 on verify-suite failures and when the reader closes stdout early
(with no traceback), 0 otherwise.  Integers that do not fit in
64 bits are serialized as decimal strings.
"""

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__, checks, schur2
from .abelian import _is_prime, parse_group, parse_tuple, prime_power_split, val_p
from .dvrmod import ModuleType, aut_count, hom_count, sur_count, weight
from .idempotents import IdealPower, enumerate_idempotents, ramtype_qualifies, threshold_ideal
from .measure import measure as measure_fn, moment_truncated, sample_many
from . import oracle

INT64_MAX = 2**63 - 1


def _digits(n):
    """str(n), with a plain error where Python refuses an int past its digit limit."""
    try:
        return str(n)
    except ValueError:
        raise ValueError(f"the exact value has more than {sys.get_int_max_str_digits()} digits, "
                         "too many to print") from None


def _enc(n):
    """Decimal string for integers beyond 64 bits, plain int otherwise."""
    return n if -INT64_MAX <= n <= INT64_MAX else _digits(n)


def _frac(x: Fraction) -> str:
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def _emit(record, out):
    out.write(json.dumps(record, sort_keys=True) + "\n")


def _provenance(args, out):
    request = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    _emit({"version": __version__, "request": request, "seed": getattr(args, "seed", None)}, out)


def _parse_partition(s):
    parts = parse_tuple(s)
    if any(a <= 0 for a in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"not a partition: {s!r}")
    return parts


def _parse_gens(s):
    """Semicolon-separated list of comma-separated element tuples."""
    s = s.strip()
    if not s:
        return []
    return [parse_tuple(t) for t in s.split(";")]


def _idempotent(args):
    """Γ and the (index, idempotent) pairs selected by --index (all without it)."""
    G = parse_group(args.gamma)
    es = list(enumerate(enumerate_idempotents(G, args.p)))
    if args.index is not None:
        if not 0 <= args.index < len(es):
            raise ValueError(f"idempotent index out of range (have {len(es)})")
        es = [es[args.index]]
    return G, es


def _idem_record(i, e):
    return {
        "index": i,
        "orbit_reps": [",".join(map(str, chi)) for chi in e.orbit],
        "n": e.char_order,
        "p_part": e.p_part,
        "m_prime": e.m_prime,
        "e_ram": e.e_ram,
        "f": e.f,
        "Q": _enc(e.Q),
        "dimension": e.dimension,
        "uniformizer": e.uniformizer_kind,
        "cyclic_quotient_order": e.char_order,  # |Γ/ker χ|
    }


def cmd_idem(args, out):
    _, es = _idempotent(args)
    records = [_idem_record(i, e) for i, e in es]  # all built, so a refusal writes none
    for rec in records:
        _emit(rec, out)
    return 0


def cmd_ie(args, out):
    _, es = _idempotent(args)
    for i, e in es:
        I = threshold_ideal(e)
        _emit({"index": i, "threshold_d": I.d, "whole_ring": I.is_whole_ring}, out)
    return 0


def cmd_ramtype(args, out):
    G, es = _idempotent(args)
    if args.index is None:
        raise ValueError("ramtype requires --index")
    _, e = es[0]
    inertia = _parse_gens(args.inertia)
    decomposition = _parse_gens(args.decomposition)
    ok = ramtype_qualifies(e, IdealPower(args.d), inertia, decomposition)
    _emit({"index": args.index, "d": args.d, "qualifies": ok}, out)
    return 0


def cmd_counts(args, out):
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    M, N = ModuleType(args.Q, lam), ModuleType(args.Q, mu)
    _emit(
        {
            "hom": _enc(hom_count(M, N)),
            "sur": _enc(sur_count(M, N)),
            "aut_source": _enc(aut_count(M)),
            "aut_target": _enc(aut_count(N)),
        },
        out,
    )
    return 0


def cmd_weight(args, out):
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    w = weight(ModuleType(args.Q, lam), ModuleType(args.Q, mu), args.d)
    _emit({"weight": _enc(w)}, out)
    return 0


def cmd_oracle(args, out):
    if not _is_prime(args.Q):
        raise ValueError("oracle counts need a prime residue field size")
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    h, s = oracle.brute_counts_plain(args.Q, lam, mu)
    _emit({"hom": _enc(h), "sur": _enc(s)}, out)
    return 0


def cmd_ext(args, out):
    if parse_group(args.gamma).order > oracle.EXT_GAMMA_CAP:
        raise ValueError(oracle.EXT_CAP_MESSAGE)
    G, es = _idempotent(args)
    if args.index is None:
        raise ValueError("ext requires --index to pick the module structure")
    _, e = es[0]
    parts = _parse_partition(args.parts)
    # |H| = Q^Σparts, refused before H is built; as Q >= 2, Q^b already
    # exceeds the cap for b its bit length, so no larger power is taken
    if e.Q ** min(sum(parts), oracle.EXT_MODULE_CAP.bit_length()) > oracle.EXT_MODULE_CAP:
        raise ValueError(oracle.EXT_CAP_MESSAGE)
    H = oracle.realize(e, ModuleType(e.Q, parts))
    for ci, ext in enumerate(oracle.enumerate_extensions(H)):
        table = []
        for g in G.elements():
            if not any(g):
                continue
            c, d = oracle.conjugacy_stats(ext, g)
            table.append({"gamma": ",".join(map(str, g)), "c": c, "d": d})
        sections = oracle.splitting_count(ext)
        _emit(
            {
                "class_index": ci,
                "splitting_count": sections,
                "split": sections > 0,
                "conjugacy": table,
            },
            out,
        )
    return 0


def _h_exponents(s):
    orders = parse_tuple(s)
    ds = []
    for o in orders:
        v = val_p(o, 2)
        if o != 2**v or o < 2:
            raise ValueError("H must be a product of powers of 2, each >= 2")
        ds.append(v)
    return tuple(sorted(ds, reverse=True))


def cmd_b2(args, out):
    ds = _h_exponents(args.H)
    if args.q % 2 == 0:
        raise ValueError("q must be odd")
    prime_power_split(args.q)
    v = val_p(args.q - 1, 2)
    be = schur2.b_exact(ds, args.q, args.n)
    bc = schur2.b_closed(ds, v, args.n)
    _emit({"b_exact": _enc(be), "b_closed": _enc(bc), "agree": be == bc}, out)
    return 0


def cmd_ratio(args, out):
    ds = _h_exponents(args.H)
    out.write(_frac(schur2.moment_ratio(ds, args.v)) + "\n")
    return 0


def cmd_measure(args, out):
    lo, hi = measure_fn(ModuleType(args.Q, _parse_partition(args.parts)))
    _emit({"mu_lower": _frac(lo), "mu_upper": _frac(hi)}, out)
    return 0


def cmd_moment(args, out):
    br = moment_truncated(ModuleType(args.Q, _parse_partition(args.V)), args.B)
    _emit(
        {
            "lower": _frac(br.lower),
            "upper": _frac(br.upper),
            "tail_estimate": _frac(br.tail_estimate),
            "width": _frac(br.width),
        },
        out,
    )
    return 0


def cmd_sample(args, out):
    freq = sample_many(args.Q, args.n, args.prec, args.trials, args.seed)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "count", "frequency"])
    rows = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0].label()))
    for outcome, count in rows:
        writer.writerow([outcome.label(), count, f"{count / args.trials:.6f}"])
    return 0


def cmd_verify(args, out):
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    results = checks.run_suites(names)
    failed = 0
    for r in results:
        _emit({"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}, out)
        failed += not r.ok
    _emit({"total": len(results), "failed": failed}, out)
    return 1 if failed else 0


@functools.cache
def build_parser():
    """The argument parser, built once per process and reused by `main`."""
    ap = argparse.ArgumentParser(prog="dvrstat", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def group_flags(p, index=True):
        p.add_argument("--gamma", required=True, help="invariant factors, e.g. 2,4")
        p.add_argument("--p", type=int, required=True)
        if index:
            p.add_argument("--index", type=int, default=None)

    p = sub.add_parser("idem", help="list primitive idempotents")
    group_flags(p)
    p.set_defaults(func=cmd_idem)

    p = sub.add_parser("ie", help="threshold ideals of idempotents")
    group_flags(p)
    p.set_defaults(func=cmd_ie)

    p = sub.add_parser("ramtype", help="classify a ramification type")
    group_flags(p)
    p.add_argument("--d", type=int, required=True, help="ideal exponent")
    p.add_argument("--inertia", default="", help="generators, e.g. 1,0;0,2")
    p.add_argument("--decomposition", default="")
    p.set_defaults(func=cmd_ramtype)

    p = sub.add_parser("counts", help="hom/sur/aut counts from partitions")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--lam", required=True, help="source partition, e.g. 3,1")
    p.add_argument("--mu", required=True, help="target partition")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("weight", help="weight factor at an ideal")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True, help="target partition (an ideal closure)")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("oracle", help="brute-force hom/sur counts")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ext", help="enumerate extension classes with conjugacy tables")
    group_flags(p)
    p.add_argument("--parts", required=True, help="module type of H over the idempotent")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("b2", help="exact vs closed lattice sum")
    p.add_argument("--H", required=True, help="orders of the 2-group, e.g. 4,4")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_b2)

    p = sub.add_parser("ratio", help="weighted-moment ratio")
    p.add_argument("--H", required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("measure", help="measure bracket of a module type")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--parts", required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("moment", help="truncated surjection-moment bracket")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--V", required=True, help="target partition")
    p.add_argument("--B", type=int, required=True, help="truncation size")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("sample", help="cokernel sampler frequency table (CSV)")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prec", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True, choices=sorted(checks.SUITES) + ["all"])
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    try:
        code = _run(argv, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`dvrstat idem ... | head -1`):
        # exit with no traceback, and point stdout at devnull so that the
        # interpreter's last flush of it cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv, out):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        _provenance(args, out)
        return args.func(args, out)
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
