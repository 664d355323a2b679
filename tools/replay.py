"""Replay a fixed set of dvrstat requests against one checkout, or diff
two replays.

    python3 tools/replay.py --out change.jsonl
    python3 tools/replay.py --out parent.jsonl --checkout ../parent
    python3 tools/replay.py --diff parent.jsonl change.jsonl

A replay runs every request of the sets below once, in a fixed order, in
this one process, with `dvrstat` imported from `src/` of `--checkout`
(default: the checkout this script lives in).  It writes one JSON line
per request: the set it first appears in, the request, its exit code,
the sha256 of its stdout and its stderr.  Requests run through
`dvrbench/harness.execute`, as the benchmark runs them, and the request
lists are read from this script's own `dvrbench/` and `tests/`, so two
checkouts replay the same list.  Nothing depends on timing.

The sets, in order:

- `exact`: the `exact` workload's grid, every `moment` included;
- `oracle`: the `oracle` workload's pool, its `ext` and fiber requests;
- `verify`: `verify --suite all`;
- `warmup`: the warm-up requests of the three workloads;
- `left_out`: the `ext` requests of `dvrbench/left_out.json` and its
  rank-4 fiber requests;
- `golden`: the requests of `tests/exact_golden.json`,
  `tests/ext_golden.json` and `tests/sample_golden.json`;
- `probes`: PROBES, requests at and past the edges of the CLI;
- `again`: the `oracle` pool and the `exact` grid's `oracle` requests
  once more, keyed `again: <request>`, so their answers come from the
  memos (kept modules, extension classes and their answers, Γ-hom
  solvers, fiber towers with their answers, idempotent lists) that the
  sets before it left.

`--limit N` keeps the first N requests of each set.  `--diff A B`
prints each request whose record differs between the two files, or that
only one of them has, and exits 1 if there is any.
"""

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "dvrbench"))

import workloads  # noqa: E402

# the criterion-9 fiber requests with a module of type 1,1,1,1 (Γ = Z/2,
# p = 2, parts <= 2): with all residue ranks 4, all three have that type
FIBER_RANK4 = tuple(("fiber", (ei, (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1))) for ei in (0, 1))
PROBES = (
    # moment at B = Σ V.parts, where the bracket's tail has one increment
    "moment --Q 2 --V 1 --B 1",
    "moment --Q 3 --V 2,1 --B 3",
    "moment --Q 4 --V 1,1 --B 2",
    "moment --Q 5 --V 3,1,1 --B 5",
    "moment --Q 2 --V 2,1 --B 2",
    "moment --Q 6 --V 1 --B 4",
    # moment past B = Σ V.parts at Q outside the exact grid's 2..5, where
    # the tail's ratio 1/Q is smaller still
    "moment --Q 7 --V 2,1 --B 6",
    "moment --Q 8 --V 1,1 --B 5",
    "moment --Q 9 --V 1 --B 4",
    # ext's size caps and the faults reported beside them
    "ext --gamma 2 --p 2 --index 0 --parts 65",
    "ext --gamma 2 --p 2 --index 0 --parts 9",
    "ext --gamma 8 --p 2 --index 3 --parts 200",
    "ext --gamma 16 --p 2 --index 0 --parts 1",
    "ext --gamma 16 --p 2 --index 99 --parts 1",
    "ext --gamma 16 --p 4 --index 0 --parts 1",
    "ext --gamma 2 --p 2 --parts 1",
    "ext --gamma 2 --p 2 --index 5 --parts 1",
    "ext --gamma 2 --p 2 --index 0 --parts 1,2",
    # ext with no cocycle unknowns: a trivial Γ, and zero modules
    "ext --gamma 1 --p 2 --index 0 --parts 2,1",
    "ext --gamma 2 --p 2 --index 1 --parts=",
    "ext --gamma 1 --p 3 --index 0 --parts=",
    # other refusals
    "idem --gamma 0 --p 2",
    "idem --gamma 4 --p 4",
    "idem --gamma 1048576 --p 2",
    "ie --gamma 2 --p 1",
    "oracle --Q 4 --lam 1 --mu 1",
    "oracle --Q 2 --lam 1,1,1 --mu 1",
    "oracle --Q 2 --lam 1 --mu 13",
    # action-free counts with a zero module, and at a Q outside the exact grid
    "oracle --Q 2 --lam= --mu 1",
    "oracle --Q 3 --lam 2,1 --mu=",
    "oracle --Q 5 --lam 2,2 --mu 2,1",
    "counts --Q 6 --lam 1 --mu 1",
    "counts --Q 2 --lam 15000 --mu 15000",
    # values refused as unprintable from the partition alone
    "measure --Q 2 --parts 100000000",
    "counts --Q 2 --lam 100000000 --mu 1",
    "measure --Q 103 --parts 1",
    "b2 --H 3 --q 3 --n 2",
    "b2 --H 2 --q 4 --n 2",
    "b2 --H 2 --q 1 --n 2",
    "b2 --H 2 --q 3 --n -1",
    # a huge v, where |(∧²2H)[2^{v-1}]| is capped by the pair moduli
    "ratio --H 4,4 --v 1000000000",
    # a precision refused before p^prec is built
    "sample --Q 2 --n 2 --prec 100000000 --trials 1 --seed 1",
    "sample --Q 9 --n 2 --prec 3 --trials 20 --seed 7",
    "sample --Q 25 --n 3 --prec 3 --trials 20 --seed 11",
    "verify --suite nosuch",
    "nosuch",
    # argv that is not canonical `--flag value` pairs, so argparse parses it
    "counts --Q=2 --lam 1 --mu 1",
    "counts --Q 2 --la 1 --mu 1",
    "counts --Q 2 --Q 3 --lam 1 --mu 1",
    "counts --Q x --Q 3 --lam 1 --mu 1",
    "moment --Q 2 --V 1 --B -1",
    "counts --Q 2 --lam 1 --mu",
    "counts --Q 2 --lam 1",
    "counts --Q 2 --lam 1 --mu 1 extra",
    "counts --Q x --lam 1 --mu 1",
    # malformed integer lists
    "idem --gamma 2,,2 --p 2",
    "counts --Q 2 --lam 1, --mu 1",
    "ramtype --gamma 4 --p 2 --index 0 --d 1 --inertia 1,,2",
)


def _cli(line):
    return ("cli", tuple(line.split()))


def _golden_requests():
    out = []
    for name in ("exact_golden.json", "ext_golden.json"):
        data = json.loads((ROOT / "tests" / name).read_text())
        out += [_cli(r) for group, reqs in data.items() if group != "about" for r in reqs]
    sample = json.loads((ROOT / "tests" / "sample_golden.json").read_text())
    return out + [_cli("sample " + args) for args in sample]


def request_sets():
    """{set name: requests}, each request as the benchmark writes it."""
    left_out = json.loads((ROOT / "dvrbench" / "left_out.json").read_text())
    exact, oracle = workloads.grid("exact"), workloads.grid("oracle")
    return {
        "exact": exact,
        "oracle": oracle,
        "verify": [_cli("verify --suite all")],
        "warmup": [r for w in workloads.WORKLOADS for r in workloads.WARMUP[w]],
        "left_out": [_cli(item["request"]) for reqs in left_out.values() if isinstance(reqs, list)
                     for item in reqs] + list(FIBER_RANK4),
        "golden": _golden_requests(),
        "probes": [_cli(r) for r in PROBES],
        "again": oracle + [r for r in exact if r[0] == "cli" and r[1][0] == "oracle"],
    }


def replay(checkout, limit, out):
    sys.path.insert(0, str(checkout / "src"))
    import harness
    import dvrstat

    loaded = pathlib.Path(dvrstat.__file__).resolve()
    if (checkout / "src").resolve() not in loaded.parents:
        raise ImportError(f"dvrstat was imported from {loaded}, not from {checkout / 'src'}")
    seen = set()
    for name, reqs in request_sets().items():
        for req in reqs[:limit]:
            key = workloads.key(req)
            if name == "again":
                key = "again: " + key
            if key in seen:
                continue
            seen.add(key)
            rc, stdout, stderr = harness.execute(req)
            record = {"set": name, "request": key, "exit": rc,
                      "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(), "stderr": stderr}
            out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
    return 0


def _load(path):
    records = {}
    for line in pathlib.Path(path).read_text().splitlines():
        rec = json.loads(line)
        records[rec.pop("request")] = rec
    return records


def diff(path_a, path_b):
    a, b = _load(path_a), _load(path_b)
    differ = 0
    for key in list(a) + [k for k in b if k not in a]:
        if a.get(key) == b.get(key):
            continue
        differ += 1
        if key not in a or key not in b:
            print(f"{key}: only in {path_a if key in a else path_b}")
            continue
        fields = [f for f in ("exit", "stdout_sha256", "stderr") if a[key][f] != b[key][f]]
        print(f"{key}: {', '.join(fields)} differ")
        for f in ("exit", "stderr"):
            if f in fields:
                print(f"  {f}: {a[key][f]!r} -> {b[key][f]!r}")
    print(f"{differ} of {len(set(a) | set(b))} requests differ")
    return 1 if differ else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=pathlib.Path)
    ap.add_argument("--checkout", type=pathlib.Path, default=ROOT)
    ap.add_argument("--limit", type=int, default=None, help="first N requests of each set")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.diff:
        return diff(*args.diff)
    if args.out is None:
        ap.error("--out is required unless --diff is given")
    with args.out.open("w") as out:
        return replay(args.checkout.resolve(), args.limit, out)


if __name__ == "__main__":
    sys.exit(main())
