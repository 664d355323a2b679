"""Record one labelled performance snapshot of a dvrstat checkout.

    python3 tools/bench_snapshot.py --out BENCH_6.json --label change
    python3 tools/bench_snapshot.py --out BENCH_6.json --label parent --checkout ../parent

Measures the checkout (default: the one this script lives in) through
nothing but its own `dvrbench/run.py`, its CLI in fresh processes and
pytest, and stores under `--label` in the JSON file `--out`:

- the last (JSON) line of `dvrbench/run.py --workload W --seed SEED
  --seconds T --trace 0` for each of the three workloads, with T the
  `run_seconds` of the checkout's BENCHMARK.json;
- the per-layer `*.calls` counts of `dvrbench/run.py --workload oracle
  --seed SEED --seconds 0.1 --trace 1`: that run times one block, which
  is one pass over the oracle pool, so the counts describe the same
  requests on every machine;
- the wall time and exit code of each request in CLI_REQUESTS, the
  median of 3 fresh processes;
- the per-test durations of `tests/test_acceptance.py` and the
  criteria's own ACCEPTANCE lines;
- the line count (as `wc -l` gives it) of each `src/dvrstat` module and
  their total;
- nproc and the Python and numpy versions.

Other labels already in `--out` are kept, so snapshots of two commits
taken one after the other on the same machine sit side by side.
"""

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

import numpy

WORKLOADS = ("sampler", "oracle", "exact")
REPEATS = 3
# one seed for every snapshot, so BENCH_<n>.json files stay comparable
SEED = 1
# the fixed requests of ROADMAP aim 1 and the slow requests named under
# its State. `counts` does almost no work, so its time is the start-up
# of a fresh process; `sample --Q 8` runs the sampler's Galois-ring path
# (f = 3); `ext --gamma 8 ... --parts 4,4` times the cocycle system's
# Smith normal form (ROADMAP item 4); `b2 --H 4,4,2 --q 3 --n 12` is the
# heaviest b2 of the exact workload; `idem --gamma 4096 --p 2` times the
# Galois orbits of 4096 characters; `ie --gamma 65536 --p 2` times the
# threshold ideals of 65536 characters' idempotents
CLI_REQUESTS = (
    "counts --Q 2 --lam 1 --mu 1",
    "sample --Q 2 --n 12 --prec 5 --trials 100000 --seed 42",
    "sample --Q 8 --n 4 --prec 5 --trials 20000 --seed 42",
    "ext --gamma 2 --p 2 --index 0 --parts 2,1,1,1",
    "ext --gamma 2 --p 2 --index 1 --parts 2,2,2",
    "ext --gamma 2 --p 2 --index 0 --parts 1,1,1,1,1",
    "ext --gamma 8 --p 2 --index 3 --parts 7",
    "ext --gamma 8 --p 2 --index 3 --parts 4,4",
    "ext --gamma 2,4 --p 2 --index 0 --parts 1,1",
    "idem --gamma 4096 --p 2",
    "ie --gamma 65536 --p 2",
    "b2 --H 2,2,2 --q 3 --n 16",
    "b2 --H 2,2,2 --q 3 --n 20",
    "b2 --H 4,4,2 --q 3 --n 12",
    "moment --Q 2 --V 1 --B 30",
    "moment --Q 2 --V 1 --B 40",
    "verify --suite all",
)


def _env(checkout):
    src = str(checkout / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def workload_lines(checkout, seconds):
    out = {}
    for w in WORKLOADS:
        res = subprocess.run([sys.executable, "dvrbench/run.py", "--workload", w, "--seed", str(SEED),
                              "--seconds", str(seconds), "--trace", "0"],
                             cwd=checkout, capture_output=True, text=True, check=True)
        out[w] = json.loads(res.stdout.strip().splitlines()[-1])
        print(f"{w}: correct={out[w]['correct']} failed={out[w]['failed']}", flush=True)
    return out


def oracle_pass_calls(checkout):
    res = subprocess.run([sys.executable, "dvrbench/run.py", "--workload", "oracle", "--seed", str(SEED),
                          "--seconds", "0.1", "--trace", "1"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    line = json.loads(res.stdout.strip().splitlines()[-1])
    calls = {k: v["value"] for k, v in line["metrics"].items() if k.endswith(".calls")}
    print(f"oracle pass: correct={line['correct']} failed={line['failed']}", flush=True)
    return {"correct": line["correct"], "failed": line["failed"], "calls": calls}


def cli_times(checkout):
    out = {}
    for req in CLI_REQUESTS:
        times, codes = [], set()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            res = subprocess.run([sys.executable, "-m", "dvrstat.cli", *req.split()], cwd=checkout,
                                 env=_env(checkout), capture_output=True, text=True)
            times.append(time.perf_counter() - t0)
            codes.add(res.returncode)
        out[req] = {"median_s": round(statistics.median(times), 3),
                    "runs_s": [round(t, 3) for t in times], "exit_codes": sorted(codes)}
        print(f"{req}: {out[req]}", flush=True)
    return out


def acceptance(checkout):
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests/test_acceptance.py", "--durations=0"],
                         cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    durations = {m.group(2): float(m.group(1))
                 for m in re.finditer(r"^([\d.]+)s call\s+tests/test_acceptance\.py::(\S+)$",
                                      res.stdout, re.M)}
    lines = re.findall(r"^ACCEPTANCE .*$", res.stdout, re.M)
    summary = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
    print(f"acceptance: {summary}", flush=True)
    return {"durations_s": durations, "lines": lines, "summary": summary}


def src_lines(checkout):
    modules = {f.name: f.read_bytes().count(b"\n")
               for f in sorted((checkout / "src" / "dvrstat").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", type=pathlib.Path, default=pathlib.Path(__file__).resolve().parents[1])
    args = ap.parse_args()
    checkout = args.checkout.resolve()
    seconds = json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"]
    snap = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "taken_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {"seed": SEED, "seconds": seconds,
                      "results": workload_lines(checkout, seconds)},
        "oracle_pass_calls": oracle_pass_calls(checkout),
        "cli": cli_times(checkout),
        "acceptance": acceptance(checkout),
        "src_lines": src_lines(checkout),
    }
    data = json.loads(args.out.read_text()) if args.out.is_file() else {}
    data[args.label] = snap
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
