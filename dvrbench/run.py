"""dvrstat benchmark: one workload, one seed, one run.

    python3 dvrbench/run.py --workload {sampler,oracle,exact} --seed N
                            --seconds S --trace {0,1}

Run from the root of a dvrstat checkout; dvrstat is imported from its
`src/`.  Each workload is a closed loop with one client (a batch caller
that waits for each reply), replaying a seed-generated request list
against `dvrstat.cli.main(argv, out=buffer)` in-process, plus
library-level fiber-product requests on the `oracle` workload.

--trace 0 spawns SETUP_SAMPLES fresh processes one after another; each
imports dvrstat and runs one tiny warm-up request per request kind, and
the last then runs the timed loop for about S seconds (whole blocks of
the workload's mix).  It prints throughput and latency percentiles in
reference-speed time (wall time corrected for the machine's drifting
speed, see speed.py; units 1/ref_s and ref_ms), the median set-up time
and peak RSS as measured.  Wall-clock figures go to the result file.

--trace 1 runs the timed loop twice in fresh processes, untraced and
then, over the same blocks, with spans around the public functions of
each dvrstat module, and prints calls and self time per function, the
useful-work ratios, the error share and the tracing overhead.  It also checks that the wrappers are transparent:
both runs must produce byte-identical outputs, and within each request
the span self times must sum to the duration of its root span (and
every span must lie inside its parent).

Every request's output is checked (see verdict.py); the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  A result file with provenance and per-request records is
written to dvrbench/out/.
"""

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170
SELFCHECK_TOL_S = 1e-6


class BenchError(Exception):
    pass


def _spawn(args, mode, trace, deadline, blocks=None, spans=None):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--trace", str(trace)]
    if blocks:
        cmd += ["--blocks", str(blocks)]
    if spans:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before spawning a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as ex:
        raise BenchError(f"worker ({mode}, trace={trace}) exceeded the time limit") from ex
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}, trace={trace}) exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _end_to_end(run, setup_samples):
    """Throughput and latency percentiles in reference-speed time (see
    speed.py); set-up time and memory as measured."""
    reqs = run["requests"]
    busy = sum(r["ref_latency_s"] for r in reqs)
    # a failed request misses any latency limit: count it as taking the
    # whole timed phase
    lat = sorted(r["ref_latency_s"] if r["ok"] else busy for r in reqs)
    wall = sorted(r["latency_s"] for r in reqs)
    return {
        "throughput_rps": (len(reqs) / busy, "1/ref_s"),
        "latency_p50_ms": (1000 * _percentile(lat, 0.5), "ref_ms"),
        "latency_p90_ms": (1000 * _percentile(lat, 0.9), "ref_ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }, {"requests": len(reqs), "failed": sum(not r["ok"] for r in reqs),
        "beyond_p90": sum(x > _percentile(lat, 0.9) for x in lat),
        "setup_samples": len(setup_samples),
        "wall_clock": {"throughput_rps": len(reqs) / run["elapsed_s"],
                       "latency_p50_ms": 1000 * _percentile(wall, 0.5),
                       "latency_p90_ms": 1000 * _percentile(wall, 0.9)},
        "probe_s": run["probe_s"]}


def _ref_throughput(run):
    return len(run["requests"]) / sum(r["ref_latency_s"] for r in run["requests"])


def _ratio(num, den):
    return num / den if den else 0.0


def _per_layer(untraced, traced, probes):
    tr = traced["trace"]
    calls = dict(zip(tr["names"], tr["calls"]))
    self_s = dict(zip(tr["names"], tr["self_s"]))
    total_s = dict(zip(tr["names"], tr["total_s"]))
    metrics = {}
    for name in tr["names"][1:]:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    rps_u, rps_t = _ref_throughput(untraced), _ref_throughput(traced)
    ratios = {
        "oracle.surjective_yield":
            (tr["surjective_true"], calls["oracle.ModuleHom.is_surjective"], "ratio"),
        "oracle.homs_per_fiber": (tr["homs_in_fiber"], calls["oracle.fiber_tools"], "ratio"),
        "dvrmod.sur_nonzero_frac": (tr["sur_nonzero"], calls["dvrmod.sur_count"], "ratio"),
        "schur2.vectors_per_b_exact":
            (calls["schur2.w_map"], calls["schur2.b_exact"], "ratio"),
        "measure.trials_per_busy_s":
            (calls["measure.sample"], total_s["measure.sample_many"], "1/s"),
        "trace.overhead_frac": (rps_u - rps_t, rps_u, "ratio"),
        "error_frac": (sum(not r["ok"] for r in traced["requests"]),
                       len(traced["requests"]), "ratio"),
        "measure.odd_ring_fail_frac":
            (sum(p["rc"] != 0 for p in probes), len(probes), "ratio"),
    }
    bases = {}
    for name, (num, den, unit) in ratios.items():
        metrics[name] = (_ratio(num, den), unit)
        bases[name] = {"numerator": num, "denominator": den}
    return metrics, bases


def _transparency(untraced, traced):
    """Indices where the traced and untraced runs disagree."""
    bad = []
    for i, (u, t) in enumerate(zip(untraced["requests"], traced["requests"])):
        if u["key"] != t["key"] or u["digest"] != t["digest"]:
            bad.append(i)
    return bad


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_sha256():
    """Digest of the dvrstat sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dvrstat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _provenance(args, started):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": started,
        "machine": platform.machine(),
    }


def _print_metrics(metrics, counts):
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:16.6f} {unit}")
    print(f"  samples: {json.dumps(counts)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if not (ROOT / "src" / "dvrstat").is_dir():
        print(f"error: no dvrstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    overhead_path = OUT / "overhead.json"
    overhead = json.loads(overhead_path.read_text()) if overhead_path.is_file() else {}
    result = {"provenance": _provenance(args, started)}
    try:
        if args.trace == 0:
            setups = [_spawn(args, "setup", 0, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            run = _spawn(args, "run", 0, deadline)
            setups.append(run["setup_s"])
            metrics, counts = _end_to_end(run, setups)
            runs = [run]
            selfcheck, transparent = {}, True
        else:
            untraced = _spawn(args, "run", 0, deadline)
            # the traced run replays exactly the untraced run's blocks, so
            # the counts describe a known request list and every output
            # can be compared
            traced = _spawn(args, "run", 1, deadline, blocks=untraced["blocks"],
                            spans=OUT / f"{stem}-spans.npz")
            metrics, counts = _per_layer(untraced, traced, traced.get("odd_ring_probes", []))
            runs = [untraced, traced]
            mismatched = _transparency(untraced, traced)
            selfcheck = {
                "compared_requests": min(len(untraced["requests"]), len(traced["requests"])),
                "output_mismatches": mismatched,
                "span_sum_max_abs_err_s": traced["trace"]["selfcheck_max_abs_err_s"],
                "spans_outside_parent": traced["trace"]["spans_outside_parent"],
                "spans_in_other_request": traced["trace"]["spans_in_other_request"],
                "spans": traced["trace"]["spans"],
            }
            transparent = (not mismatched
                           and selfcheck["span_sum_max_abs_err_s"] <= SELFCHECK_TOL_S
                           and not selfcheck["spans_outside_parent"]
                           and not selfcheck["spans_in_other_request"])
            overhead[args.workload] = {
                "overhead_frac": metrics["trace.overhead_frac"][0],
                "untraced_ref_rps": _ref_throughput(untraced),
                "traced_ref_rps": _ref_throughput(traced),
                "seed": args.seed, "started_utc": started,
            }
            overhead_path.write_text(json.dumps(overhead, indent=1, sort_keys=True))
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    attempted = sum(len(r["requests"]) for r in runs)
    failed = sum(not q["ok"] for r in runs for q in r["requests"])
    correct = failed == 0 and transparent
    probes = runs[-1].get("odd_ring_probes")
    result.update({
        "trace_overhead": overhead,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counts": counts,
        "selfcheck": selfcheck,
        "odd_ring_probes": probes,
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in runs],
    })
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"dvrstat benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} requests={attempted} failed={failed}")
    _print_metrics(metrics, counts)
    if selfcheck:
        print(f"  self-check: {json.dumps(selfcheck)}")
    for p in probes or []:
        state = "ok" if p["rc"] == 0 else f"exit {p['rc']}: {p['stderr']}"
        print(f"  known-defect probe (untimed) {p['key']}: {state}")
    for r in runs:
        for q in r["requests"]:
            if not q["ok"]:
                print(f"  FAILED {q['key']}: {q['reason']} {q['stderr']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
