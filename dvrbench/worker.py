"""One benchmark process: set up, then (in run mode) the timed loop.

Started by run.py, one fresh process per set-up sample and per timed
phase, so lru_caches start cold as they do for a CLI user.  Prints one
JSON object on stdout.

    python3 dvrbench/worker.py --workload W --seed N --seconds S
        --mode setup|run --trace 0|1 --spawned T [--blocks K] [--spans PATH]

`--spawned` is the CLOCK_MONOTONIC reading just before the parent
spawned this process; set-up time runs from there to the end of the
warm-up.
"""

import argparse
import json
import resource
import statistics
import sys
import time

import harness
import speed
import verdict
import workloads


def _warm_up(workload):
    for req in workloads.WARMUP[workload]:
        rc, _, err = harness.execute(req)
        if rc != 0:
            raise RuntimeError(f"warm-up request {workloads.key(req)!r} failed: {err.strip()}")


def _timed_loop(workload, seed, seconds, blocks, tracer):
    """Closed loop with one client: each request waits for the previous
    reply.  Runs `blocks` blocks if given, else stops at the block
    boundary nearest to `seconds` (at least one block), judging the next
    block by the mean block so far.  Between requests a speed probe runs
    at most every speed.PROBE_EVERY_S, outside every request's timing."""
    results = []
    log = speed.SpeedLog()
    clock = time.perf_counter
    t0 = clock()
    log.maybe_probe(t0)
    for done, block in enumerate(workloads.blocks(workload, seed), 1):
        for req in block:
            ts = clock()
            if tracer is None:
                rc, out, err = harness.execute(req)
            else:
                rc, out, err = tracer.run_request(len(results), harness.execute, req)
            te = clock()
            results.append((req, ts, te, rc, out, err))
            log.maybe_probe(te)
        elapsed = clock() - t0
        if done == blocks or (blocks is None and elapsed * (1 + 0.5 / done) >= seconds):
            break
    log.maybe_probe(clock())
    return results, clock() - t0, done, log


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--blocks", type=int, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    harness.import_dvrstat()
    _warm_up(args.workload)
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results, elapsed, blocks, log = _timed_loop(args.workload, args.seed, args.seconds,
                                                args.blocks, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = verdict.load_reference()
    requests = []
    for req, ts, te, rc, out, err in results:
        key = workloads.key(req)
        ok, reason, by = verdict.check(req, key, rc, out, reference)
        requests.append({"key": key, "latency_s": te - ts,
                         "ref_latency_s": (te - ts) * log.scale(ts, te),
                         "ok": ok, "reason": reason,
                         "checked_by": by, "digest": harness.digest(out),
                         "stderr": err.strip()[-200:]})
    report = {"setup_s": setup_s, "elapsed_s": elapsed, "blocks": blocks,
              "probe_s": {"count": len(log.took), "median": statistics.median(log.took),
                          "min": min(log.took), "max": max(log.took)},
              "peak_rss_mib": peak_rss_mib,
              "requests": requests}
    if tracer is not None:
        report["trace"] = tracer.summarize()
        if args.spans:
            tracer.save(args.spans)
    if args.workload == "sampler":
        report["odd_ring_probes"] = [
            {"key": workloads.key(req), "rc": rc, "stderr": err.strip()[-200:]}
            for req in workloads.ODD_RING_PROBES
            for rc, _, err in [harness.execute(req)]
        ]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
