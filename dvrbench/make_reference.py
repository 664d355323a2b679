"""Record the reference output digest of every benchmark request.

    python3 dvrbench/make_reference.py

Run at the commit whose outputs are the reference (the seed commit of
the benchmark).  It covers every request of the finite oracle and exact
grids, and the first SAMPLER_BLOCKS blocks of the sampler lists for
SAMPLER_SEEDS.  Every recorded request must exit 0 and satisfy the
invariants of its kind.  Writes dvrbench/reference.json.
"""

import json
import sys

import harness
import verdict
import workloads

SAMPLER_SEEDS = range(0, 11)
SAMPLER_BLOCKS = 12


def main():
    harness.import_dvrstat()
    requests = {}
    for workload in ("oracle", "exact"):
        for req in workloads.grid(workload):
            requests[workloads.key(req)] = req
    for seed in SAMPLER_SEEDS:
        for block in workloads.first_blocks("sampler", seed, SAMPLER_BLOCKS):
            for req in block:
                requests[workloads.key(req)] = req
    reference = {}
    for i, (key, req) in enumerate(sorted(requests.items())):
        rc, out, err = harness.execute(req)
        ok, reason, _ = verdict.check(req, key, rc, out, {})
        if not ok:
            print(f"error: {key}: {reason} {err.strip()}", file=sys.stderr)
            return 1
        reference[key] = harness.digest(out)
        if i % 500 == 0:
            print(f"{i}/{len(requests)}", file=sys.stderr)
    verdict.REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
