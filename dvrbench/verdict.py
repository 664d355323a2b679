"""Correctness check for every request.

A request whose key has a reference (recorded from the seed commit by
make_reference.py) must reproduce its stdout digest.  Every request must
also exit 0 and satisfy the invariants of its kind, which are the whole
check for requests without a reference (a new seed):

- sample: counts sum to the trials, labels are partitions with parts <= prec;
- b2: b_exact = b_closed except on the known v = 1 deviations;
- moment: the bracket contains 1/|V|;
- fiber: rank(⊠) = rank(N3) for every pair;
- verify: no failed check.
"""

import csv
import io
import json
import pathlib
from fractions import Fraction

from harness import digest

REFERENCE_PATH = pathlib.Path(__file__).parent / "reference.json"


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def _flag(args, name):
    return args[args.index(name) + 1]


def _parts(s):
    return tuple(int(x) for x in s.split(",") if x)


def _val2(n):
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


def _check_sample(args, body):
    trials, prec = int(_flag(args, "--trials")), int(_flag(args, "--prec"))
    rows = list(csv.reader(io.StringIO(body)))
    if rows[0] != ["label", "count", "frequency"]:
        return "bad CSV header"
    if sum(int(r[1]) for r in rows[1:]) != trials:
        return "counts do not sum to trials"
    for label, _, _ in rows[1:]:
        if label == "0":
            continue
        marks = label.split(",")
        overflow = marks[0].endswith("+")
        parts = [int(m.rstrip("+")) for m in marks]
        if any("+" in m for m in marks[1:]) or parts != sorted(parts, reverse=True):
            return f"label {label} is not a partition"
        if parts[-1] < 1 or parts[0] > prec or overflow != (parts[0] == prec):
            return f"label {label} has parts outside 1..{prec}"
    return None


def _check_b2(args, rec):
    ds = [_val2(int(x)) for x in _flag(args, "--H").split(",")]
    v = _val2(int(_flag(args, "--q")) - 1)
    # at v = 1 the closed form is a large-n limit when the cover kernel
    # ∧²(2H) is nontrivial, i.e. when 2H has rank >= 2
    deviation_allowed = v == 1 and sum(d >= 2 for d in ds) >= 2
    if not rec["agree"] and not deviation_allowed:
        return "b_exact != b_closed outside the known deviations"
    return None


def _check_moment(args, rec):
    Q = int(_flag(args, "--Q"))
    inv = Fraction(1, Q ** sum(_parts(_flag(args, "--V"))))
    if not Fraction(rec["lower"]) <= inv <= Fraction(rec["upper"]):
        return "moment bracket misses 1/|V|"
    return None


def _check_fiber(rec):
    if any(pair[3] != rec["rank3"] for pair in rec["pairs"]):
        return "rank of the reduced fiber product differs from rank(N3)"
    return None


def invariant_failure(req, out):
    """Reason the output breaks an invariant of its kind, else None."""
    kind, args = req
    if kind == "fiber":
        return _check_fiber(json.loads(out))
    header, _, body = out.partition("\n")
    if "version" not in json.loads(header):
        return "missing provenance header"
    cmd = args[0]
    if cmd == "sample":
        return _check_sample(args, body)
    if cmd == "b2":
        return _check_b2(args, json.loads(body))
    if cmd == "moment":
        return _check_moment(args, json.loads(body))
    if cmd == "verify":
        return None if json.loads(body.splitlines()[-1])["failed"] == 0 else "verify check failed"
    return None


def check(req, key, rc, out, reference):
    """(ok, reason, checked_by) for one request's result."""
    if rc != 0:
        return False, f"exit code {rc}", "exit"
    try:
        reason = invariant_failure(req, out)
    except (ValueError, KeyError, IndexError) as ex:
        reason = f"unparseable output ({type(ex).__name__}: {ex})"
    if reason:
        return False, reason, "invariant"
    ref = reference.get(key)
    if ref is None:
        return True, None, "invariant"
    if digest(out) != ref:
        return False, "stdout differs from the seed-commit reference", "reference"
    return True, None, "reference"
