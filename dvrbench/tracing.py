"""Span tracer for the traced benchmark run.

The tracer wraps public functions of dvrstat from the outside: every
module-level binding of a target function (and the class attribute for
a method) is replaced by a wrapper that records one span per call.  A
span is (name, start, end, parent span, request id); spans live in flat
arrays while the run lasts and are written out once at the end.  The
program itself is not modified.
"""

import array
import functools
import inspect
import sys
import time

import numpy as np

# Layer functions whose spans the traced run reports, as
# "<module>.<qualified name>".  See BENCHMARK.json for the end-to-end
# metric and workload each one is expected to move.
TARGETS = (
    "cli.main",
    "measure.sample",
    "measure.sample_many",
    "linalg.poly_mul",
    "linalg.poly_divmod",
    "linalg.poly_ext_gcd_modp",
    "oracle.enumerate_module_homs",
    "oracle.ModuleHom.is_surjective",
    "oracle.fiber_tools",
    "oracle.gamma_submodules",
    "oracle.module_quotient",
    "linalg.quotient_structure",
    "linalg.smith_normal_form",
    "oracle.enumerate_extensions",
    "oracle.module_automorphisms",
    "oracle.conjugacy_stats",
    "oracle.splitting_count",
    "linalg.kernel_mod",
    "oracle.realize",
    "schur2.b_exact",
    "schur2.lattice_kernel_vectors",
    "schur2.w_map",
    "schur2.nr_pow",
    "schur2.b_closed",
    "measure.moment_truncated",
    "dvrmod.sur_count",
    "dvrmod.aut_count",
    "dvrmod.partitions_of",
    "checks.run_suites",
    "abelian.FiniteAbelianGroup.subgroups",
    "abelian.FiniteAbelianGroup.cyclic_quotients",
    "idempotents.enumerate_idempotents",
    "idempotents.threshold_ideal",
    "idempotents.ramtype_qualifies",
)

PACKAGE = "dvrstat"
REQUEST = "request"  # the harness's root span around each request
NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = [REQUEST]
        self.calls = [0]
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = NO_PARENT
        self.request_id = -1
        # outcome counters for the useful-work ratios
        self.surjective_true = 0
        self.sur_nonzero = 0
        self.homs_in_fiber = 0
        self._fiber_name = None

    # -- recording -------------------------------------------------------

    def _open(self, nid):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.request.append(self.request_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.calls[nid] += 1
        self.current = idx
        return idx

    def _close(self, idx, t0, t1):
        self.start[idx] = t0
        self.end[idx] = t1
        self.current = self.parent[idx]

    def span(self, fn, nid, *args, **kwargs):
        """Call fn inside a span named by nid; returns its result."""
        clock = time.perf_counter
        idx = self._open(nid)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, t0, clock())

    def run_request(self, request_id, fn, *args):
        self.request_id = request_id
        try:
            return self.span(fn, 0, *args)
        finally:
            self.request_id = -1

    def _inside(self, nid):
        idx = self.current
        while idx != NO_PARENT:
            if self.name_id[idx] == nid:
                return True
            idx = self.parent[idx]
        return False

    # -- installing ------------------------------------------------------

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator; spans would not nest")
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        span = self.span
        if name == "oracle.ModuleHom.is_surjective":
            def observe(result):
                self.surjective_true += bool(result)
        elif name == "dvrmod.sur_count":
            def observe(result):
                self.sur_nonzero += result != 0
        elif name == "oracle.enumerate_module_homs":
            def observe(result):
                if self._inside(self._fiber_name):
                    self.homs_in_fiber += len(result)
        else:
            observe = None
        if name == "oracle.fiber_tools":
            self._fiber_name = nid

        if observe is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return span(fn, nid, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = span(fn, nid, *args, **kwargs)
                observe(result)
                return result
        return wrapper

    def install(self):
        """Replace every binding of each target in the loaded package.

        Modules bind some targets by name (measure imports sur_count and
        aut_count from dvrmod, cli imports sample_many, ...), so each
        module's own binding is replaced, not only the defining one.
        """
        modules = {k: m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))}
        for target in TARGETS:
            modname, _, attr = target.partition(".")
            owner = modules[f"{PACKAGE}.{modname}"]
            *path, fname = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, fname)
            wrapper = self._wrap(target, original)
            setattr(owner, fname, wrapper)
            if path:
                continue  # a method: the class attribute is its only binding
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    # -- reporting -------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summarize(self):
        """Per-name calls and self time, plus the nesting self-check.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly (one thread, no generators), so
        within each request the self times sum to the root's duration.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_sum = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                minlength=len(dur))
        self_s = dur - child_sum
        per_name_self = np.bincount(a["name_id"], weights=self_s, minlength=n_names)
        per_name_total = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        roots = (a["name_id"] == 0)
        req = a["request"]
        nreq = int(req.max()) + 1 if len(req) else 0
        root_dur = np.bincount(req[roots], weights=dur[roots], minlength=nreq)
        self_sum = np.bincount(req[req >= 0], weights=self_s[req >= 0], minlength=nreq)
        worst = float(np.max(np.abs(self_sum - root_dur))) if nreq else 0.0
        # the sum identity holds for any parent links; nesting is what
        # makes self time meaningful, so check it span by span
        p = a["parent"][has_parent]
        outside = (a["start"][has_parent] < a["start"][p]) | (a["end"][has_parent] > a["end"][p])
        return {
            "names": list(self.names),
            "calls": list(self.calls),
            "self_s": per_name_self.tolist(),
            "total_s": per_name_total.tolist(),
            "spans": int(len(dur)),
            "requests": nreq,
            "selfcheck_max_abs_err_s": worst,
            "spans_outside_parent": int(np.count_nonzero(outside)),
            "spans_in_other_request": int(np.count_nonzero(req[has_parent] != req[p])),
            "surjective_true": self.surjective_true,
            "sur_nonzero": self.sur_nonzero,
            "homs_in_fiber": self.homs_in_fiber,
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
