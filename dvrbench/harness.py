"""Runs one request against the dvrstat checkout and returns its output.

dvrstat is imported from `src/` of the checkout that holds this
directory, never from an installed copy.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from workloads import fiber_request

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_dvrstat():
    """Import dvrstat.cli from the checkout; raise if it is absent."""
    if not (SRC / "dvrstat" / "cli.py").is_file():
        raise FileNotFoundError(f"no dvrstat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dvrstat.cli

    loaded = pathlib.Path(dvrstat.cli.__file__).resolve()
    if SRC not in loaded.parents:
        raise ImportError(f"dvrstat was imported from {loaded}, not from {SRC}")
    return dvrstat.cli


def execute(req):
    """(exit code, stdout text, stderr text) of one request.

    A CLI request runs `dvrstat.cli.main(argv, out=buffer)` in-process;
    an exception it raises counts as exit code 1.  A fiber request's
    stdout is its canonical JSON record.
    """
    import dvrstat.cli

    kind, args = req
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            if kind == "cli":
                rc = dvrstat.cli.main(list(args), out=out)
            else:
                out.write(json.dumps(fiber_request(*args), sort_keys=True) + "\n")
                rc = 0
        except Exception as ex:  # a crash is a failed request, not a harness error
            err.write(f"{type(ex).__name__}: {ex}\n")
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:24]
