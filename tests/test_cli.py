import io
import json
import math
from pathlib import Path

import pytest

from dvrstat import cli
from dvrstat.dvrmod import ModuleType
from dvrstat.measure import MeasureContext, measure

# `dvrstat sample` stdout recorded before the batched sampler, keyed by
# the arguments after `sample`: Q = 2, 3, 5 and the rings Q = 4, 8, a run
# across a chunk boundary (2500 trials) and p^prec >= 2^31 (3^20, 2^40,
# and 2^32 over F4), which the sampler runs in object dtype
GOLDEN = json.loads((Path(__file__).parent / "sample_golden.json").read_text())


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def test_provenance_header_first_line():
    code, out = run(["idem", "--gamma", "3", "--p", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    head = json.loads(lines[0])
    assert head["version"]
    assert head["request"]["subcommand"] == "idem"
    assert head["request"]["gamma"] == "3"
    assert len(lines) == 3  # header + two idempotent records


def test_idem_records():
    _, out = run(["idem", "--gamma", "3", "--p", "2"])
    recs = [json.loads(l) for l in out.strip().splitlines()[1:]]
    assert {r["dimension"] for r in recs} == {1, 2}
    assert {r["Q"] for r in recs} == {2, 4}


def test_ie_threshold():
    code, out = run(["ie", "--gamma", "4", "--p", "2"])
    assert code == 0
    recs = [json.loads(l) for l in out.strip().splitlines()[1:]]
    assert sorted(r["threshold_d"] for r in recs) == [1, 2, 2]
    assert all(not r["whole_ring"] for r in recs)


def test_counts_and_oracle_agree():
    _, out1 = run(["counts", "--Q", "2", "--lam", "2,1", "--mu", "1,1"])
    _, out2 = run(["oracle", "--Q", "2", "--lam", "2,1", "--mu", "1,1"])
    c = json.loads(out1.strip().splitlines()[1])
    o = json.loads(out2.strip().splitlines()[1])
    assert c["hom"] == o["hom"] and c["sur"] == o["sur"]


def test_ratio_output():
    code, out = run(["ratio", "--H", "4,4", "--v", "1"])
    assert code == 0
    assert out.strip().splitlines()[1] == "1/4"
    code, out = run(["ratio", "--H", "4,4", "--v", "2"])
    assert out.strip().splitlines()[1] == "1/2"


def test_b2_agreement_flag():
    _, out = run(["b2", "--H", "2,2", "--q", "3", "--n", "6"])
    rec = json.loads(out.strip().splitlines()[1])
    assert rec["agree"] is True
    _, out = run(["b2", "--H", "4,4", "--q", "3", "--n", "4"])
    rec = json.loads(out.strip().splitlines()[1])
    assert rec["b_exact"] == 20 and rec["b_closed"] == 11 and rec["agree"] is False


def test_ext_tables():
    code, out = run(["ext", "--gamma", "2", "--p", "2", "--index", "1", "--parts", "2"])
    assert code == 0
    recs = [json.loads(l) for l in out.strip().splitlines()[1:]]
    assert len(recs) == 2
    assert recs[0]["split"] and not recs[1]["split"]
    assert recs[0]["conjugacy"] == [{"gamma": "1", "c": 4, "d": 2}]


def test_ramtype_subcommand():
    code, out = run([
        "ramtype", "--gamma", "4", "--p", "2", "--index", "0",
        "--d", "1", "--inertia", "1", "--decomposition", "1",
    ])
    assert code == 0
    rec = json.loads(out.strip().splitlines()[1])
    assert rec["qualifies"] in (True, False)


def test_sample_csv_format():
    code, out = run(["sample", "--Q", "2", "--n", "2", "--prec", "3",
                     "--trials", "100", "--seed", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["seed"] == 1
    assert lines[1] == "label,count,frequency"
    total = sum(int(l.split(",")[-2]) for l in lines[2:])
    assert total == 100


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_sample_stdout_matches_golden(args):
    code, out = run(["sample"] + args.split())
    assert code == 0
    assert out == GOLDEN[args]


@pytest.mark.parametrize("Q", [9, 25])
def test_sample_odd_prime_power_Q(Q):
    trials = 20000
    code, out = run(["sample", "--Q", str(Q), "--n", "6", "--prec", "3",
                     "--trials", str(trials), "--seed", "5"])
    assert code == 0
    counts = {l.rsplit(",", 2)[0].strip('"'): int(l.rsplit(",", 2)[1]) for l in out.splitlines()[2:]}
    for label, lam in [("0", ()), ("1", (1,))]:
        lo, hi = measure(MeasureContext(Q), ModuleType(Q, lam))
        p = float((lo + hi) / 2)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts.get(label, 0) / trials - p) < 3 * sigma


def test_sample_bad_arguments_exit_2():
    for bad in (["--n", "0", "--prec", "3"], ["--n", "2", "--prec", "0"], ["--n", "2", "--prec", "62"]):
        code, _ = run(["sample", "--Q", "2", "--trials", "10", "--seed", "1"] + bad)
        assert code == 2
    code, _ = run(["sample", "--Q", "2", "--n", "2", "--prec", "3", "--trials", "-1", "--seed", "1"])
    assert code == 2


def test_byte_identical_reproducibility():
    argv = ["sample", "--Q", "3", "--n", "3", "--prec", "4",
            "--trials", "500", "--seed", "7"]
    _, out1 = run(argv)
    _, out2 = run(argv)
    assert out1 == out2
    _, out3 = run(["moment", "--Q", "2", "--V", "1", "--B", "8"])
    _, out4 = run(["moment", "--Q", "2", "--V", "1", "--B", "8"])
    assert out3 == out4


def test_verify_suite_exit_code():
    code, out = run(["verify", "--suite", "modules"])
    assert code == 0
    recs = [json.loads(l) for l in out.strip().splitlines()[1:]]
    summary = recs[-1]
    assert summary["failed"] == 0 and summary["total"] == len(recs) - 1
    assert all(r["ok"] for r in recs[:-1])


def test_verify_all_passes():
    code, out = run(["verify", "--suite", "all"])
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failed"] == 0
    suites = {json.loads(l).get("suite") for l in out.strip().splitlines()[1:-1]}
    assert suites == {"rings", "modules", "groups", "schur", "measure"}


def test_parse_error_exit_2():
    code, _ = run(["idem", "--gamma", "3"])  # missing --p
    assert code == 2
    code, _ = run(["nosuchcommand"])
    assert code == 2
    code, _ = run(["oracle", "--Q", "4", "--lam", "1", "--mu", "1"])
    assert code == 2  # brute-force counts need a prime Q
    code, _ = run(["counts", "--Q", "2", "--lam", "1,2", "--mu", "1"])
    assert code == 2  # not weakly decreasing


def test_big_integers_as_strings():
    _, out = run(["counts", "--Q", "3", "--lam", "9,9,9,9", "--mu", "9,9,9,9"])
    rec = json.loads(out.strip().splitlines()[1])
    assert isinstance(rec["hom"], str)
    assert int(rec["hom"]) == 3 ** (9 * 16)
