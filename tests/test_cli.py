import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dvrstat import cli, dvrmod, measure as measure_mod
from dvrstat.dvrmod import ModuleType
from dvrstat.measure import measure

# `dvrstat sample` stdout recorded before the batched sampler, keyed by
# the arguments after `sample`: Q = 2, 3, 5 and the rings Q = 4, 8, a run
# across a chunk boundary (2500 trials) and p^prec >= 2^31 (3^20, 2^40,
# and 2^32 over F4), which the sampler runs in object dtype; and runs at
# p^prec on either side of the 2^16 valuation table (2^16, 2^17, 5^6, 5^7),
# recorded before the int32 pivot keys
GOLDEN = json.loads((Path(__file__).parent / "sample_golden.json").read_text())
EXT_GOLDEN = json.loads((Path(__file__).parent / "ext_golden.json").read_text())
EXACT_GOLDEN = json.loads((Path(__file__).parent / "exact_golden.json").read_text())


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def src_env():
    """The environment with the package's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(*args, timeout=120):
    """A fresh interpreter with the package's sources on its path."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=src_env(), timeout=timeout)


def trace_targets():
    """`TARGETS` of the benchmark's tracer, "<module>.<qualified name>"."""
    path = Path(__file__).resolve().parents[1] / "dvrbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("dvrbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


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


@pytest.mark.parametrize("inertia", ["1,0,7", "1,0"])
def test_ramtype_rejects_generators_of_the_wrong_length(inertia, capsys):
    code, _ = run([
        "ramtype", "--gamma", "4", "--p", "2", "--index", "0",
        "--d", "0", "--inertia", inertia, "--decomposition", "1",
    ])
    assert code == 2
    assert "coordinates, Γ has rank 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("group", ["ext_0_5_to_3_5_s", "ext_over_3_5_s"])
def test_ext_stdout_matches_golden(group):
    # orbits from the automorphism generators give the same classes and
    # representatives as the pass over all of Aut_Γ(H); each request runs
    # twice, and the second run builds its groups from the classes its
    # module kept
    for request, want in EXT_GOLDEN[group].items():
        for _ in range(2):
            code, out = run(request.split())
            got = {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
            assert got == want, request


@pytest.mark.parametrize("group", ["measure", "moment", "b2", "ratio", "idem", "ie", "ramtype",
                                   "verify", "ie_large"])
def test_exact_stdout_matches_golden(group):
    # the exact workload's measure, moment (B <= 12), b2, ratio, idem, ie and
    # ramtype requests, every verify suite but `all`, and `ie` on two groups of
    # order 2^16 and 2^10, byte for byte
    for request, want in EXACT_GOLDEN[group].items():
        code, out = run(request.split())
        got = {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
        assert got == want, request


@pytest.mark.parametrize("request_args", [
    "ext --gamma 2 --p 2 --index 0 --parts 1,1,1,1,1",
    "ext --gamma 2 --p 2 --index 1 --parts 2,1,1,1,1",
    "ext --gamma 4 --p 2 --index 0 --parts 2,1,1,1,1",
    "ext --gamma 4 --p 2 --index 2 --parts 3,2,1",
])
def test_formerly_capped_ext_passes_split_dichotomy(request_args):
    # each of these was refused by the 2^22 automorphism cap; now every
    # class's conjugacy counts d are at most the split extension's, and a
    # class splits exactly when all of them match
    code, out = run(request_args.split())
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()[1:]]
    assert len(recs) > 1 and recs[0]["split"]
    split_d = [row["d"] for row in recs[0]["conjugacy"]]
    for rec in recs:
        d = [row["d"] for row in rec["conjugacy"]]
        assert all(a <= b for a, b in zip(d, split_d))
        assert (rec["splitting_count"] > 0) == (d == split_d)


@pytest.mark.parametrize("Q", [9, 25])
def test_sample_odd_prime_power_Q(Q):
    trials = 20000
    code, out = run(["sample", "--Q", str(Q), "--n", "6", "--prec", "3",
                     "--trials", str(trials), "--seed", "5"])
    assert code == 0
    counts = {l.rsplit(",", 2)[0].strip('"'): int(l.rsplit(",", 2)[1]) for l in out.splitlines()[2:]}
    for label, lam in [("0", ()), ("1", (1,))]:
        lo, hi = measure(ModuleType(Q, lam))
        p = float((lo + hi) / 2)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts.get(label, 0) / trials - p) < 3 * sigma


def test_sample_bad_arguments_exit_2():
    for bad in (["--n", "0", "--prec", "3"], ["--n", "2", "--prec", "0"], ["--n", "2", "--prec", "62"],
                ["--n", "5793", "--prec", "3"]):
        code, _ = run(["sample", "--Q", "2", "--trials", "10", "--seed", "1"] + bad)
        assert code == 2
    code, _ = run(["sample", "--Q", "2", "--n", "2", "--prec", "3", "--trials", "-1", "--seed", "1"])
    assert code == 2


def test_sample_negative_seed_exit_2(capsys):
    code, _ = run(["sample", "--Q", "2", "--n", "2", "--prec", "3", "--trials", "10", "--seed", "-1"])
    assert code == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


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
    code, _ = run(["oracle", "--Q", "2", "--lam", "1", "--mu", "13"])
    assert code == 2  # 2^13 target elements: refused before any is listed
    code, _ = run(["counts", "--Q", "2", "--lam", "1,2", "--mu", "1"])
    assert code == 2  # not weakly decreasing


@pytest.mark.parametrize("error", [AssertionError, KeyError, IndexError])
def test_internal_errors_are_not_validation_errors(error, monkeypatch):
    # only ValueError means invalid input (exit 2); a failed internal
    # invariant propagates out of main
    def broken(*args, **kwargs):
        raise error("internal invariant")

    monkeypatch.setattr(cli.oracle, "enumerate_extensions", broken)
    with pytest.raises(error):
        run(["ext", "--gamma", "2", "--p", "2", "--index", "1", "--parts", "1"])


def test_non_prime_power_Q_exit_2(capsys):
    for argv in (["counts", "--Q", "6", "--lam", "1", "--mu", "1"],
                 ["weight", "--Q", "12", "--lam", "1", "--mu", "2", "--d", "1"],
                 ["b2", "--H", "4,4", "--q", "15", "--n", "4"],
                 ["b2", "--H", "2", "--q", "-1", "--n", "2"],
                 ["measure", "--Q", "6", "--parts", "1"],
                 ["moment", "--Q", "6", "--V", "1", "--B", "2"],
                 ["sample", "--Q", "6", "--n", "2", "--prec", "2", "--trials", "1", "--seed", "1"]):
        code, _ = run(argv)
        assert code == 2
        assert "is not a prime power" in capsys.readouterr().err


def test_large_prime_Q_and_p_exit_quickly():
    # Q = p = 2^61 - 1 is prime; trial division to its square root never ended.
    # 2^89 - 1 is a prime past the range where Miller–Rabin proves primality,
    # so it is refused, and a Γ of order 2^61 - 1 is too large to list
    M61, M89 = str(2**61 - 1), str(2**89 - 1)
    for args, code in ((["counts", "--Q", M61, "--lam", "1", "--mu", "1"], 0),
                       (["idem", "--gamma", "2", "--p", M61], 0),
                       (["measure", "--Q", M61, "--parts", "1"], 2),
                       (["idem", "--gamma", M61, "--p", "2"], 2),
                       (["counts", "--Q", M89, "--lam", "1", "--mu", "1"], 2),
                       (["idem", "--gamma", "2", "--p", M89], 2)):
        res = run_python("-m", "dvrstat.cli", *args, timeout=20)
        assert res.returncode == code, (args, res.stderr)


# requests refused from their partition alone, before the value is computed
UNPRINTABLE_FROM_PARTITION = [("measure --Q 2 --parts 100000000", 2), ("counts --Q 2 --lam 100000000 --mu 1", 2)]


@pytest.mark.parametrize("request_args, want", [("measure --Q 101 --parts 1", 0),
                                                 ("measure --Q 103 --parts 1", 2),
                                                 ("moment --Q 127 --V 1 --B 2", 2),
                                                 ("idem --gamma 65536 --p 3", 2),
                                                 ("counts --Q 2 --lam 15000 --mu 15000", 2),
                                                 *UNPRINTABLE_FROM_PARTITION])
def test_unprintable_exact_value_exit_2(request_args, want, capsys):
    # from Q = 103 the exact brackets outgrow Python's digit limit for printing
    # an int, as do Q = 3^16384 of the last idempotent of Z/65536 at p = 3,
    # the hom count 2^(15000^2), |Aut| >= 2^(10^8 - 1) and a measure's
    # denominator, a multiple of 2^(10^8); an idem request writes no record
    # before it
    code, out = run(request_args.split())
    assert code == want
    limit = sys.get_int_max_str_digits()
    refused = f"error: the exact value has more than {limit} digits" in capsys.readouterr().err
    assert refused == (want == 2)
    assert len(out.splitlines()) == (1 if refused else 2)  # the header, then the record


@pytest.mark.parametrize("request_args, want", UNPRINTABLE_FROM_PARTITION)
def test_unprintable_exact_value_refused_before_computing(request_args, want, capsys, monkeypatch):
    # measure's bracket needs z_bracket, and both requests need an |Aut|
    def unreached(*args):
        pytest.fail("computed a value it then refused to print")

    monkeypatch.setattr(measure_mod, "z_bracket", unreached)
    for module in (dvrmod, measure_mod, cli):
        monkeypatch.setattr(module, "aut_count", unreached)
    code, out = run(request_args.split())
    assert code == want
    assert len(out.splitlines()) == 1  # the header only
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"error: the exact value has more than {limit} digits, too many to print\n"


@pytest.mark.parametrize("request_args", ["ext --gamma 1048576 --p 2 --index 0 --parts 1",
                                          "ext --gamma 16 --p 2 --index 0 --parts 1",
                                          "ext --gamma 16 --p 2 --index 99 --parts 1",
                                          "ext --gamma 16 --p 4 --index 0 --parts 1"])
def test_ext_refuses_large_gamma_before_listing_characters(request_args, capsys):
    # |Γ| > 8 is refused before the characters of Γ are listed, so it is
    # the error reported even beside a bad --index or a non-prime p
    code, out = run(request_args.split())
    assert code == 2
    assert len(out.splitlines()) == 1  # the header only
    assert capsys.readouterr().err == "error: extension enumeration cap exceeded\n"


@pytest.mark.parametrize("request_args", ["ext --gamma 2 --p 2 --index 0 --parts 65",
                                          "ext --gamma 2 --p 2 --index 0 --parts 9",
                                          "ext --gamma 3 --p 2 --index 1 --parts 5",
                                          "ext --gamma 8 --p 2 --index 3 --parts 200",
                                          "ext --gamma 2 --p 3 --index 0 --parts 1000000000"])
def test_ext_refuses_large_module_before_realizing(request_args, capsys, monkeypatch):
    # |H| = Q^Σparts > 256 is refused from the partition, before H is built
    def unexpected(e, M):
        raise AssertionError(f"realized {M}")

    monkeypatch.setattr(cli.oracle, "realize", unexpected)
    code, out = run(request_args.split())
    assert code == 2
    assert len(out.splitlines()) == 1  # the header only
    assert capsys.readouterr().err == "error: extension enumeration cap exceeded\n"


def test_ext_realizes_a_module_at_the_size_cap():
    # |H| = 2^8 = 256 is within the cap: H is realized and its split
    # extension comes first
    code, out = run("ext --gamma 2 --p 2 --index 1 --parts 8".split())
    assert code == 0
    assert json.loads(out.splitlines()[1])["split"]


def test_closed_stdout_exits_quietly():
    # the reader takes the header line and closes the pipe while the
    # writer still has most of its 0.6 MB to write
    proc = subprocess.Popen([sys.executable, "-m", "dvrstat.cli", "idem", "--gamma", "65536", "--p", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    assert json.loads(proc.stdout.readline())["request"]["subcommand"] == "idem"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_b2_q_one_exit_2():
    code, _ = run(["b2", "--H", "2", "--q", "1", "--n", "2"])
    assert code == 2


def test_b2_negative_n_exit_2(capsys):
    for n in ("-1", "-2"):
        code, _ = run(["b2", "--H", "2", "--q", "3", "--n", n])
        assert code == 2
        assert f"n = {n} must be >= 0" in capsys.readouterr().err


def test_invalid_group_exit_2_under_optimize():
    # input checks must not be asserts, which -O strips
    res = run_python("-O", "-m", "dvrstat.cli", "idem", "--gamma", "0", "--p", "2")
    assert res.returncode == 2
    msg = res.stderr.strip()
    assert msg.startswith("error: ") and len(msg) > len("error: ")


def test_module_validation_survives_optimize():
    # an action matrix whose entry (0, 1) is not divisible by 2 must be
    # rejected under -O too
    res = run_python("-O", "-c", "from dvrstat import oracle; from dvrstat.abelian import FiniteAbelianGroup\n"
                     "try:\n"
                     "    oracle.ExplicitModule(2, (4, 2), FiniteAbelianGroup((2,)), [[[1, 1], [0, 1]]])\n"
                     "except ValueError as exc:\n"
                     "    print('ValueError:', exc)\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("ValueError: action matrix not well defined")


def test_cocycle_validation_survives_optimize():
    # f(1, 1) = 1 and 0 elsewhere is normalized but no cocycle of Z/3 in Z/2
    res = run_python("-O", "-c", "from dvrstat import oracle; from dvrstat.abelian import FiniteAbelianGroup\n"
                     "H = oracle.ExplicitModule(2, (2,), FiniteAbelianGroup((3,)), [[[1]]])\n"
                     "try:\n"
                     "    oracle.ExplicitGroup(H, {**oracle.ExplicitGroup.split(H).cocycle, ((1,), (1,)): (1,)})\n"
                     "except ValueError as exc:\n"
                     "    print('ValueError:', exc)\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "ValueError: cocycle identity fails\n"


def test_linalg_input_checks_survive_optimize():
    # y = (1, 0) does not solve y_1 + y_2 ≡ 0 mod 4
    res = run_python("-O", "-c", "from dvrstat import linalg\n"
                     "try:\n"
                     "    linalg.kernel_mod([[1, 1]], 4, 2)[2]([1, 0])\n"
                     "except ValueError as exc:\n"
                     "    print('ValueError:', exc)\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "ValueError: vector not in solution group\n"


def test_mult_order_of_a_non_unit_raises_under_optimize():
    # 2 is not a unit mod 4: the powers run 2, 0, 0, ... and never reach 1
    res = run_python("-O", "-c", "from dvrstat.abelian import mult_order\n"
                     "try:\n"
                     "    mult_order(2, 4)\n"
                     "except ValueError as exc:\n"
                     "    print('ValueError:', exc)\n", timeout=30)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("ValueError: 2 is not a unit mod 4")


def test_cover_exponent_checks_survive_optimize():
    # unsorted exponents would give b_exact((1, 2), 3, 4) = 20 where the
    # sorted (2, 1) gives 11, and a zero exponent b_closed((0,), 1, 4) = 3
    res = run_python("-O", "-c", "from dvrstat import schur2\n"
                     "for call in (lambda: schur2.b_exact((1, 2), 3, 4), lambda: schur2.b_closed((0,), 1, 4)):\n"
                     "    try:\n"
                     "        print(call())\n"
                     "    except ValueError as exc:\n"
                     "        print('ValueError:', exc)\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["ValueError: exponents (1, 2) must be sorted descending",
                                       "ValueError: exponents (0,) must be positive"]


def test_ext_does_not_import_sympy():
    # Γ = Z/3 at p = 5: residue degree 2, so realize builds an unramified factor
    res = run_python("-c", "import io, sys; from dvrstat import cli; "
                     "code = cli.main(['ext', '--gamma', '3', '--p', '5', '--index', '1', "
                     "'--parts', '1'], out=io.StringIO()); print(code, 'sympy' in sys.modules)")
    assert res.stdout.split() == ["0", "False"], res.stderr


def test_requests_in_one_process_match_fresh_processes():
    requests = [
        ["idem", "--gamma", "3", "--p", "2"],
        ["counts", "--Q", "4", "--lam", "2,1", "--mu", "1"],
        ["idem", "--gamma", "3"],  # parse error: missing --p
        ["ie", "--gamma", "4", "--p", "2", "--index", "1"],
        ["sample", "--Q", "3", "--n", "3", "--prec", "3", "--trials", "50", "--seed", "5"],
        ["counts", "--Q", "4", "--lam", "2,1", "--mu", "1"],
    ]
    series = run_python("-c", "import io, json, sys; from dvrstat import cli\n"
                        "out = []\n"
                        "for argv in json.loads(sys.argv[1]):\n"
                        "    buf = io.StringIO(); out.append([cli.main(argv, out=buf), buf.getvalue()])\n"
                        "print(json.dumps(out))", json.dumps(requests))
    fresh = [run_python("-m", "dvrstat.cli", *argv) for argv in requests]
    assert json.loads(series.stdout) == [[r.returncode, r.stdout] for r in fresh]
    assert [r.returncode for r in fresh] == [0, 0, 2, 0, 0, 0]


def test_big_integers_as_strings():
    _, out = run(["counts", "--Q", "3", "--lam", "9,9,9,9", "--mu", "9,9,9,9"])
    rec = json.loads(out.strip().splitlines()[1])
    assert isinstance(rec["hom"], str)
    assert int(rec["hom"]) == 3 ** (9 * 16)


def test_benchmark_trace_targets_are_plain_functions():
    # the benchmark's traced run wraps each target by name and raises on a
    # missing name or a generator function
    for target in trace_targets():
        modname, _, attr = target.partition(".")
        owner = importlib.import_module(f"dvrstat.{modname}")
        *classes, fname = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        fn = inspect.getattr_static(owner, fname)
        assert inspect.isfunction(fn), target
        assert not inspect.isgeneratorfunction(fn), target


def test_numpy_is_loaded_only_by_sampling():
    # every module the benchmark's tracer wraps is loaded by `import
    # dvrstat.cli`, and no request outside the sampler loads numpy
    modules = sorted({"dvrstat." + t.partition(".")[0] for t in trace_targets()})
    requests = [
        ["idem", "--gamma", "3", "--p", "2"],
        ["ie", "--gamma", "4", "--p", "2"],
        ["ramtype", "--gamma", "4", "--p", "2", "--index", "0", "--d", "1",
         "--inertia", "1", "--decomposition", "1"],
        ["counts", "--Q", "2", "--lam", "1", "--mu", "1"],
        ["weight", "--Q", "2", "--lam", "3,1", "--mu", "2", "--d", "1"],
        ["oracle", "--Q", "2", "--lam", "2,1", "--mu", "1,1"],
        ["ext", "--gamma", "2", "--p", "2", "--index", "0", "--parts", "1"],
        ["b2", "--H", "2,2", "--q", "3", "--n", "4"],
        ["ratio", "--H", "4,4", "--v", "1"],
        ["measure", "--Q", "2", "--parts", "1"],
        ["moment", "--Q", "2", "--V", "1", "--B", "4"],
        *(["verify", "--suite", s] for s in ("rings", "modules", "groups", "schur")),
    ]
    res = run_python("-c", "import io, json, sys; import dvrstat.cli as cli\n"
                     "missing = [m for m in json.loads(sys.argv[1]) if m not in sys.modules]\n"
                     "codes = [cli.main(argv, out=io.StringIO()) for argv in json.loads(sys.argv[2])]\n"
                     "print(json.dumps([missing, codes, 'numpy' in sys.modules]))",
                     json.dumps(modules), json.dumps(requests))
    assert json.loads(res.stdout) == [[], [0] * len(requests), False], res.stderr


def test_replay_of_the_working_tree_matches_itself(tmp_path):
    # two replays of the first two requests of each set agree, and a
    # changed record is listed by --diff
    tool = Path(__file__).resolve().parents[1] / "tools" / "replay.py"
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        res = subprocess.run([sys.executable, str(tool), "--out", str(path), "--limit", "2"],
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
    records = [json.loads(line) for line in b.read_text().splitlines()]
    assert [r["set"] for r in records] == ["exact"] * 2 + ["oracle"] * 2 + ["verify"] + \
        [s for s in ("warmup", "left_out", "golden", "probes") for _ in range(2)]
    assert records[4] == {"set": "verify", "request": "verify --suite all", "exit": 0,
                          "stdout_sha256": records[4]["stdout_sha256"], "stderr": ""}
    same = subprocess.run([sys.executable, str(tool), "--diff", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert (same.returncode, same.stdout) == (0, f"0 of {len(records)} requests differ\n")
    records[0]["exit"] = 7
    b.write_text("".join(json.dumps(r) + "\n" for r in records))
    changed = subprocess.run([sys.executable, str(tool), "--diff", str(a), str(b)],
                             capture_output=True, text=True, timeout=60)
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [f"{records[0]['request']}: exit differ", "  exit: 0 -> 7",
                                           f"1 of {len(records)} requests differ"]
