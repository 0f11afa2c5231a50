import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bvdesk
from bvdesk.battery import BASE_ENV, BATTERY
from bvdesk import cli
from bvdesk.cli import (EVAL_CAP, MAX_CONVERGENT_INDEX, MAX_MATRIX_ORDER, MAX_TRIALS, PI_CAP,
                        main)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)
#: Malformed inputs, each of which the golden corpus also replays.
MALFORMED = make_golden.MALFORMED
_diagonal = make_golden._diagonal


@pytest.fixture
def env_file(tmp_path):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({
        "empty": {"hf": []},
        "one": {"hf": [[]]},
        "two": {"hf": 2},
    }))
    return str(path)


@pytest.fixture
def covers_file(tmp_path):
    path = tmp_path / "covers.json"
    path.write_text(json.dumps({
        "atoms": 4,
        "covers": [
            [{"atoms": [0, 1]}, {"atoms": [2, 3]}],
            [{"atoms": [0, 2]}, {"atoms": [1, 3]}],
        ],
    }))
    return str(path)


class Started(Exception):
    """Raised by a stand-in for the work a command starts once its checks pass."""


def started(*args, **kwargs):
    raise Started


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    data = json.loads(capsys.readouterr().out)
    return code, data


def run_process(argv):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(bvdesk.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "bvdesk.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestEval:
    def test_truth_value_full(self, capsys, env_file):
        code, data = run_json(capsys, [
            "bvu", "eval", "--env", env_file, "--formula", "empty in one"])
        assert code == 0
        assert data["truth_value"] == {"atoms": [0, 1]}

    def test_existential_witnesses_reported(self, capsys, env_file):
        code, data = run_json(capsys, [
            "bvu", "eval", "--env", env_file,
            "--formula", "exists t in two : t = one"])
        assert code == 0
        assert data["witnesses"]["attained"] is not None

    def test_parse_error_exits_2(self, capsys, env_file):
        code = main(["bvu", "eval", "--env", env_file, "--formula", "empty inn one"])
        assert code == 2
        assert "position" in capsys.readouterr().err

    def test_unbound_constant_exits_2(self, capsys, env_file):
        code = main(["bvu", "eval", "--env", env_file, "--formula", "ghost = ghost"])
        assert code == 2

    def test_unbound_constant_under_zero_valued_entries_exits_2(self, capsys, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"x": {"dom": [[{"hf": 0}, {"atoms": []}]]}}))
        code = main(["bvu", "eval", "--env", str(path),
                     "--formula", "forall a in x : a = ghost"])
        assert code == 2
        assert "unbound constant 'ghost'" in capsys.readouterr().err

    def test_deeply_nested_formula_exits_2(self, env_file):
        formula = "(" * 2000 + "empty = empty" + ")" * 2000
        proc = run_process(["bvu", "eval", "--env", env_file, "--formula", formula])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "nested deeper" in proc.stderr

    def test_missing_file_exits_2(self, capsys):
        code = main(["bvu", "eval", "--env", "/nonexistent.json",
                     "--formula", "a = a"])
        assert code == 2

    def test_quantifier_work_capped(self, capsys, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"x": {"hf": 2}}))
        formula = "forall a in x : " * 99 + "x = x"
        start = time.perf_counter()
        code = main(["bvu", "eval", "--atoms", "3", "--env", str(path), "--formula", formula])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert f"cap {EVAL_CAP}" in capsys.readouterr().err

    def test_battery_and_documented_examples_under_cap(self, capsys, tmp_path):
        path = tmp_path / "env.json"
        env = {name: {"hf": value} for name, value in BASE_ENV.items()}
        env["y"] = {"dom": [[{"hf": []}, {"atoms": [0]}]]}  # the README's example
        path.write_text(json.dumps(env))
        for item in BATTERY:
            code, data = run_json(capsys, ["bvu", "eval", "--env", str(path),
                                           "--formula", item.text])
            assert code == 0
            assert data["truth_value"] == {"atoms": [0, 1] if item.expected else []}
        code, data = run_json(capsys, ["bvu", "eval", "--env", str(path), "--formula",
                                       "forall t in one : t = empty", "--atoms", "2"])
        assert code == 0 and data["truth_value"] == {"atoms": [0, 1]}


class TestTransfer:
    def test_battery_passes(self, capsys):
        code, data = run_json(capsys, ["bvu", "transfer", "--battery"])
        assert code == 0
        assert len(data["verdicts"]) >= 20
        assert all(v["pass"] for v in data["verdicts"])


class TestOps:
    def test_derivations(self, capsys):
        code, data = run_json(capsys, ["ops", "derivations", "--atoms", "4"])
        assert code == 0
        assert data["derivations"]["dimension"] == 0

    def test_classify_real(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["2", "0"], ["0", "3"]]))
        code, data = run_json(capsys, ["ops", "classify", "--matrix", str(path)])
        assert code == 0
        assert data["multiplier"] == {"coords": ["2", "3"]}

    def test_classify_complex(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([[["1", "0"], ["0", "0"]],
                                    [["0", "0"], ["0", "0"]]]))
        code, data = run_json(capsys, ["ops", "classify", "--matrix", str(path)])
        assert code == 0
        assert data["endomorphism"]["kind"] == "band projection"
        assert data["automorphism"]["kind"] == "not bijective"

    def test_bad_matrix_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([["1", "2"], ["3"]]))
        assert main(["ops", "classify", "--matrix", str(path)]) == 2

    def test_matrix_order_at_cap_accepted(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli.ops, "is_band_preserving", started)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_diagonal(MAX_MATRIX_ORDER)))
        with pytest.raises(Started):
            main(["ops", "classify", "--matrix", str(path)])


class TestBilinear:
    def test_classify(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        entries = [[["2", "0"], ["0", "0"]], [["0", "0"], ["0", "3"]]]
        path.write_text(json.dumps(entries))
        code, data = run_json(capsys, ["bilinear", "classify", "--tensor", str(path)])
        assert code == 0
        assert data["report"]["separately_band_preserving"] is True
        assert data["report"]["multiplier"] == {"coords": ["2", "3"]}

    def test_decimal_entries_read_as_rationals(self, capsys, tmp_path):
        reports = []
        for entries in (["1e3", "0.5"], ["1000", "1/2"]):
            path = tmp_path / "m.json"
            path.write_text(json.dumps([[entries[0], "0"], ["0", entries[1]]]))
            reports.append(run_json(capsys, ["ops", "classify", "--matrix", str(path)]))
        assert reports[0] == reports[1]

    def test_digest_covers_entries(self, capsys, tmp_path):
        digests = []
        for entry in ("1", "2"):
            path = tmp_path / f"t{entry}.json"
            path.write_text(json.dumps([[[entry]]]))
            _, data = run_json(capsys, ["bilinear", "classify", "--tensor", str(path)])
            digests.append(data["inputs"])
        assert digests[0] != digests[1]


class TestRefine:
    def test_fixture(self, capsys, covers_file):
        code, data = run_json(capsys, ["refine", "--covers", covers_file])
        assert code == 0
        assert data["g"] == {"coords": ["0", "1/9", "1/3", "4/9"]}
        assert all(data["certificates"])
        assert all(s["ok"] for s in data["separation"])

    def test_malformed_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"covers": []}))
        assert main(["refine", "--covers", str(path)]) == 2


class TestContfrac:
    def test_expand_value(self, capsys):
        code, data = run_json(capsys, ["cf", "expand", "--value", "16/45"])
        assert code == 0
        assert data["preperiod"] == [2, 1, 4, 3] and data["period"] == []

    def test_expand_surd(self, capsys):
        code, data = run_json(capsys, ["cf", "expand", "--surd=-1,1,1,2"])
        assert code == 0
        assert data["preperiod"] == [] and data["period"] == [2]

    def test_convergent(self, capsys):
        code, data = run_json(capsys, ["cf", "convergent", "--surd=-1,1,1,2",
                                       "--k", "6"])
        assert code == 0
        assert data["convergent"] == "70/169"

    def test_convergent_index_cap_is_the_last_that_prints(self, capsys):
        # the golden ratio's denominators q_k = F_(k+1) grow slowest of all inputs
        fib = [0, 1]
        while len(fib) < MAX_CONVERGENT_INDEX + 3:
            fib.append(fib[-1] + fib[-2])
        assert fib[MAX_CONVERGENT_INDEX + 1] < 10 ** 4300 <= fib[MAX_CONVERGENT_INDEX + 2]
        code, data = run_json(capsys, ["cf", "convergent", "--surd=-1,1,2,5",
                                       "--k", str(MAX_CONVERGENT_INDEX)])
        assert code == 0
        assert data["convergent"].endswith(f"/{fib[MAX_CONVERGENT_INDEX + 1]}")

    def test_out_of_range_exits_2(self, capsys):
        assert main(["cf", "expand", "--value", "3/2"]) == 2
        assert main(["cf", "expand", "--value", "1e3"]) == 2
        assert "requires 0 < t < 1" in capsys.readouterr().err

    def test_decimal_value(self, capsys):
        code, data = run_json(capsys, ["cf", "expand", "--value", "0.5"])
        assert (code, data["preperiod"], data["period"]) == (0, [2], [])

    def test_missing_value_exits_2(self, capsys):
        assert main(["cf", "expand"]) == 2

    def test_radicand_above_cap_exits_2(self):
        proc = run_process(["cf", "expand", "--surd=-1000000000,1,1,1000000000000000000039",
                            "--json"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "exceeds the cap" in proc.stderr

    def test_period_search_cap_exits_2(self):
        proc = run_process(["cf", "expand", "--surd=-31622,1,1,1000000007", "--json"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("input error: no period within")


class TestPnfin:
    def test_builtin_family(self, capsys):
        code, data = run_json(capsys, ["pnfin", "pi", "--family", "dyadic",
                                       "--count", "4", "--horizon", "1000"])
        assert code == 0
        assert data["elements"] == [2, 4, 8, 16]

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"family": "dyadic", "params": {"base": 3}}))
        code, data = run_json(capsys, ["pnfin", "pi", "--spec", str(path),
                                       "--count", "3", "--horizon", "1000"])
        assert code == 0
        assert data["elements"] == [3, 9, 27]

    def test_unknown_family_exits_2(self, capsys):
        assert main(["pnfin", "pi", "--family", "bogus"]) == 2

    def test_count_times_horizon_above_cap_refused_before_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("pseudo_intersection ran past the cap")

        monkeypatch.setattr(cli.pnfin, "pseudo_intersection", no_work)
        count = 2
        horizon = PI_CAP // count + 1
        assert main(["pnfin", "pi", "--family", "primes-thinned", "--count", str(count),
                     "--horizon", str(horizon)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert main(["pnfin", "pi", "--family", "tails", "--count", "50",
                     "--horizon", str(10 ** 12)]) == 2

    @pytest.mark.parametrize("family", ["tails", "primes-thinned"])
    @pytest.mark.parametrize("count", ["600", "1000", "2000"])
    def test_search_work_above_cap_refused_before_work(self, capsys, monkeypatch,
                                                        family, count):
        def no_work(*args, **kwargs):
            raise AssertionError("pseudo_intersection ran past the cap")

        monkeypatch.setattr(cli.pnfin, "pseudo_intersection", no_work)
        assert main(["pnfin", "pi", "--family", family, "--count", count,
                     "--horizon", "3"]) == 2
        assert "above the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["dyadic", "tails", "primes-thinned"])
    def test_nonpositive_count_named_in_refusal(self, capsys, family):
        assert main(["pnfin", "pi", "--family", family, "--count", "-10000000000",
                     "--horizon", "1"]) == 2
        assert "count must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["tails", "primes-thinned"])
    @pytest.mark.parametrize("count, horizon", [
        ("50", "10000"),  # criterion 12
        ("33", "5500"), ("37", "5500"), ("37", "4500"),  # the benchmark's small requests
        ("590", "3"),  # about 0.1 s, the most the search term lets through
    ])
    def test_search_work_under_cap_accepted(self, monkeypatch, family, count, horizon):
        monkeypatch.setattr(cli.pnfin, "pseudo_intersection", started)
        with pytest.raises(Started):
            main(["pnfin", "pi", "--family", family, "--count", count, "--horizon", horizon])

    @pytest.mark.parametrize("argv", [
        ["--family", "dyadic", "--count", "50", "--horizon", "10000"],  # README, criterion 12
        ["--family", "dyadic", "--count", "50", "--horizon", "9000"],
        ["--spec", "FILE", "--count", "25", "--horizon", "1200"],  # base 5
        ["--spec", "FILE", "--count", "10", "--horizon", "1000"],  # base 5
    ])
    def test_dyadic_work_under_cap_accepted(self, monkeypatch, tmp_path, argv):
        monkeypatch.setattr(cli.pnfin, "pseudo_intersection", started)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"family": "dyadic", "params": {"base": 5}}))
        with pytest.raises(Started):
            main(["pnfin", "pi", *[str(path) if a == "FILE" else a for a in argv]])


class TestSuite:
    def test_suite_json_has_no_floats(self, capsys):
        def no_floats(text):
            raise AssertionError(f"float {text} in the report")

        code = main(["suite", "all", "--json"])
        report = json.loads(capsys.readouterr().out, parse_float=no_floats)
        assert code == 0
        assert len(report["criteria"]) == 13
        assert all(isinstance(c.pop("elapsed_ns"), int) for c in report["criteria"])
        # the rest of the report is pinned byte for byte, as the golden corpus pins the others
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "f7ccd931ed9de1b4b6d653e14bbef31fde5d23d6aa77ca36092f6856143093ce"


class TestAlgebraCheck:
    def test_small_exhaustive(self, capsys):
        code, data = run_json(capsys, ["algebra", "check", "--atoms", "3"])
        assert code == 0
        assert all(v["pass"] for v in data["verdicts"])

    def test_large_random(self, capsys):
        code, data = run_json(capsys, ["algebra", "check", "--atoms", "12",
                                       "--trials", "200"])
        assert code == 0


class TestDeterminism:
    def test_seeded_reports_identical(self, capsys):
        _, first = run_json(capsys, ["lattice", "gordon", "--atoms", "6",
                                     "--trials", "50", "--seed", "99"])
        _, second = run_json(capsys, ["lattice", "gordon", "--atoms", "6",
                                      "--trials", "50", "--seed", "99"])
        assert first == second


class TestTrials:
    @pytest.mark.parametrize("group", ["lattice gordon", "algebra check"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exit_2(self, capsys, group, trials):
        assert main([*group.split(), "--atoms", "5", "--trials", trials]) == 2
        assert "--trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("group", ["lattice gordon", "algebra check"])
    def test_trials_at_cap_accepted(self, monkeypatch, group):
        monkeypatch.setattr(cli, "random_boolelem", started)
        with pytest.raises(Started):
            main([*group.split(), "--atoms", "16", "--trials", str(MAX_TRIALS)])


# -- the input boundary -------------------------------------------------------------

def run_in_process(argv, payload=None):
    """(exit code, stdout, stderr) of ``main(argv)``, with FILE in ``argv``
    replaced by a file holding ``payload`` as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([path if a == "FILE" else a for a in argv])
            except SystemExit as exc:  # argparse refuses a bad command line this way
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, payload", MALFORMED)
def test_malformed_input_exits_2(argv, payload):
    start = time.perf_counter()
    code, out, err = run_in_process(argv + ["--json"], payload)
    assert (code, out) == (2, "")
    assert err.startswith("input error:")
    assert time.perf_counter() - start < 1


def test_one_parser_serves_every_request_alike():
    """The parser is built once per process; a request run again after a
    different request and two malformed ones gives the same stdout and exit
    code, and ``--help`` and argparse's refusals read as before."""
    assert cli.build_parser() is cli.build_parser()
    argv = ["pnfin", "pi", "--family", "tails", "--count", "5", "--horizon", "20"]
    help_text = run_in_process(["pnfin", "pi", "--help"])
    bad_argv = run_in_process(["pnfin", "pi", "--count", "many"])
    assert help_text[0] == 0 and help_text[1].startswith("usage: bvdesk pnfin pi")
    assert bad_argv[0] == 2 and "argument --count: invalid int value: 'many'" in bad_argv[2]
    for mode in ([], ["--json"]):
        first = run_in_process(argv + mode)
        assert run_in_process(["cf", "expand", "--value", "3/7"] + mode)[0] == 0
        assert run_in_process(MALFORMED[0][0] + mode, MALFORMED[0][1])[0] == 2
        assert run_in_process(["pnfin", "pi", "--count", "many"] + mode) == bad_argv
        assert run_in_process(argv + mode)[:2] == first[:2]
        assert first[0] == 0
    assert run_in_process(["pnfin", "pi", "--help"]) == help_text


def assert_boundary_holds(argv, payload=None):
    """No exception escapes, the exit code is 0, 1 or 2, stderr holds no
    traceback, and the --json report is the same on a rerun."""
    first = run_in_process(argv + ["--json"], payload)
    assert first[0] in (0, 1, 2)
    assert "Traceback" not in first[2]
    assert run_in_process(argv + ["--json"], payload)[:2] == first[:2]


KEYS = ["atoms", "covers", "dom", "hf", "family", "params", "base", "x"]
SCALARS = (st.none() | st.booleans() | st.integers(-2, 6)
           | st.floats(allow_nan=False, allow_infinity=False, width=16)
           | st.text("0123456789/-.ea", max_size=5))
JSON = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
                    max_leaves=10)
SMALL_INTS = st.integers(-1, 6)
ELEM = st.fixed_dictionaries({"atoms": st.lists(SMALL_INTS | JSON, max_size=4)}) | JSON
RATIONAL = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "0", "1/0", "x", " 5 "]) | JSON
BSET = st.recursive(
    st.fixed_dictionaries({"hf": SMALL_INTS | st.lists(SMALL_INTS, max_size=3)}) | JSON,
    lambda kids: st.fixed_dictionaries({"dom": st.lists(st.tuples(kids, ELEM).map(list)
                                                        | JSON, max_size=3)}),
    max_leaves=6)
BOUNDARY = {
    "refine": (["refine", "--covers", "FILE"],
               st.fixed_dictionaries({"atoms": st.integers(1, 6) | JSON,
                                      "covers": st.lists(st.lists(ELEM, max_size=3),
                                                         max_size=3) | JSON}) | JSON),
    "bvu eval": (["bvu", "eval", "--atoms", "2", "--env", "FILE",
                  "--formula", "exists t in x : t in x | t = x"],
                 st.fixed_dictionaries({"x": BSET}) | JSON),
    "ops classify": (["ops", "classify", "--matrix", "FILE"],
                     st.lists(st.lists(RATIONAL | st.lists(RATIONAL, max_size=3),
                                       max_size=3), max_size=3) | JSON),
    "bilinear classify": (["bilinear", "classify", "--tensor", "FILE"],
                          st.lists(st.lists(st.lists(RATIONAL, max_size=2), max_size=2),
                                   max_size=2) | JSON),
    "pnfin pi": (["pnfin", "pi", "--count", "3", "--horizon", "50", "--spec", "FILE"],
                 st.fixed_dictionaries({
                     "family": st.sampled_from(["dyadic", "tails", "primes-thinned"]) | JSON,
                     "params": st.dictionaries(st.sampled_from(["base", "x"]),
                                               SMALL_INTS | JSON, max_size=2) | JSON}) | JSON),
}


@pytest.mark.parametrize("command", sorted(BOUNDARY))
def test_boundary_fuzz_json_inputs(command):
    argv, strategy = BOUNDARY[command]
    examples = [payload for bad_argv, payload in MALFORMED if bad_argv == argv]

    @settings(max_examples=40, deadline=None, database=None)
    @given(strategy)
    def check(payload):
        assert_boundary_holds(argv, payload)

    for payload in examples:
        check = example(payload)(check)
    check()


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from(["--value", "--surd"]),
       st.text("0123456789/-,.e ", max_size=10)
       | st.lists(st.integers(-9, 9), min_size=3, max_size=5).map(
           lambda xs: ",".join(map(str, xs))))
@example("--value", "1/0")
@example("--surd", "1,1,0,2")
def test_boundary_fuzz_value_strings(flag, text):
    assert_boundary_holds(["cf", "expand", f"{flag}={text}"])


#: Numbers that are cheap where a command accepts them, or out of range,
#: above a cap or not numbers at all.  A ``pnfin pi --count`` of a few hundred
#: at a small horizon passes every cap and takes about 0.1 s, and one in the
#: thousands is refused by the work cap; none is drawn, so each draw stays fast.
SMALL = ["-1", "0", "1", "2", "3"]
OUT = ["17", "10000000000", "-10000000000", "x", "2.5", ""]
FILES = ["FILE", "/nonexistent/input.json"]
NAMES = st.sampled_from(["empty", "one", "two", "pair", "y", "t", "u", "ghost"])
FORMULAS = st.recursive(
    st.tuples(NAMES, st.sampled_from(["=", "in"]), NAMES).map(" ".join),
    lambda inner: (inner.map(lambda f: f"!({f})")
                   | st.tuples(inner, st.sampled_from(["&", "|", "->"]), inner).map(
                       lambda p: f"({p[0]} {p[1]} {p[2]})")
                   | st.tuples(st.sampled_from(["forall", "exists"]), st.sampled_from(["t", "u"]),
                               NAMES, inner).map(lambda p: f"{p[0]} {p[1]} in {p[2]} : {p[3]}")),
    max_leaves=8)
FORMULA_TEXTS = (FORMULAS
                 | st.lists(st.sampled_from(["forall", "exists", "in", ":", "(", ")", "!", "&",
                                             "|", "->", "=", "t", "two", "empty", "<", "-"]),
                            max_size=12).map(" ".join)
                 | st.text(max_size=12))
#: The flags that take a value, with a strategy for it.
FLAG_VALUES = {
    "--atoms": st.sampled_from(SMALL + OUT),
    "--trials": st.sampled_from(SMALL + OUT + [str(MAX_TRIALS + 1)]),
    "--k": st.sampled_from(SMALL + OUT + [str(MAX_CONVERGENT_INDEX),
                                          str(MAX_CONVERGENT_INDEX + 1)]),
    "--count": st.sampled_from(SMALL + OUT),
    "--horizon": st.sampled_from(SMALL + OUT),
    "--seed": st.sampled_from(SMALL + OUT),
    "--family": st.sampled_from(["dyadic", "tails", "primes-thinned", "bogus", ""]),
    "--value": st.sampled_from(["16/45", "0.5", "3/2", "1/0", "1e-9999999", "x", ""]),
    "--surd": st.sampled_from(["-1,1,2,5", "-1,1,1,2", "1,2", "1,1,0,2", "x"]),
    "--formula": FORMULA_TEXTS,
    **{flag: st.sampled_from(FILES) for flag in ("--env", "--matrix", "--tensor",
                                                 "--covers", "--spec")},
}
#: (command words, JSON for FILE, flags always passed, flags sometimes passed).
#: ``--trials`` is always passed: its defaults run for a fifth of a second.
ARGV_COMMANDS = [
    (["algebra", "check"], None, ["--trials"], ["--atoms"]),
    (["lattice", "gordon"], None, ["--trials"], ["--atoms"]),
    (["bvu", "transfer"], None, [], ["--atoms", "--battery"]),
    (["bvu", "eval"], {"two": {"hf": 2}, "y": {"dom": [[{"hf": []}, {"atoms": [0]}]]}},
     ["--env", "--formula"], ["--atoms"]),
    (["ops", "classify"], _diagonal(3), ["--matrix"], []),
    (["ops", "derivations"], None, [], ["--atoms"]),
    (["bilinear", "classify"], [[["1"]]], ["--tensor"], []),
    (["refine"], {"atoms": 3, "covers": [[{"atoms": [0]}, {"atoms": [1, 2]}]]}, ["--covers"], []),
    (["cf", "expand"], None, [], ["--value", "--surd"]),
    (["cf", "convergent"], None, ["--k"], ["--value", "--surd"]),
    (["pnfin", "pi"], {"family": "dyadic", "params": {"base": 3}}, [],
     ["--family", "--spec", "--count", "--horizon"]),
    (["bogus"], None, [], []),
]


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_boundary_fuzz_argv(data):
    words, payload, always, sometimes = data.draw(st.sampled_from(ARGV_COMMANDS))
    flags = always + data.draw(st.lists(
        st.sampled_from(sometimes + ["--seed", "--battery", "--bogus", "--help"]), max_size=3))
    argv = list(words)
    for flag in data.draw(st.permutations(flags)):
        argv.append(flag)
        if flag in FLAG_VALUES:
            argv.append(data.draw(FLAG_VALUES[flag]))
    assert_boundary_holds(argv, payload)


@settings(max_examples=100, deadline=None, database=None)
@given(FORMULA_TEXTS)
@example("forall t in two : exists u in t : u in t -> t = u")
@example("(" * 200 + "two = two" + ")" * 200)
def test_boundary_fuzz_formula_texts(text):
    env = {"empty": {"hf": 0}, "one": {"hf": 1}, "two": {"hf": 2}, "pair": {"hf": [[], [[]]]},
           "y": {"dom": [[{"hf": []}, {"atoms": [0]}]]}}
    assert_boundary_holds(["bvu", "eval", "--atoms", "2", "--env", "FILE", "--formula", text],
                          env)


# -- the golden corpus --------------------------------------------------------------

def test_golden_corpus_replays(tmp_path):
    """scripts/make_golden.py, run again in a fresh interpreter, writes
    tests/golden/requests.json to the byte: every request gives the same exit
    code, stdout and first line of stderr.  A fresh interpreter, because a
    report lists children in the order their sets were first built in the
    process.  The corpus holds every MALFORMED input by construction."""
    golden = ROOT / "tests" / "golden" / "requests.json"
    env = dict(os.environ, PYTHONPATH=str(Path(bvdesk.__file__).parents[1]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_golden.py"),
                    "--out", str(tmp_path / "replay.json")],
                   check=True, capture_output=True, env=env, timeout=60)
    corpus = json.loads(golden.read_text())
    replay = json.loads((tmp_path / "replay.json").read_text())
    assert [e["argv"] for e, r in zip(corpus["requests"], replay["requests"]) if e != r] == []
    assert (tmp_path / "replay.json").read_bytes() == golden.read_bytes()
