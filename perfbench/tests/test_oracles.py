"""Each oracle accepts the right answer and rejects a planted wrong one."""

import copy
import json
from fractions import Fraction

import pytest

import oracles
import workloads

SUITE_DETAILS = [
    "1002 random sets, all five laws exact",
    "1000 random (partition, family) pairs",
    "48 battery evaluations agree classically and are two-valued",
    "all 8 families over {0^,1^,2^} verified modulo equivalence",
    "1000 random triples, both equivalences exact",
    "1000 diagonal recoveries and 1000 non-diagonal rejections",
    "exact nullspace dimension 0 for atom counts 1..8",
    "1000 trials: idempotents are 0/1 band projections; bijective ones are the identity",
    "1000 diagonal tensors classified; 173 nonzero antisymmetric candidates rejected",
    "1292 cases: all three finitized forms hold and agree",
    "fixture g = (0, 1/9, 1/3, 4/9); 100 random suites refined with exact separation bounds",
    "three built-in chains at count 50, horizon 10^4",
    "1000 exact round trips; sqrt(2)-1 has period [2]; convergent error bound verified "
    "for k <= 10",
]


def suite_report():
    verdicts, criteria = [], []
    for number, ((name, _), detail) in enumerate(zip(oracles.CRITERIA, SUITE_DETAILS), 1):
        verdicts.append({"name": f"criterion-{number:02d}-{name}", "pass": True,
                         "witness": detail})
        criteria.append({"number": number, "name": name, "passed": True,
                         "detail": detail, "seconds": 0.5 + number})
    return {"command": "suite all", "exit_code": 0, "verdicts": verdicts,
            "criteria": criteria}


def test_suite_oracle():
    good = suite_report()
    assert oracles.check_suite(0, json.dumps(good)) is None
    assert oracles.check_suite(1, json.dumps(good))
    for plant in ("pass", "witness", "name"):
        bad = copy.deepcopy(good)
        bad["verdicts"][11][plant] = False if plant == "pass" else "something else"
        assert oracles.check_suite(0, json.dumps(bad)), plant
    bad = copy.deepcopy(good)
    bad["criteria"][3]["detail"] = "other"
    assert oracles.check_suite(0, json.dumps(bad))
    bad = copy.deepcopy(good)
    bad["verdicts"].pop()
    assert oracles.check_suite(0, json.dumps(bad))


def test_suite_oracle_ignores_seconds():
    other = suite_report()
    for entry in other["criteria"]:
        entry["seconds"] = 123.456
    assert oracles.check_suite(0, json.dumps(other)) is None


def test_surd_recurrence_and_convergents():
    assert oracles.sqrt_period(2) == [2]
    assert oracles.sqrt_period(7) == [1, 1, 1, 4]
    assert oracles.sqrt_period(7, limit=2) == []
    assert oracles.convergent_text([2], 3) == "5/12"
    assert oracles.check_cf_expand(7, 0, json.dumps({"preperiod": [], "period": [1, 1, 1, 4]})) is None
    assert oracles.check_cf_expand(7, 0, json.dumps({"preperiod": [], "period": [1, 1, 4]}))
    assert oracles.check_cf_expand(7, 0, json.dumps({"preperiod": [1], "period": [1, 1, 4, 1]}))
    assert oracles.check_cf_convergent(2, 3, 0, json.dumps({"convergent": "5/12"})) is None
    assert oracles.check_cf_convergent(2, 3, 0, json.dumps({"convergent": "12/29"}))


def test_pnfin_closed_forms():
    assert oracles.pnfin_closed_form("dyadic", {"base": 3}, 4) == [3, 9, 27, 81]
    assert oracles.pnfin_closed_form("tails", {}, 3) == [2, 3, 4]
    assert oracles.pnfin_closed_form("primes-thinned", {}, 5) == [2, 3, 5, 7, 11]
    good = {"elements": [2, 4, 8], "tail_membership_ok": True, "decreasing": {"ok": True}}
    assert oracles.check_pnfin("dyadic", {}, 3, 0, json.dumps(good)) is None
    bad = {**good, "elements": [2, 4, 7]}
    assert oracles.check_pnfin("dyadic", {}, 3, 0, json.dumps(bad))
    bad = {**good, "tail_membership_ok": False}
    assert oracles.check_pnfin("dyadic", {}, 3, 0, json.dumps(bad))


FIXTURE = [[0b0011, 0b1100], [0b0101, 0b1010]]  # the criterion-11 covers


def test_address_tower_matches_the_criterion_fixture():
    g, addresses = oracles.refine_expected(4, FIXTURE)
    assert g == [Fraction(0), Fraction(1, 9), Fraction(1, 3), Fraction(4, 9)]
    assert addresses == [[0, 0], [0, 1], [1, 2], [1, 3]]


def test_refine_oracle_on_real_output_and_planted_errors():
    spec = {"atoms": 4, "covers": [[{"atoms": [q for q in range(4) if m >> q & 1]}
                                    for m in cover] for cover in FIXTURE]}
    from bvdesk import boolalg, refinement
    algebra = boolalg.FiniteBooleanAlgebra(4)
    covers = [[boolalg.BoolElem.from_json(m, algebra) for m in c] for c in spec["covers"]]
    out = refinement.refine_report(algebra, covers).to_json()
    assert oracles.check_refine(4, FIXTURE, 0, json.dumps(out)) is None
    bad = copy.deepcopy(out)
    bad["g"]["coords"][3] = "5/9"
    assert oracles.check_refine(4, FIXTURE, 0, json.dumps(bad))
    bad = copy.deepcopy(out)
    bad["separation"][0]["level"] += 1
    assert oracles.check_refine(4, FIXTURE, 0, json.dumps(bad))
    bad = copy.deepcopy(out)
    bad["certificates"][1] = False
    assert oracles.check_refine(4, FIXTURE, 0, json.dumps(bad))
    bad = copy.deepcopy(out)
    bad["tower"] = {"anything": "goes"}  # the tower is never compared
    assert oracles.check_refine(4, FIXTURE, 0, json.dumps(bad)) is None


def test_operator_oracles_reject_planted_answers():
    assert oracles.check_derivations(6, 0, json.dumps(
        {"derivations": {"atom_count": 6, "dimension": 0}})) is None
    assert oracles.check_derivations(6, 0, json.dumps(
        {"derivations": {"atom_count": 6, "dimension": 1}}))
    entries = [["1/2", "0"], ["0", "-3"]]
    good = {"verdicts": [{"name": "band-preserving", "pass": True, "witness": "True"}],
            "multiplier": {"coords": ["1/2", "-3"]}}
    assert oracles.check_classify("diagonal", entries, 0, json.dumps(good)) is None
    bad = {**good, "multiplier": {"coords": ["1/2", "3"]}}
    assert oracles.check_classify("diagonal", entries, 0, json.dumps(bad))
    assert oracles.check_classify("offdiagonal", entries, 0, json.dumps(good))
    rep = {"separately_band_preserving": True, "symmetric": True, "orthosymmetric": True,
           "multiplier": {"coords": ["2"]}}
    assert oracles.check_bilinear("diagonal", ["2"], 0, json.dumps({"report": rep})) is None
    assert oracles.check_bilinear("antisymmetric", [], 0, json.dumps({"report": rep}))


def test_malformed_and_generic_oracles():
    assert oracles.check_malformed(2, "") is None
    assert oracles.check_malformed(1, "")
    assert oracles.check_malformed(2, "{}")
    failing = {"verdicts": [{"name": "x", "pass": False, "witness": ""}]}
    assert oracles.check_all_pass("algebra check", 0, json.dumps(failing))
    assert oracles.check_bvu_eval(0b101, 0, json.dumps({"truth_value": {"atoms": [0, 2]}})) is None
    assert oracles.check_bvu_eval(0b101, 0, json.dumps({"truth_value": {"atoms": [0]}}))
    gordon = {"verdicts": [{"name": "projection-truth-identities", "pass": True,
                            "witness": "100 random triples, 0 failures"}]}
    assert oracles.check_gordon(100, 0, json.dumps(gordon)) is None
    assert oracles.check_gordon(99, 0, json.dumps(gordon))


def test_stalk_oracle():
    empty = ()
    one = ((empty, 0b11),)       # {0} at both atoms
    half = ((empty, 0b01),)      # {0} at atom 0, {} at atom 1
    memo = {}
    s_empty, s_one, s_half = (oracles.stalks(x, 2, memo) for x in (empty, one, half))
    assert oracles.eq_mask(s_one, s_half) == 0b01
    assert oracles.mem_mask(s_empty, s_half) == 0b01
    assert oracles.mem_mask(s_empty, s_one) == 0b11
    f = ("forall", "t0", "y", ("eq", "t0", "x"))
    assert oracles.formula_mask(f, {"x": s_empty, "y": s_half}, 2) == 0b11


@pytest.fixture(scope="module")
def universe(tmp_path_factory):
    return workloads.Universe(5, str(tmp_path_factory.mktemp("universe")))


def test_universe_oracle_rejects_planted_truth_values(universe):
    for k in range(1 + universe.warm):  # a cold item and its warm re-queries
        item = universe.item(k)
        assert item[0] == (k == 0)
        out = universe.execute(item)
        assert universe.check(item, out) is None
        for key in ("eq", "mem"):
            bad = {**out, key: [row[:] for row in out[key]]}
            bad[key][0][-1] ^= 1
            assert universe.check(item, bad)
        assert universe.check(item, {**out, "values": [v ^ 1 for v in out["values"]]})
        assert universe.check(item, {**out, "canon": out["canon"][::-1]})
        if k == 0:
            assert universe.check(item, {**out, "classes": out["classes"] + 1})
            assert universe.check(item, {**out, "axioms": [False] + out["axioms"][1:]})


def test_first_requests_block_passes_its_oracles(tmp_path):
    requests = workloads.Requests(9, str(tmp_path))
    for k in range(len(workloads.BLOCK)):
        item = requests.item(k)
        output = requests.execute(item)
        assert requests.check(item, output) is None, item[0]
