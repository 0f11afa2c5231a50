"""Batch command-line front end.

Builds objects from JSON, runs the module operations and the acceptance
suite, and emits deterministic reports (JSON with ``--json``).  Rationals
cross the wire only as canonical ``p/q`` strings; no floating point appears
in any report.

Exit codes: 0 all verdicts pass, 1 property violation, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Sequence

from . import acceptance, bvu, contfrac, operators as ops, pnfin, refinement
from .acceptance import DEFAULT_SEED, random_boolelem, random_vector
from .battery import run_battery
from .boolalg import (BoolElem, FiniteBooleanAlgebra, axioms_hold_on_triple,
                      sigma_criteria_check)
from .formula import Exists, Formula, ParseError, parse, quantifier_depth
from .lattice import gordon_check, rat
from .pnfin import BUILTIN_CHAINS, chain_from_spec


@dataclass
class RunReport:
    command: str
    inputs: str  # digest of the canonicalized inputs
    seed: int
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, witness: str = "") -> None:
        self.verdicts.append((name, passed, witness))

    @property
    def exit_code(self) -> int:
        return 0 if all(passed for _, passed, _ in self.verdicts) else 1

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "verdicts": [{"name": n, "pass": p, "witness": w}
                         for n, p, w in self.verdicts],
            "exit_code": self.exit_code,
            **self.payload,
        }

    def render(self) -> str:
        lines = [f"# {self.command} (inputs {self.inputs}, seed {self.seed})"]
        for name, passed, witness in self.verdicts:
            mark = "PASS" if passed else "FAIL"
            suffix = f" -- {witness}" if witness else ""
            lines.append(f"[{mark}] {name}{suffix}")
        return "\n".join(lines)


#: Most evaluations ``bvu eval`` may start, counted as the widest domain among
#: the environment's sets and their hereditary members raised to the
#: formula's quantifier depth.
EVAL_CAP = 10 ** 5
#: Largest ``count * horizon`` that ``pnfin pi`` may ask for: the chain check
#: enumerates up to ``horizon`` elements of each of ``count`` levels.
PI_CAP = 10 ** 6
#: Largest work estimate ``count * horizon * b + count^2 * bits`` that
#: ``pnfin pi`` may start, on any chain.  The inclusion check enumerates about
#: ``horizon * b`` elements of each of ``count`` levels, where b is a dyadic
#: chain's base and 2 for the other families.  The tail-membership check makes
#: about ``count^2 / 2`` galloping searches of up to twice the bit length of
#: the largest selected element: b^count on a dyadic chain, so
#: ``bits = count * bitlength(b)``, and below 16 * count on the tails chain
#: (count + 1) and the primes-thinned chain (the count-th prime), so
#: ``bits = bitlength(16 * count)``.  ``count * horizon`` alone misses both the
#: base and the search term.
PI_WORK_CAP = 5 * 10 ** 6
#: Most ``--trials`` that ``lattice gordon`` and ``algebra check`` may run.
MAX_TRIALS = 10 ** 4
#: Largest matrix order ``ops classify`` accepts: recovering the multiplier of
#: a diagonal matrix makes n + 1 dense applies, n^3 ``Fraction`` products.
MAX_MATRIX_ORDER = 64
#: Largest ``--k`` of ``cf convergent`` that can succeed: the k-th denominator
#: is at least the Fibonacci number F_(k+1), and F_20578 has more digits than
#: Python's default int-to-str limit of 4300 lets the report print.
MAX_CONVERGENT_INDEX = 20_576


def _digest(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


# -- subcommand handlers ---------------------------------------------------------


def _check_trials(args) -> None:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, not {args.trials}")
    if args.trials > MAX_TRIALS:
        raise bvu.ResourceCapError(f"--trials {args.trials} exceeds the cap {MAX_TRIALS}")


def cmd_algebra_check(args) -> RunReport:
    _check_trials(args)
    report = RunReport("algebra check", _digest({"atoms": args.atoms, "trials": args.trials}),
                       args.seed)
    algebra = FiniteBooleanAlgebra(args.atoms)
    rng = random.Random(args.seed)
    if args.atoms <= 4:
        ok = all(axioms_hold_on_triple(a, b, c)
                 for a, b, c in itertools.product(algebra.elements(), repeat=3))
        report.add("boolean-axioms-exhaustive", ok,
                   f"all {(2 ** args.atoms) ** 3} triples")
    else:
        ok = all(axioms_hold_on_triple(random_boolelem(rng, algebra),
                                       random_boolelem(rng, algebra),
                                       random_boolelem(rng, algebra))
                 for _ in range(args.trials))
        report.add("boolean-axioms-random", ok, f"{args.trials} random triples")
    sigma_ok = True
    for _ in range(max(args.trials // 10, 10)):
        matrix = [[random_boolelem(rng, algebra) for _ in range(2)] for _ in range(2)]
        sigma_ok = sigma_ok and sigma_criteria_check(matrix).all_hold
    report.add("distributivity-forms", sigma_ok, "2x2 random matrices")
    return report


def cmd_bvu_eval(args) -> RunReport:
    env_spec = _load_json(args.env)
    algebra = FiniteBooleanAlgebra(args.atoms)
    env = bvu.env_from_json(env_spec, algebra)
    f = parse(args.formula)
    _check_eval_cost(f, env)
    if isinstance(f, Exists):  # the witness report evaluates the body once per candidate
        value, contributions, attained = bvu.existential_witnesses(f, env, algebra)
    else:
        value = bvu.eval_formula(f, env, algebra)
    report = RunReport("bvu eval",
                       _digest({"env": env_spec, "formula": args.formula,
                                "atoms": args.atoms}),
                       args.seed)
    report.add("eval", True, f"truth value {value!r}")
    report.payload["truth_value"] = value.to_json()
    if isinstance(f, Exists):
        report.payload["witnesses"] = {
            "contributions": [[repr(t), v.to_json()] for t, v in contributions],
            "attained": repr(attained) if attained is not None else None,
        }
        report.add("witness-attained", True,
                   "a single candidate attains the join" if attained is not None
                   else "join attained only by mixing")
    return report


def _check_eval_cost(f: Formula, env: dict[str, bvu.BSet]) -> None:
    """Refuse a formula whose quantifiers could run more than EVAL_CAP evaluations."""
    widest, seen, stack = 0, set(), list(env.values())
    while stack:
        x = stack.pop()
        if x.uid not in seen:
            seen.add(x.uid)
            widest = max(widest, len(x.entries))
            stack.extend(x.children())
    depth = quantifier_depth(f)
    if widest ** depth > EVAL_CAP:
        raise bvu.ResourceCapError(
            f"{depth} nested quantifiers over domains of up to {widest} members "
            f"need up to {widest}^{depth} evaluations, above the cap {EVAL_CAP}")


def cmd_bvu_transfer(args) -> RunReport:
    algebra = FiniteBooleanAlgebra(args.atoms)
    outcomes = run_battery(algebra)
    report = RunReport("bvu transfer", _digest({"atoms": args.atoms}), args.seed)
    for outcome in outcomes:
        report.add(outcome.item.name, outcome.ok,
                   f"classical={outcome.report.classical}, "
                   f"truth={outcome.report.truth_value!r}")
    return report


def cmd_lattice_gordon(args) -> RunReport:
    _check_trials(args)
    rng = random.Random(args.seed)
    algebra = FiniteBooleanAlgebra(args.atoms)
    failures = 0
    for _ in range(args.trials):
        b = random_boolelem(rng, algebra)
        x = random_vector(rng, args.atoms)
        y = random_vector(rng, args.atoms)
        if not gordon_check(b, x, y).ok:
            failures += 1
    report = RunReport("lattice gordon",
                       _digest({"atoms": args.atoms, "trials": args.trials}),
                       args.seed)
    report.add("projection-truth-identities", failures == 0,
               f"{args.trials} random triples, {failures} failures")
    return report


def cmd_ops_classify(args) -> RunReport:
    m = ops.matrix_from_json(_load_json(args.matrix))
    if len(m) > MAX_MATRIX_ORDER:
        raise bvu.ResourceCapError(
            f"a {len(m)}x{len(m)} matrix exceeds the order cap {MAX_MATRIX_ORDER}")
    report = RunReport("ops classify", _digest(ops.matrix_to_json(m)), args.seed)
    preserving = ops.is_band_preserving(m)
    report.add("band-preserving", True, str(preserving))
    if ops.is_complex_matrix(m):
        endo = ops.classify_endomorphism(m)
        auto = ops.automorphism_check(m)
        report.add("endomorphism", True, endo.kind)
        report.add("automorphism", True, auto.kind)
        report.payload["endomorphism"] = endo.to_json()
        report.payload["automorphism"] = auto.to_json()
    elif preserving:
        g = ops.multiplier_of(m)
        report.add("multiplier", True, repr(g))
        report.payload["multiplier"] = g.to_json()
    return report


def cmd_ops_derivations(args) -> RunReport:
    space = ops.derivation_space(args.atoms)
    report = RunReport("ops derivations", _digest({"atoms": args.atoms}), args.seed)
    report.add("derivation-space-trivial", space.dimension == 0,
               f"dimension={space.dimension}")
    report.payload["derivations"] = space.to_json()
    return report


def cmd_bilinear_classify(args) -> RunReport:
    t = ops.tensor_from_json(_load_json(args.tensor))
    rep = ops.bilinear_report(t)
    report = RunReport("bilinear classify", _digest(ops.tensor_to_json(t)), args.seed)
    report.add("separately-band-preserving", True, str(rep.separately_band_preserving))
    report.add("symmetric", True, str(rep.symmetric))
    report.add("orthosymmetric", True, str(rep.orthosymmetric))
    if rep.multiplier is not None:
        report.add("multiplier", True, repr(rep.multiplier))
    report.payload["report"] = rep.to_json()
    return report


def cmd_refine(args) -> RunReport:
    spec = _load_json(args.covers)
    if not (isinstance(spec, dict) and type(spec.get("atoms")) is int
            and isinstance(spec.get("covers"), list)
            and all(isinstance(cover, list) for cover in spec["covers"])):
        raise ValueError('covers JSON must be {"atoms": N, "covers": [[{"atoms": [...]}, ...], ...]}')
    algebra = FiniteBooleanAlgebra(spec["atoms"])
    covers = [[BoolElem.from_json(m, algebra) for m in cover]
              for cover in spec["covers"]]
    result = refinement.refine_report(algebra, covers)
    report = RunReport("refine", _digest(spec), args.seed)
    for i, cert in enumerate(result.certificates):
        report.add(f"refined-from-cover-{i}", cert)
    report.add("separation-bounds", all(s.ok for s in result.separations),
               f"{len(result.separations)} first-separation pairs")
    report.payload.update(result.to_json())
    return report


def _parse_value(args) -> contfrac.QuadraticSurd:
    if args.surd:
        parts = [int(x) for x in args.surd.split(",")]
        if len(parts) != 4:
            raise ValueError('--surd takes "p,q,r,d"')
        return contfrac.QuadraticSurd(*parts)
    if args.value:
        try:
            return contfrac.QuadraticSurd.from_fraction(rat(args.value))
        except ZeroDivisionError:
            raise ValueError(f"--value {args.value!r} has a zero denominator") from None
    raise ValueError("provide --value P/Q or --surd p,q,r,d")


def cmd_cf_expand(args) -> RunReport:
    t = _parse_value(args)
    pq = contfrac.expand(t)
    report = RunReport("cf expand", _digest(t.to_json()), args.seed)
    report.add("expand", True, f"preperiod={list(pq.preperiod)}, period={list(pq.period)}")
    report.payload.update(pq.to_json())
    return report


def cmd_cf_convergent(args) -> RunReport:
    if args.k > MAX_CONVERGENT_INDEX:
        raise bvu.ResourceCapError(f"--k {args.k} exceeds the cap {MAX_CONVERGENT_INDEX}")
    t = _parse_value(args)
    pq = contfrac.expand(t)
    value = contfrac.convergent(pq, args.k)
    report = RunReport("cf convergent", _digest({**t.to_json(), "k": args.k}), args.seed)
    report.add("convergent", True, str(value))
    report.payload["k"] = args.k
    report.payload["convergent"] = str(value)
    return report


def cmd_pnfin_pi(args) -> RunReport:
    if args.horizon < 1:  # else count * horizon <= 0 would let any count through
        raise ValueError(f"--horizon must be at least 1, not {args.horizon}")
    if args.count < 1:  # else the work estimate below would misreport it
        raise ValueError("count must be positive")
    if args.count * args.horizon > PI_CAP:
        raise bvu.ResourceCapError(
            f"count {args.count} times horizon {args.horizon} exceeds the cap {PI_CAP}")
    if args.spec:
        spec = _load_json(args.spec)
        chain = chain_from_spec(spec)
    else:
        if args.family not in BUILTIN_CHAINS:
            raise ValueError(f"unknown family {args.family!r}; "
                             f"choose from {sorted(BUILTIN_CHAINS)}")
        spec = {"family": args.family}
        chain = BUILTIN_CHAINS[args.family]()
    base = spec.get("params", {}).get("base", 2)
    if spec["family"] == "dyadic":
        bits = args.count * base.bit_length()
    else:
        bits = (16 * args.count).bit_length()
    work = args.count * args.horizon * base + args.count ** 2 * bits
    if work > PI_WORK_CAP:
        raise bvu.ResourceCapError(
            f"the {spec['family']} chain at count {args.count} and horizon {args.horizon} "
            f"needs about {work} steps, above the cap {PI_WORK_CAP}")
    digest = _digest(spec)
    result = pnfin.pseudo_intersection(chain, count=args.count, horizon=args.horizon)
    report = RunReport("pnfin pi", digest, args.seed)
    increasing = all(a < b for a, b in zip(result.elements, result.elements[1:]))
    report.add("strictly-increasing", increasing)
    report.add("tail-membership", result.tail_membership_ok,
               f"m_k in b_n for all n <= k <= {args.count}")
    report.payload.update(result.to_json())
    return report


def cmd_suite_all(args) -> RunReport:
    results = acceptance.run_all(args.seed)
    report = RunReport("suite all", _digest({"seed": args.seed}), args.seed)
    for r in results:
        report.add(f"criterion-{r.number:02d}-{r.name}", r.passed, r.detail)
    report.payload["criteria"] = [r.to_json() for r in results]
    return report


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized suites (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="bvdesk",
        description="exact workbench for finite Boolean-valued models and atomic lattices")
    sub = parser.add_subparsers(dest="group", required=True)

    algebra = sub.add_parser("algebra", help="Boolean algebra checks").add_subparsers(
        dest="action", required=True)
    p = algebra.add_parser("check", parents=[common],
                           help="axioms and distributivity forms")
    p.add_argument("--atoms", type=int, default=4, choices=range(1, 17), metavar="N")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(handler=cmd_algebra_check)

    bvu_group = sub.add_parser("bvu", help="Boolean-valued universe").add_subparsers(
        dest="action", required=True)
    p = bvu_group.add_parser("eval", parents=[common],
                             help="evaluate a formula over a JSON environment")
    p.add_argument("--env", required=True, help="JSON file: name -> B-valued set literal")
    p.add_argument("--formula", required=True)
    p.add_argument("--atoms", type=int, default=2, choices=range(1, 17), metavar="N")
    p.set_defaults(handler=cmd_bvu_eval)
    p = bvu_group.add_parser("transfer", parents=[common],
                             help="run the restricted-transfer battery")
    p.add_argument("--battery", action="store_true", help="run the shipped battery (default)")
    p.add_argument("--atoms", type=int, default=2, choices=range(1, 17), metavar="N")
    p.set_defaults(handler=cmd_bvu_transfer)

    lattice_group = sub.add_parser("lattice", help="atomic vector lattice").add_subparsers(
        dest="action", required=True)
    p = lattice_group.add_parser("gordon", parents=[common],
                                 help="randomized projection/truth identities")
    p.add_argument("--atoms", type=int, default=8, choices=range(1, 17), metavar="N")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(handler=cmd_lattice_gordon)

    ops_group = sub.add_parser("ops", help="operator classification").add_subparsers(
        dest="action", required=True)
    p = ops_group.add_parser("classify", parents=[common],
                             help="classify a matrix operator")
    p.add_argument("--matrix", required=True, help="JSON file of 'p/q' rows or [re,im] pairs")
    p.set_defaults(handler=cmd_ops_classify)
    p = ops_group.add_parser("derivations", parents=[common],
                             help="derivation solution space")
    p.add_argument("--atoms", type=int, default=4, choices=range(1, 17), metavar="N")
    p.set_defaults(handler=cmd_ops_derivations)

    bilinear = sub.add_parser("bilinear", help="bilinear operators").add_subparsers(
        dest="action", required=True)
    p = bilinear.add_parser("classify", parents=[common],
                            help="classify a bilinear tensor")
    p.add_argument("--tensor", required=True, help="JSON file: cubic array of 'p/q'")
    p.set_defaults(handler=cmd_bilinear_classify)

    p = sub.add_parser("refine", parents=[common],
                       help="refined-function construction from covers")
    p.add_argument("--covers", required=True,
                   help='JSON file {"atoms": N, "covers": [[{"atoms": [...]}, ...], ...]}')
    p.set_defaults(handler=cmd_refine)

    cf = sub.add_parser("cf", help="continued fractions").add_subparsers(
        dest="action", required=True)
    p = cf.add_parser("expand", parents=[common],
                      help="expand a rational or quadratic surd in (0,1)")
    p.add_argument("--value", help="rational as P/Q")
    p.add_argument("--surd",
                   help="quadratic surd as p,q,r,d for (p+q*sqrt(d))/r; "
                        "use --surd=-1,1,1,2 for negative p")
    p.set_defaults(handler=cmd_cf_expand)
    p = cf.add_parser("convergent", parents=[common],
                      help="k-th convergent of the expansion")
    p.add_argument("--value", help="rational as P/Q")
    p.add_argument("--surd", help="quadratic surd as p,q,r,d")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=cmd_cf_convergent)

    pn = sub.add_parser("pnfin", help="pseudo-intersection engine").add_subparsers(
        dest="action", required=True)
    p = pn.add_parser("pi", parents=[common],
                      help="pseudo-intersection of a decreasing chain")
    p.add_argument("--family", default="dyadic",
                   help=f"built-in chain family ({', '.join(sorted(BUILTIN_CHAINS))})")
    p.add_argument("--spec", help='JSON file {"family": ..., "params": {...}}')
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--horizon", type=int, default=10_000)
    p.set_defaults(handler=cmd_pnfin_pi)

    suite = sub.add_parser("suite", help="acceptance battery").add_subparsers(
        dest="action", required=True)
    p = suite.add_parser("all", parents=[common], help="run every acceptance criterion")
    p.set_defaults(handler=cmd_suite_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report: RunReport = args.handler(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError,
            contfrac.PeriodDetectionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
