"""The two workloads: input generation (set-up), the timed call, the oracle.

Every input is made from the workload seed at set-up; the timed call hands
the program only those generated inputs.  Items come from a fixed pool that
is cycled, so the state a workload leaves in the program (interned sets,
caches) stops growing once the pool has been seen, whatever the throughput.

- ``universe``: direct calls into ``bvu``/``formula``/``boolalg``/``battery``;
  each cold item (truth caches cleared, fresh sets) is followed by two warm
  re-queries of its sets.
- ``requests``: single CLI requests through ``cli.main([... "--json"])`` on
  input files written at set-up, in a fixed order of request kinds per
  block with seeded parameters.  Each block starts with the acceptance
  battery, ``bvdesk suite all --json``, for a seed derived from the
  workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

from bvdesk import battery, boolalg, bvu, cli, formula

import oracles

# -- shared helpers ----------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI request: exit code and everything printed to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def random_spec(rng: random.Random, atoms: int, rank: int, children: int) -> tuple:
    """A B-valued set spec: a tuple of (child_spec, mask) pairs of lower rank."""
    if rank == 0:
        return ()
    full = (1 << atoms) - 1
    return tuple((random_spec(rng, atoms, rng.randint(0, rank - 1), children),
                  rng.randint(0, full))
                 for _ in range(rng.randint(0, children)))


def spec_to_json(spec: tuple, atoms: int) -> dict:
    return {"dom": [[spec_to_json(child, atoms),
                     {"atoms": [i for i in range(atoms) if mask >> i & 1]}]
                    for child, mask in spec]}


def random_formula(rng: random.Random, names: list[str], depth: int,
                   bound: int = 0) -> tuple:
    """A closed formula AST over ``names``; quantifiers bind t0, t1, ..."""
    if depth == 0 or rng.random() < 0.25:
        return (rng.choice(("eq", "mem")), rng.choice(names), rng.choice(names))
    op = rng.choice(("not", "and", "or", "imp", "forall", "exists", "forall", "exists"))
    if op == "not":
        return ("not", random_formula(rng, names, depth - 1, bound))
    if op in ("and", "or", "imp"):
        return (op, random_formula(rng, names, depth - 1, bound),
                random_formula(rng, names, depth - 1, bound))
    var = f"t{bound}"
    return (op, var, rng.choice(names),
            random_formula(rng, names + [var], depth - 1, bound + 1))


def render(f: tuple) -> str:
    """Concrete syntax for a formula AST; every compound is parenthesized."""
    op = f[0]
    if op == "eq":
        return f"{f[1]} = {f[2]}"
    if op == "mem":
        return f"{f[1]} in {f[2]}"
    if op == "not":
        return f"!({render(f[1])})"
    if op in ("and", "or", "imp"):
        sym = {"and": "&", "or": "|", "imp": "->"}[op]
        return f"({render(f[1])}) {sym} ({render(f[2])})"
    return f"({op} {f[1]} in {f[2]} : {render(f[3])})"


# -- universe --------------------------------------------------------------------------

#: (n, atoms) for the descent of the standard name n^, one per cold item in turn.
DESCENTS = tuple((n, atoms) for atoms in (2, 3, 4) for n in (1, 2, 3, 4))
#: Atom counts of the random B-sets, one per cold item in turn.
SET_ATOMS = (4, 5, 6, 8, 10, 12)


class Universe:
    """Cold items of the B-valued universe, each followed by warm re-queries.

    A cold item clears the truth caches, builds its sets and runs every
    query: all pairs, canonical forms, formulas, a descent and the arrow
    checks, the transfer battery and the Boolean-algebra laws.  A warm
    re-query repeats the queries on the same sets (pairs, canonical forms,
    formulas), so it reads the memo and intern tables.  Two warm re-queries
    per cold item put the median inside the tight warm cluster; with one,
    it fell in the gap between the warm and the cold cluster.
    """

    name = "universe"
    pool = 60  # cold items
    warm = 2  # warm re-queries after each cold item
    block = (1 + warm) * len(DESCENTS)  # every (descent, set atoms) pairing once

    def __init__(self, seed: int, workdir: str) -> None:
        self.colds = [self._cold_input(seed, c) for c in range(self.pool)]
        self.prev_output = None

    @staticmethod
    def _cold_input(seed: int, c: int) -> dict:
        rng = random.Random(seed * 1_000_003 + c)
        atoms = SET_ATOMS[c % len(SET_ATOMS)]
        count = 18
        specs = [random_spec(rng, atoms, rng.randint(1, 4), 4) for _ in range(count)]
        names = [f"x{i}" for i in range(4)]
        formulas = [random_formula(rng, names, 3) for _ in range(3)]
        n, small = DESCENTS[c % len(DESCENTS)]
        full = (1 << atoms) - 1
        return {
            "atoms": atoms,
            "specs": specs,
            "env": {name: rng.randrange(count) for name in names},
            "formulas": formulas,
            "descent": (n, small),
            "sigma": [[rng.randint(0, full) for _ in range(3)] for _ in range(3)],
            "triples": [[rng.randint(0, full) for _ in range(3)] for _ in range(40)],
        }

    def inputs(self) -> bytes:
        return json.dumps(self.colds, sort_keys=True).encode()

    def sizes(self) -> dict:
        return {"set_atoms": list(SET_ATOMS), "sets_per_cold_item": 18,
                "set_rank_max": 4, "children_max": 4, "formulas_per_item": 3,
                "descents_n_atoms": [list(d) for d in DESCENTS],
                "escher": "family {0^..(n-1)^} when n^atoms <= 32",
                "battery_atoms": [2, 3, 4], "sigma_matrices": "3x3",
                "axiom_triples": 40, "cold_inputs": self.pool,
                "warm_requeries_per_cold_item": self.warm}

    def item(self, k: int) -> tuple[bool, dict]:
        cold, rest = divmod(k, 1 + self.warm)
        return rest == 0, self.colds[cold % self.pool]

    @staticmethod
    def kind(item) -> str:
        return "cold" if item[0] else "warm"

    def execute(self, item):
        cold, inp = item
        if cold:
            bvu.clear_truth_caches()
            algebra = boolalg.FiniteBooleanAlgebra(inp["atoms"])
            sets = [build_bset(spec, algebra) for spec in inp["specs"]]
        else:
            algebra, sets = self.prev_output["algebra"], self.prev_output["sets"]
        out = {
            "algebra": algebra, "sets": sets,
            "eq": [[bvu.truth_eq(x, y).mask for y in sets] for x in sets],
            "mem": [[bvu.truth_mem(x, y).mask for y in sets] for x in sets],
            "canon": [bvu.canonicalize(x) for x in sets],
            "values": [bvu.eval_formula(formula.parse(render(f)),
                                        {v: sets[i] for v, i in inp["env"].items()},
                                        algebra).mask
                       for f in inp["formulas"]],
        }
        if cold:
            n, small = inp["descent"]
            small_algebra = boolalg.FiniteBooleanAlgebra(small)
            out["classes"] = len(bvu.descent(bvu.standard_name(small_algebra, n)))
            out["escher"] = None
            if n ** small <= bvu.DOM_CAP:
                family = [bvu.standard_name(small_algebra, k) for k in range(n)]
                out["escher"] = bvu.escher_check(small_algebra, family)
            out["outcomes"] = battery.run_battery(small_algebra)
            elem = algebra.from_mask
            out["sigma"] = boolalg.sigma_criteria_check(
                [[elem(m) for m in row] for row in inp["sigma"]]).all_hold
            out["axioms"] = [boolalg.axioms_hold_on_triple(*(elem(m) for m in t))
                             for t in inp["triples"]]
        self.prev_output = out
        return out

    def check(self, item, out) -> str | None:
        cold, inp = item
        atoms = inp["atoms"]
        memo: dict = {}
        st = [oracles.stalks(spec, atoms, memo) for spec in inp["specs"]]
        for i, x in enumerate(st):
            for j, y in enumerate(st):
                if out["eq"][i][j] != oracles.eq_mask(x, y):
                    return f"[[x{i} = x{j}]] disagrees with the stalks"
                if out["mem"][i][j] != oracles.mem_mask(x, y):
                    return f"[[x{i} in x{j}]] disagrees with the stalks"
        for i, c in enumerate(out["canon"]):
            if bset_stalks(c, atoms, {}) != st[i]:
                return f"canonicalize changed the class of set {i}"
        env = {v: st[i] for v, i in inp["env"].items()}
        for f, value in zip(inp["formulas"], out["values"]):
            if value != oracles.formula_mask(f, env, atoms):
                return f"truth value of {render(f)!r} disagrees with the stalks"
        if not cold:
            return None
        n, small = inp["descent"]
        if out["classes"] != n ** small:
            return f"descent of {n}^ at {small} atoms has {out['classes']} classes"
        escher = out["escher"]
        if escher is not None and not (escher.ok and escher.up_down_classes == n ** small
                                       == escher.expected_classes):
            return f"arrow cancellation failed for n={n} at {small} atoms"
        full = (1 << small) - 1
        if len(out["outcomes"]) != len(battery.BATTERY):
            return "restricted-transfer battery incomplete"
        for o in out["outcomes"]:
            if o.report.truth_value.mask != (full if o.item.expected else 0):
                return f"battery item {o.item.name} has the wrong truth value"
        if not out["sigma"] or not all(out["axioms"]):
            return "a Boolean-algebra law failed"
        return None

    def observe(self, item, out, counters: dict) -> None:
        counters["bvu.descent_classes"] += out.get("classes", 0)


def build_bset(spec: tuple, algebra):
    """The B-valued set of a spec, built through ``bvu.bset``."""
    return bvu.bset(algebra, [(build_bset(child, algebra), algebra.from_mask(mask))
                              for child, mask in spec])


def bset_stalks(x, atoms: int, memo: dict) -> tuple[frozenset, ...]:
    """Stalks of a B-valued set read off its public ``dom`` pairs."""
    got = memo.get(id(x))
    if got is None:
        kids = [(bset_stalks(t, atoms, memo), b.mask) for t, b in x.dom]
        got = tuple(frozenset(s[i] for s, mask in kids if mask >> i & 1)
                    for i in range(atoms))
        memo[id(x)] = got
    return got


# -- requests ----------------------------------------------------------------------------

#: Request kinds of one block, in order, with the method that generates each.
#: Ten kinds are cheaper than ``refine_split_10`` and ten dearer, so the
#: median item is the middle of its three deterministic-cost copies.
BLOCK = (
    ("suite", "_suite"),
    ("refine_split_10", "_refine_split"), ("cf_expand_small", "_cf_expand"),
    ("classify_diagonal", "_classify"), ("bvu_eval_random", "_bvu_eval"),
    ("derivations", "_derivations"), ("malformed", "_malformed"),
    ("pnfin_small", "_pnfin_small"), ("refine_random", "_refine_random"),
    ("bilinear_diagonal", "_bilinear"), ("gordon", "_gordon"),
    ("refine_split_13", "_refine_split"), ("cf_convergent", "_cf_convergent"),
    ("classify_offdiagonal", "_classify"), ("algebra_check", "_algebra_check"),
    ("refine_split_10", "_refine_split"), ("bilinear_antisymmetric", "_bilinear"),
    ("classify_complex", "_classify"), ("refine_split_16", "_refine_split"),
    ("cf_expand_large", "_cf_expand"), ("refine_split_10", "_refine_split"),
    ("bvu_eval_names", "_bvu_eval"), ("pnfin_dyadic_large", "_pnfin_dyadic"),
)

MALFORMED = ("bad_surd", "bad_formula", "not_a_cover", "not_square", "bad_family",
             "bad_json", "atoms_out_of_range")


class Requests:
    """A seeded stream of single CLI requests on input files written at set-up.

    A block holds an odd number of requests, so the median item falls
    inside one kind's cluster rather than between two.  The acceptance
    battery cycles over four derived seeds: after four blocks the state it
    leaves in the program (interned sets, memo tables) stops growing.
    """

    name = "requests"
    pool = 16  # blocks
    block = len(BLOCK)
    suite_seeds = 4

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        rng = random.Random(seed)
        self.suites = [rng.randrange(1, 10 ** 6) for _ in range(self.suite_seeds)]
        self.files: dict[str, bytes] = {}
        self.items = []
        for b in range(self.pool):
            rng = random.Random(seed * 1_000_003 + b)
            for slot, (kind, method) in enumerate(BLOCK):
                self.items.append(getattr(self, method)(rng, kind, b, f"b{b:02d}s{slot:02d}"))
        for name, data in self.files.items():
            with open(os.path.join(workdir, name), "wb") as fh:
                fh.write(data)

    def _file(self, stem: str, obj) -> str:
        name = f"{stem}.json"
        self.files[name] = json.dumps(obj, sort_keys=True).encode()
        return os.path.join(self.workdir, name)

    # each generator returns (kind, argv, expectation)

    def _suite(self, rng, kind, b, stem):
        seed = self.suites[b % len(self.suites)]
        return kind, ["suite", "all", "--json", "--seed", str(seed)], None

    def _refine_split(self, rng, kind, b, stem):
        atoms = int(kind.rsplit("_", 1)[1])
        order = list(range(atoms))
        rng.shuffle(order)
        full = (1 << atoms) - 1
        covers = [[1 << q, full & ~(1 << q)] for q in order[:atoms - 1]]
        return self._refine(kind, stem, atoms, covers)

    def _refine_random(self, rng, kind, b, stem):
        while True:
            atoms = rng.randint(8, 20)
            full = (1 << atoms) - 1
            covers = []
            for _ in range(rng.randint(1, 4)):
                members = [rng.randint(1, full) for _ in range(rng.randint(1, 4))]
                joined = 0
                for m in members:
                    joined |= m
                if joined != full:
                    members.append(full & ~joined)
                covers.append(members)
            if oracles.tower_height(atoms, covers) <= 12:
                return self._refine(kind, stem, atoms, covers)

    def _refine(self, kind, stem, atoms, covers):
        spec = {"atoms": atoms, "covers": [[{"atoms": [q for q in range(atoms) if m >> q & 1]}
                                            for m in cover] for cover in covers]}
        path = self._file(stem, spec)
        return kind, ["refine", "--covers", path, "--json"], (atoms, covers)

    def _cf_expand(self, rng, kind, b, stem):
        if kind.endswith("small"):
            d = _surd_with_period(rng, 90, 130, 150_000, 170_000)
        else:
            d = _surd_with_period(rng, 1700, 2000, 1_000_000, 1_100_000)
        return kind, ["cf", "expand", f"--surd=-{math.isqrt(d)},1,1,{d}", "--json"], d

    def _cf_convergent(self, rng, kind, b, stem):
        d = _surd_with_period(rng, 450, 550, 1_000_000, 1_100_000)
        k = rng.randint(10, 200)
        return kind, ["cf", "convergent", f"--surd=-{math.isqrt(d)},1,1,{d}",
                      "--k", str(k), "--json"], (d, k)

    def _classify(self, rng, kind, b, stem):
        n = rng.randint(3, 8)
        if kind == "classify_complex":
            ones = [rng.random() < 0.7 for _ in range(n)]
            entries = [[["1" if i == j and ones[i] else "0", "0"] for j in range(n)]
                       for i in range(n)]
        else:
            entries = [[str(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) if i == j
                        else "0" for j in range(n)] for i in range(n)]
            if kind == "classify_offdiagonal":
                i = rng.randrange(n)
                j = (i + rng.randint(1, n - 1)) % n
                entries[i][j] = str(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        path = self._file(stem, entries)
        return kind, ["ops", "classify", "--matrix", path, "--json"], \
            (kind.split("_", 1)[1], entries)

    def _bilinear(self, rng, kind, b, stem):
        n = rng.randint(2, 6)
        t = [[["0"] * n for _ in range(n)] for _ in range(n)]
        weights = []
        if kind == "bilinear_diagonal":
            for q in range(n):
                w = str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                t[q][q][q] = w
                weights.append(w)
        else:
            t[0][1][rng.randrange(n)] = str(rng.randint(1, 5))
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(n):
                        v = Fraction(t[i][j][k]) + rng.randint(-2, 2)
                        t[i][j][k] = str(v)
                        t[j][i][k] = str(-v)
            if all(t[i][j][k] == "0" for i in range(n) for j in range(n) for k in range(n)):
                t[0][1][0], t[1][0][0] = "1", "-1"
        path = self._file(stem, t)
        return kind, ["bilinear", "classify", "--tensor", path, "--json"], \
            (kind.split("_", 1)[1], weights)

    def _bvu_eval(self, rng, kind, b, stem):
        atoms = rng.randint(2, 6)
        names = [f"x{i}" for i in range(3)]
        if kind == "bvu_eval_names":
            hfs = [rng.randint(0, 4) for _ in names]
            env = {v: {"hf": h} for v, h in zip(names, hfs)}
            specs = [_natural_spec(h, atoms) for h in hfs]
        else:
            specs = [random_spec(rng, atoms, rng.randint(1, 3), 3) for _ in names]
            env = {v: spec_to_json(s, atoms) for v, s in zip(names, specs)}
        f = random_formula(rng, names, 3)
        path = self._file(stem, env)
        memo: dict = {}
        st = {v: oracles.stalks(s, atoms, memo) for v, s in zip(names, specs)}
        expected = oracles.formula_mask(f, st, atoms)
        return kind, ["bvu", "eval", "--env", path, "--formula", render(f),
                      "--atoms", str(atoms), "--json"], expected

    def _derivations(self, rng, kind, b, stem):
        atoms = rng.randint(6, 12)
        return kind, ["ops", "derivations", "--atoms", str(atoms), "--json"], atoms

    def _pnfin_dyadic(self, rng, kind, b, stem):
        return self._pnfin(kind, stem, "dyadic", {"base": 2}, rng.randint(48, 50),
                           rng.randint(8000, 9000))

    def _pnfin_small(self, rng, kind, b, stem):
        """Dyadic (base 2-5), tails and primes-thinned chains in turn by block."""
        family = ("dyadic", "tails", "primes-thinned")[b % 3]
        if family == "dyadic":
            return self._pnfin(kind, stem, family, {"base": rng.randint(2, 5)},
                               rng.randint(20, 25), rng.randint(1000, 1200))
        return self._pnfin(kind, stem, family, {}, rng.randint(33, 37),
                           rng.randint(4500, 5500))

    def _pnfin(self, kind, stem, family, params, count, horizon):
        path = self._file(stem, {"family": family, "params": params})
        return kind, ["pnfin", "pi", "--spec", path, "--count", str(count),
                      "--horizon", str(horizon), "--json"], (family, params, count)

    def _gordon(self, rng, kind, b, stem):
        trials = rng.randint(90, 110)
        return kind, ["lattice", "gordon", "--atoms", str(rng.randint(7, 9)),
                      "--trials", str(trials), "--seed", str(rng.randrange(10 ** 6)),
                      "--json"], trials

    def _algebra_check(self, rng, kind, b, stem):
        atoms = rng.randint(5, 6)
        return kind, ["algebra", "check", "--atoms", str(atoms), "--trials",
                      str(rng.randint(90, 110)), "--seed", str(rng.randrange(10 ** 6)),
                      "--json"], None

    def _malformed(self, rng, kind, b, stem):
        which = MALFORMED[b % len(MALFORMED)]
        if which == "bad_surd":
            argv = ["cf", "expand", "--surd", "1,2", "--json"]
        elif which == "bad_formula":
            argv = ["bvu", "eval", "--env", self._file(stem, {"x": {"hf": 1}}),
                    "--formula", "forall t in : x = t", "--json"]
        elif which == "not_a_cover":
            argv = ["refine", "--covers",
                    self._file(stem, {"atoms": 4, "covers": [[{"atoms": [0, 1]}]]}),
                    "--json"]
        elif which == "not_square":
            argv = ["ops", "classify", "--matrix",
                    self._file(stem, [["1", "0"], ["0"]]), "--json"]
        elif which == "bad_family":
            argv = ["pnfin", "pi", "--family", "no-such-family", "--json"]
        elif which == "bad_json":
            name = f"{stem}.json"
            self.files[name] = b'{"atoms": 3, "covers": ['
            argv = ["refine", "--covers", os.path.join(self.workdir, name), "--json"]
        else:
            argv = ["algebra", "check", "--atoms", "99", "--json"]
        return kind, argv, which

    # -- the workload interface

    def inputs(self) -> bytes:
        stream = json.dumps([item[:2] for item in self.items]).encode()
        return stream + b"".join(name.encode() + data
                                 for name, data in sorted(self.files.items()))

    def sizes(self) -> dict:
        return {"block": [kind for kind, _ in BLOCK], "blocks": self.pool,
                "suite_seeds": self.suites,
                "refine_split_atoms": [10, 13, 16], "refine_random_atoms": [8, 20],
                "refine_random_max_height": 12,
                "cf_periods": {"expand_small": [90, 130], "convergent": [450, 550],
                               "expand_large": [1700, 2000]},
                "cf_d": {"expand_small": [150_000, 170_000],
                         "convergent": [1_000_000, 1_100_000],
                         "expand_large": [1_000_000, 1_100_000]},
                "derivations_atoms": [6, 12],
                "pnfin": {"small": "by block in turn: dyadic base 2-5, count 20-25, "
                                   "horizon 1000-1200; tails or primes-thinned, "
                                   "count 33-37, horizon 4500-5500",
                          "dyadic_large": "base 2, count 48-50, horizon 8000-9000"},
                "classify_n": [3, 8], "bilinear_n": [2, 6], "gordon": "atoms 7-9, "
                "90-110 trials", "algebra_check": "atoms 5-6, 90-110 random triples",
                "bvu_eval_atoms": [2, 6], "malformed": list(MALFORMED)}

    def item(self, k: int):
        return self.items[k % len(self.items)]

    @staticmethod
    def kind(item) -> str:
        return item[0]

    def execute(self, item):
        return run_cli(item[1])

    def check(self, item, output) -> str | None:
        kind, _argv, want = item
        rc, stdout = output
        if kind == "suite":
            return oracles.check_suite(rc, stdout)
        if kind == "malformed":
            return oracles.check_malformed(rc, stdout)
        if kind.startswith("refine"):
            return oracles.check_refine(*want, rc, stdout)
        if kind.startswith("cf_expand"):
            return oracles.check_cf_expand(want, rc, stdout)
        if kind == "cf_convergent":
            return oracles.check_cf_convergent(*want, rc, stdout)
        if kind.startswith("classify"):
            return oracles.check_classify(*want, rc, stdout)
        if kind.startswith("bilinear"):
            return oracles.check_bilinear(*want, rc, stdout)
        if kind.startswith("bvu_eval"):
            return oracles.check_bvu_eval(want, rc, stdout)
        if kind.startswith("derivations"):
            return oracles.check_derivations(want, rc, stdout)
        if kind.startswith("pnfin"):
            return oracles.check_pnfin(*want, rc, stdout)
        if kind == "gordon":
            return oracles.check_gordon(want, rc, stdout)
        if kind == "algebra_check":
            return oracles.check_all_pass("algebra check", rc, stdout)
        return f"no oracle for request kind {kind!r}"

    def observe(self, item, output, counters: dict) -> None:
        kind = item[0]
        rc, stdout = output
        counters["cli.output_bytes"] += len(stdout)
        if rc != 0:
            return
        if kind.startswith("cf_expand"):
            out = json.loads(stdout)
            counters["contfrac.gauss_states"] += len(out["preperiod"]) + len(out["period"])
        elif kind.startswith("refine") and counters["refinement.tower_blocks"] is not None:
            levels = json.loads(stdout).get("tower", {}).get("levels")
            if not (isinstance(levels, list) and all(isinstance(lv, list) for lv in levels)):
                counters["refinement.tower_blocks"] = None  # the padded tower is gone
                return
            counters["refinement.tower_blocks"] += sum(len(lv) for lv in levels)
            counters["refinement.nonzero_blocks"] += sum(
                1 for lv in levels for blk in lv if blk.get("atoms"))


def _surd_with_period(rng: random.Random, lo: int, hi: int, d_lo: int, d_hi: int) -> int:
    """A squarefree d in [d_lo, d_hi] whose sqrt has a period length in [lo, hi].

    A Gauss-map step costs about sqrt of the squarefree part of d, so taking
    d squarefree and bounding it as well as the period keeps the cost of a
    request kind in a narrow band.
    """
    while True:
        d = rng.randint(d_lo, d_hi)
        if math.isqrt(d) ** 2 == d or not lo <= len(oracles.sqrt_period(d, hi + 1)) <= hi:
            continue
        if all(d % (k * k) for k in range(2, math.isqrt(d) + 1)):
            return d


def _natural_spec(n: int, atoms: int) -> tuple:
    """Spec of the standard name of the von Neumann natural n."""
    full = (1 << atoms) - 1
    return tuple((_natural_spec(k, atoms), full) for k in range(n))


WORKLOADS = {w.name: w for w in (Universe, Requests)}
