#!/usr/bin/env python3
"""Write the golden corpus of CLI reports, ``tests/golden/requests.json``.

Each entry is one request and what ``bvdesk`` printed for it: the argv, with
FILE standing for the one JSON input file the request reads, that file's
content inline as ``payload``, the exit code, the sha256 of stdout and the
first line of stderr (the file's path there reads FILE).  ``tests/test_cli.py``
runs this script again in a fresh interpreter and requires the same file byte
for byte, so a changed byte in any report fails the test suite.  The requests
run in one process, in order, through ``cli.main``: a report lists children in
the order their sets were first built in the process.

The corpus covers every subcommand but ``suite all`` (about 4 s; its digest is
pinned in ``test_suite_json_has_no_floats``) and every malformed input of
``MALFORMED``, which ``tests/test_cli.py`` imports from here.  No request
takes more than about 50 ms, and the whole corpus runs in under 3 s (about
1.9 s on a 2-core x86-64 VM).  ``SEED`` draws the randomized requests and is
passed to every command as ``--seed``.

    PYTHONPATH=src python scripts/make_golden.py [--out PATH]

Regenerate the file only when a report is meant to change, and list every
changed request in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from bvdesk import cli
from bvdesk.cli import MAX_CONVERGENT_INDEX, MAX_MATRIX_ORDER, MAX_TRIALS
from bvdesk.refinement import MAX_ATOMS

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "requests.json"
SEED = 0


def record(argv: list[str], payload=None) -> dict:
    """Run ``main(argv)`` in process, with FILE in ``argv`` naming a file that
    holds ``payload`` as JSON, and return the corpus entry of the request."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([path if a == "FILE" else a for a in argv])
            except SystemExit as exc:  # argparse refuses a bad command line this way
                code = exc.code
    return {"argv": argv, "payload": payload, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue().replace(path, "FILE").partition("\n")[0]}


def _diagonal(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


#: Malformed inputs that once ended in a traceback or were silently accepted:
#: (argv with FILE standing for the JSON file, the JSON written there).
MALFORMED = [
    (["refine", "--covers", "FILE"], {"atoms": "3", "covers": []}),
    (["refine", "--covers", "FILE"], {"atoms": 2.5, "covers": []}),
    (["refine", "--covers", "FILE"], {"atoms": 3, "covers": 5}),
    (["refine", "--covers", "FILE"], {"atoms": 3, "covers": [[{"atoms": ["0"]}]]}),
    (["refine", "--covers", "FILE"], {"atoms": True, "covers": [[{"atoms": [0]}]]}),
    (["refine", "--covers", "FILE"], {"atoms": 10 ** 6, "covers": [[{"atoms": [0]}]]}),
    (["refine", "--covers", "FILE"],  # one atom over the cap, at the cap's height
     {"atoms": MAX_ATOMS + 1,
      "covers": [[{"atoms": [q]}, {"atoms": [a for a in range(MAX_ATOMS + 1) if a != q]}]
                 for q in range(MAX_ATOMS)]}),
    (["bvu", "eval", "--env", "FILE", "--formula", "x = x"], [1]),
    (["bvu", "eval", "--env", "FILE", "--formula", "x = x"], {"x": {"dom": 5}}),
    (["bvu", "eval", "--env", "FILE", "--formula", "x = x"],
     {"x": {"dom": [[{"hf": 0}, {"atoms": ["a"]}]]}}),
    (["bvu", "eval", "--env", "FILE", "--formula", "x = x"], {"x": {"hf": 40}}),
    (["ops", "classify", "--matrix", "FILE"], [[None]]),
    (["ops", "classify", "--matrix", "FILE"], [["1/0"]]),
    (["bilinear", "classify", "--tensor", "FILE"], [[[True]]]),
    (["pnfin", "pi", "--count", "3", "--horizon", "50", "--spec", "FILE"],
     {"family": "dyadic", "params": {"base": "x"}}),
    (["pnfin", "pi", "--count", "3", "--horizon", "50", "--spec", "FILE"],
     {"family": "dyadic", "params": {"step": 2}}),
    (["cf", "expand", "--value", "1/0"], None),
    # accepted, then ran for tens of seconds or longer before being refused or done
    (["pnfin", "pi", "--family", "dyadic", "--count", "400", "--horizon", "2500"], None),
    (["pnfin", "pi", "--family", "dyadic", "--count", "2000", "--horizon", "500"], None),
    (["pnfin", "pi", "--count", "2000", "--horizon", "500", "--spec", "FILE"],
     {"family": "dyadic", "params": {"base": 1_000_000}}),
    (["pnfin", "pi", "--count", "1000", "--horizon", "1000", "--spec", "FILE"],
     {"family": "dyadic", "params": {"base": 10 ** 29}}),
    (["pnfin", "pi", "--family", "tails", "--count", "100000000", "--horizon", "0"], None),
    (["pnfin", "pi", "--family", "primes-thinned", "--count", "100000000", "--horizon", "-1"],
     None),
    (["cf", "expand", "--value=1e-9999999"], None),
    (["ops", "classify", "--matrix", "FILE"], [["1e999999"]]),
    (["lattice", "gordon", "--atoms", "16", "--trials", "100000000"], None),
    (["algebra", "check", "--atoms", "16", "--trials", str(MAX_TRIALS + 1)], None),
    # no order cap (n^3 products for a diagonal matrix), and --k refused only after
    # expanding k quotients
    (["ops", "classify", "--matrix", "FILE"], _diagonal(MAX_MATRIX_ORDER + 1)),
    (["cf", "convergent", "--surd=-1,1,2,5", "--k", str(MAX_CONVERGENT_INDEX + 1)], None),
    (["cf", "convergent", "--surd=-1,1,2,5", "--k", "1000000000"], None),
    (["cf", "convergent", "--value", "16/45", "--k", "100000"], None),
]

ENV = {"empty": {"hf": []}, "one": {"hf": [[]]}, "two": {"hf": 2}, "pair": {"hf": [[], [[]]]},
       "y": {"dom": [[{"hf": []}, {"atoms": [0]}]]}}
#: A set with a zero-valued child, and one whose join no single child attains.
PARTIAL = {"z": {"dom": [[{"hf": 0}, {"atoms": []}], [{"hf": 1}, {"atoms": [0, 1]}],
                         [{"hf": 2}, {"atoms": [1]}]]},
           "w": {"dom": [[{"hf": 0}, {"atoms": [0]}], [{"hf": 1}, {"atoms": [1]}]]},
           "one": {"hf": 1}}
FORMULAS = ["empty in one", "one in two", "two = pair", "y = one", "!(y = empty)",
            "forall t in two : t in two", "exists t in two : t = one",
            "exists t in y : t = empty", "forall a in two : forall b in a : b in two",
            "exists t in empty : t = t"]
PARTIAL_FORMULAS = ["exists t in z : t = t", "exists t in z : t in one",
                    "exists t in z : exists u in t : u = u", "forall t in z : t in one",
                    "exists t in w : t = t", "exists t in w : t = one", "z = w"]


def _random_bset(rng: random.Random, atoms: int, rank: int) -> dict:
    if rank == 0 or rng.random() < 0.2:
        return {"hf": rng.randint(0, 2)}
    return {"dom": [[_random_bset(rng, atoms, rank - 1),
                     {"atoms": sorted(rng.sample(range(atoms), rng.randint(0, atoms)))}]
                    for _ in range(rng.randint(0, 3))]}


def _random_rational(rng: random.Random) -> str:
    return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"


def requests() -> list[tuple[list[str], object]]:
    """The (argv, payload) pairs of the corpus."""
    rng = random.Random(SEED)
    s = ["--seed", str(SEED)]
    out: list[tuple[list[str], object]] = []
    for atoms in ("1", "3"):
        out.append((["algebra", "check", "--atoms", atoms, "--trials", "20", *s], None))
    out.append((["algebra", "check", "--atoms", "6", "--trials", "40", *s], None))
    for atoms in ("1", "2", "4"):
        out.append((["bvu", "transfer", "--atoms", atoms, *s], None))
    for f in FORMULAS:
        out.append((["bvu", "eval", "--env", "FILE", "--formula", f, *s], ENV))
    for f in PARTIAL_FORMULAS:
        out.append((["bvu", "eval", "--env", "FILE", "--formula", f, *s], PARTIAL))
    out.append((["bvu", "eval", "--env", "FILE", "--formula", PARTIAL_FORMULAS[0],
                 "--atoms", "3", *s], PARTIAL))
    for atoms in (2, 3):
        env = {name: _random_bset(rng, atoms, 3) for name in ("a", "b", "c")}
        for f in ("a = b", "a in c", "exists t in a : t in b", "forall t in c : t = a | t in b",
                  "exists t in c : exists u in t : u = a"):
            out.append((["bvu", "eval", "--atoms", str(atoms), "--env", "FILE",
                         "--formula", f, *s], env))
    for argv in (["empty inn one"], ["ghost = ghost"], ["forall a in y : a = ghost"],
                 ["forall a in two : " * 99 + "two = two", "--atoms", "3"]):
        out.append((["bvu", "eval", "--env", "FILE", "--formula", *argv, *s], ENV))
    out.append((["bvu", "eval", "--env", "/nonexistent.json", "--formula", "a = a"], None))
    for atoms in ("1", "5"):
        out.append((["lattice", "gordon", "--atoms", atoms, "--trials", "20", *s], None))
    for m in ([["2", "0"], ["0", "3"]], [["0", "1"], ["0", "0"]], [["1/2", "0"], ["0", "-3"]],
              [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
              [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
              [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
              [[["2", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
              [["1e3", "0"], ["0", "0.5"]], [["1", "2"], ["3"]], _diagonal(8)):
        out.append((["ops", "classify", "--matrix", "FILE", *s], m))
    for n in range(3):
        size = rng.randint(1, 4)
        diagonal = rng.random() < 0.5
        out.append((["ops", "classify", "--matrix", "FILE", *s],
                    [[_random_rational(rng) if i == j or not diagonal else "0"
                      for j in range(size)] for i in range(size)]))
    for atoms in ("1", "2", "4"):
        out.append((["ops", "derivations", "--atoms", atoms, *s], None))
    for t in ([[["2", "0"], ["0", "0"]], [["0", "0"], ["0", "3"]]],
              [[["0", "0"], ["1", "0"]], [["0", "0"], ["0", "0"]]], [[["1"]]], [[["2"]]]):
        out.append((["bilinear", "classify", "--tensor", "FILE", *s], t))
    for n in range(2):
        size = rng.randint(1, 3)
        out.append((["bilinear", "classify", "--tensor", "FILE", *s],
                    [[[_random_rational(rng) if rng.random() < 0.4 or i == j == k else "0"
                       for k in range(size)] for j in range(size)] for i in range(size)]))
    out.append((["refine", "--covers", "FILE", *s],
                {"atoms": 4, "covers": [[{"atoms": [0, 1]}, {"atoms": [2, 3]}],
                                        [{"atoms": [0, 2]}, {"atoms": [1, 3]}]]}))
    out.append((["refine", "--covers", "FILE", *s], {"covers": []}))
    for atoms in (3, 6, 10):
        covers = []
        for _ in range(rng.randint(1, 3)):
            blocks = [rng.sample(range(atoms), rng.randint(1, atoms)) for _ in range(2)]
            rest = set(range(atoms)).difference(*blocks)
            covers.append([{"atoms": sorted(b)} for b in blocks + [rest] if b])
        out.append((["refine", "--covers", "FILE", *s], {"atoms": atoms, "covers": covers}))
    values = ["--value=16/45", "--value=0.5", "--surd=-1,1,1,2", "--surd=-1,1,2,5",
              "--surd=-1,1,1,3", "--value=3/2", "--value=1e3", "--surd=1,1,0,2",
              f"--value={rng.randint(1, 99)}/{rng.randint(100, 999)}"]
    for value in values:
        out.append((["cf", "expand", value, *s], None))
    out.append((["cf", "expand", *s], None))
    for value, k in (("--surd=-1,1,1,2", "6"), ("--surd=-1,1,2,5", "30"),
                     ("--value=16/45", "3"), ("--value=16/45", "9")):
        out.append((["cf", "convergent", value, "--k", k, *s], None))
    for family in ("dyadic", "tails", "primes-thinned", "bogus"):
        out.append((["pnfin", "pi", "--family", family, "--count", "4", "--horizon", "300",
                     *s], None))
    out.append((["pnfin", "pi", "--spec", "FILE", "--count", "3", "--horizon", "1000", *s],
                {"family": "dyadic", "params": {"base": 3}}))
    for count in ("0", "-10000000000"):
        out.append((["pnfin", "pi", "--family", "dyadic", "--count", count, "--horizon", "1"],
                    None))
    # each report once more as JSON, then the malformed inputs as their test runs them
    out += [(argv + ["--json"], payload) for argv, payload in out]
    out += [(argv + ["--json"], payload) for argv, payload in MALFORMED]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--out", type=Path, default=GOLDEN)
    args = parser.parse_args(argv)
    corpus = [record(argv, payload) for argv, payload in requests()]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in corpus)
    args.out.write_text(f'{{"requests": [\n{lines}\n]}}\n', encoding="utf-8")
    print(f"{len(corpus)} requests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
