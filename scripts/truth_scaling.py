"""Cold build and all-pairs truth times of random B-valued sets, by size.

A size is (atoms, sets, rank, children): ``sets`` random B-valued sets of
rank at most ``rank`` over P(atoms), each set with at most ``children``
children and random values, zero included.  For each size and seed a fresh
interpreter builds the sets (cold: nothing is interned yet), asks
``truth_eq`` and ``truth_mem`` of every ordered pair, and then asks every
pair again (warm).  Every answer is cross-checked against the frozenset
stalks of ``bvu.stalks``: atom i lies in [[x = y]] iff x_i = y_i and in
[[x in y]] iff x_i in y_i.  Every warm answer must be the very object the
cold query returned.

Prints, per size, the median over the seeds of the build time, the cold
all-pairs truth time and the warm re-query time, and exits 1 on any
disagreement or any warm answer that is a new object.  Stdlib only:

    PYTHONPATH=src python scripts/truth_scaling.py            # all four sizes
    PYTHONPATH=src python scripts/truth_scaling.py --small    # the two small ones
    PYTHONPATH=src python scripts/truth_scaling.py --json     # one JSON object
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time

SIZES = [(8, 18, 4, 4), (12, 18, 4, 4), (12, 60, 5, 6), (20, 60, 6, 8)]
SMALL = SIZES[:2]
SEEDS = range(1, 11)


def random_spec(rng: random.Random, algebra, rank: int, children: int) -> list:
    """A random set as nested (child spec, BoolElem) pairs, built later."""
    if rank == 0:
        return []
    return [(random_spec(rng, algebra, rng.randrange(rank), children),
             algebra.from_mask(rng.randrange(algebra.full_mask + 1)))
            for _ in range(rng.randint(0, children))]


def measure(atoms: int, count: int, rank: int, children: int, seed: int) -> dict:
    """One measurement, in this interpreter: build ns, cold and warm truth
    ns, the number of answers that disagree with the stalks, and the number
    of warm answers that are not the cold answer's object."""
    from bvdesk import bvu
    from bvdesk.boolalg import FiniteBooleanAlgebra

    algebra = FiniteBooleanAlgebra(atoms)
    rng = random.Random(seed)
    specs = [random_spec(rng, algebra, rank, children) for _ in range(count)]

    def build(spec):
        return bvu.bset(algebra, [(build(child), value) for child, value in spec])

    start = time.perf_counter_ns()
    sets = [build(spec) for spec in specs]
    built = time.perf_counter_ns()
    cold = [(bvu.truth_eq(x, y), bvu.truth_mem(x, y)) for x in sets for y in sets]
    done = time.perf_counter_ns()
    warm = [(bvu.truth_eq(x, y), bvu.truth_mem(x, y)) for x in sets for y in sets]
    rewarmed = time.perf_counter_ns()
    unshared = sum(w[0] is not c[0] or w[1] is not c[1] for c, w in zip(cold, warm))
    answers = [(eq.mask, mem.mask) for eq, mem in cold]

    memo: dict = {}
    stalks = [bvu.stalks(x, memo) for x in sets]
    want = [(sum(1 << i for i in range(atoms) if sx[i] == sy[i]),
             sum(1 << i for i in range(atoms) if sx[i] in sy[i]))
            for sx in stalks for sy in stalks]
    wrong = sum(a != b for a, b in zip(answers, want))
    return {"build_ns": built - start, "truth_ns": done - built,
            "warm_ns": rewarmed - done, "wrong": wrong, "unshared": unshared}


def run(sizes: list[tuple[int, int, int, int]]) -> list[dict]:
    rows = []
    for size in sizes:
        runs = []
        for seed in SEEDS:
            argv = [sys.executable, __file__, "--one", *map(str, size), str(seed)]
            out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
            runs.append(json.loads(out.stdout))
        rows.append({"atoms": size[0], "sets": size[1], "rank": size[2],
                     "children": size[3], "seeds": len(SEEDS),
                     "build_ns_median": int(statistics.median(r["build_ns"] for r in runs)),
                     "truth_ns_median": int(statistics.median(r["truth_ns"] for r in runs)),
                     "warm_ns_median": int(statistics.median(r["warm_ns"] for r in runs)),
                     "wrong": sum(r["wrong"] for r in runs),
                     "unshared": sum(r["unshared"] for r in runs)})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="only the two small sizes")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--one", type=int, nargs=5, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(*args.one)))
        return 0
    rows = run(SMALL if args.small else SIZES)
    if args.json:
        print(json.dumps({"python": sys.version.split()[0], "rows": rows}))
    else:
        print("atoms  sets  rank  children   build ms   truth ms    warm ms"
              "   wrong  unshared")
        for r in rows:
            print(f"{r['atoms']:5d} {r['sets']:5d} {r['rank']:5d} {r['children']:9d}"
                  f" {r['build_ns_median'] / 1e6:10.1f} {r['truth_ns_median'] / 1e6:10.1f}"
                  f" {r['warm_ns_median'] / 1e6:10.2f} {r['wrong']:7d} {r['unshared']:9d}")
    wrong = sum(r["wrong"] for r in rows)
    unshared = sum(r["unshared"] for r in rows)
    if wrong:
        print(f"truth_scaling: {wrong} answers disagree with the stalks", file=sys.stderr)
    if unshared:
        print(f"truth_scaling: {unshared} warm answers are not the cold answer's object",
              file=sys.stderr)
    return 1 if wrong or unshared else 0


if __name__ == "__main__":
    sys.exit(main())
