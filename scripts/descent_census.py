#!/usr/bin/env python3
"""Census of descent classes of small standard names.

For each atom count and each von Neumann natural n, counts the equivalence
classes of the descent of n^: the members of full membership truth, i.e.
all mixings of the names below n over the atom partition.  The count is
n^atoms for n >= 1 (one independent choice among n names per atom, all
distinct up to equivalence), which the table makes visible; the script
exits 1 unless every cell equals n^atoms.

Descent builds one mixing per class from the per-atom stalk ids, so a cell
costs time linear in its count n^atoms.  A cell above ``DESCENT_CAP``
(4096) classes is refused with ``ResourceCapError`` before any work.
"""

import argparse

from bvdesk.boolalg import FiniteBooleanAlgebra
from bvdesk.bvu import descent, standard_name


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-atoms", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=3)
    args = parser.parse_args()
    header = "atoms " + " ".join(f"|{n}^|".rjust(6) for n in range(args.max_n + 1))
    print(header)
    wrong = []
    for atoms in range(1, args.max_atoms + 1):
        algebra = FiniteBooleanAlgebra(atoms)
        counts = [len(descent(standard_name(algebra, n)))
                  for n in range(args.max_n + 1)]
        print(f"{atoms:5d} " + " ".join(f"{c:6d}" for c in counts))
        wrong += [(atoms, n, c) for n, c in enumerate(counts) if c != n ** atoms]
    for atoms, n, c in wrong:
        print(f"descent of {n}^ at {atoms} atoms has {c} classes, not {n ** atoms}")
    if wrong:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
