#!/usr/bin/env python3
"""Run the full acceptance battery and print one line per criterion.

Exit status is 0 iff every criterion passes.  Equivalent to
``bvdesk suite all`` but handy as a plain script.
"""

import argparse
import sys

from bvdesk.acceptance import DEFAULT_SEED, run_all, seconds_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    results = run_all(args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    total_ns = sum(r.elapsed_ns for r in results)
    print(f"-- {len(results) - len(failed)}/{len(results)} criteria passed "
          f"in {seconds_text(total_ns, 1)} (seed {args.seed})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
