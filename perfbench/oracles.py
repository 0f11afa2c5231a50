"""Independent oracles for every output the benchmark checks.

None of these calls back into bvdesk: each recomputes the expected answer
from the generated input by a different route (integer recurrences, closed
forms, classical set theory on atomwise stalks, an address-per-atom
refinement tower) or compares against fixed, hand-checked text.  Every
check returns ``None`` when the output is right and a message otherwise.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Sequence

# -- acceptance battery (``suite all``) ------------------------------------------

CRITERIA = (
    ("truth-value laws", r"1002 random sets, all five laws exact"),
    ("mixing principle", r"1000 random \(partition, family\) pairs"),
    ("restricted transfer",
     r"48 battery evaluations agree classically and are two-valued"),
    ("arrow cancellation",
     r"all 8 families over \{0\^,1\^,2\^\} verified modulo equivalence"),
    ("projection/truth identities", r"1000 random triples, both equivalences exact"),
    ("multiplier recovery",
     r"1000 diagonal recoveries and 1000 non-diagonal rejections"),
    ("no nontrivial derivations",
     r"exact nullspace dimension 0 for atom counts 1\.\.8"),
    ("endomorphism/automorphism classification",
     r"1000 trials: idempotents are 0/1 band projections; bijective ones are the identity"),
    ("bilinear classification",
     r"1000 diagonal tensors classified; (1?\d{1,2}|200) nonzero antisymmetric "
     r"candidates rejected"),
    ("distributivity criteria", r"1292 cases: all three finitized forms hold and agree"),
    ("refined function",
     r"fixture g = \(0, 1/9, 1/3, 4/9\); 100 random suites refined with exact "
     r"separation bounds"),
    ("pseudo-intersection", r"three built-in chains at count 50, horizon 10\^4"),
    ("continued fractions",
     r"1000 exact round trips; sqrt\(2\)-1 has period \[2\]; convergent error "
     r"bound verified for k <= 10"),
)


def check_suite(rc: int, stdout: str) -> str | None:
    """All thirteen verdicts pass with the expected names and details.

    Only name, pass and detail are compared; the ``seconds`` timing fields
    are not (their float values differ from run to run).
    """
    if rc != 0:
        return f"suite all exited {rc}"
    report = json.loads(stdout)
    if report.get("exit_code") != 0:
        return "suite all report has a nonzero exit_code"
    verdicts = report.get("verdicts", [])
    criteria = report.get("criteria", [])
    if len(verdicts) != len(CRITERIA) or len(criteria) != len(CRITERIA):
        return f"expected {len(CRITERIA)} verdicts, got {len(verdicts)}"
    for number, ((name, detail), verdict, entry) in enumerate(
            zip(CRITERIA, verdicts, criteria), start=1):
        if verdict.get("name") != f"criterion-{number:02d}-{name}":
            return f"criterion {number}: unexpected name {verdict.get('name')!r}"
        if verdict.get("pass") is not True:
            return f"criterion {number} failed: {verdict.get('witness')}"
        if not re.fullmatch(detail, verdict.get("witness", "")):
            return f"criterion {number}: unexpected detail {verdict.get('witness')!r}"
        if (entry.get("number"), entry.get("name"), entry.get("passed"),
                entry.get("detail")) != (number, name, True, verdict["witness"]):
            return f"criterion {number}: criteria payload disagrees with verdict"
    return None


# -- classical set theory on stalks ------------------------------------------------
#
# A B-valued set over n atoms is given as a spec: a tuple of (child_spec,
# mask) pairs.  Its stalk at atom i is the hereditarily finite set of the
# stalks of the children whose mask contains i.  For B = P(n), atom i lies
# in [[x = y]] iff the stalks at i are equal and in [[x in y]] iff the stalk
# of x at i is a member of the stalk of y at i.


def stalks(spec: tuple, atoms: int, memo: dict | None = None) -> tuple[frozenset, ...]:
    memo = {} if memo is None else memo
    hit = memo.get(id(spec))
    if hit is not None:
        return hit[0]
    kids = [(stalks(child, atoms, memo), mask) for child, mask in spec]
    got = tuple(frozenset(s[i] for s, mask in kids if mask >> i & 1)
                for i in range(atoms))
    memo[id(spec)] = (got, spec)  # the spec is kept so its id stays unique
    return got


def eq_mask(x: Sequence[frozenset], y: Sequence[frozenset]) -> int:
    return sum(1 << i for i, (a, b) in enumerate(zip(x, y)) if a == b)


def mem_mask(x: Sequence[frozenset], y: Sequence[frozenset]) -> int:
    return sum(1 << i for i, (a, b) in enumerate(zip(x, y)) if a in b)


def classical(f: tuple, env: dict[str, frozenset]) -> bool:
    """Classical truth of a formula AST (see ``workloads.render``)."""
    op = f[0]
    if op == "eq":
        return env[f[1]] == env[f[2]]
    if op == "mem":
        return env[f[1]] in env[f[2]]
    if op == "not":
        return not classical(f[1], env)
    if op == "and":
        return classical(f[1], env) and classical(f[2], env)
    if op == "or":
        return classical(f[1], env) or classical(f[2], env)
    if op == "imp":
        return (not classical(f[1], env)) or classical(f[2], env)
    if op in ("forall", "exists"):
        _, var, bound, body = f
        results = (classical(body, {**env, var: m}) for m in env[bound])
        return all(results) if op == "forall" else any(results)
    raise ValueError(f"unknown formula node {op!r}")


def formula_mask(f: tuple, env: dict[str, Sequence[frozenset]], atoms: int) -> int:
    """Truth value of ``f`` as an atom mask, one classical evaluation per atom."""
    return sum(1 << i for i in range(atoms)
               if classical(f, {name: s[i] for name, s in env.items()}))


# -- continued fractions -------------------------------------------------------------


def sqrt_period(d: int, limit: int | None = None) -> list[int]:
    """Period (a_1, ..., a_r) of sqrt(d) by the integer (m, d, a) recurrence.

    sqrt(d) - floor(sqrt(d)) = [0; a_1, ..., a_r, a_1, ...] is purely
    periodic.  Returns an empty list if ``limit`` quotients pass first.
    """
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a perfect square")
    m, q, a = 0, 1, a0
    period: list[int] = []
    while True:
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period.append(a)
        if a == 2 * a0:
            return period
        if limit is not None and len(period) >= limit:
            return []


def convergent_text(quotients: Sequence[int], k: int) -> str:
    """The k-th convergent of [0; a_1, a_2, ...] as canonical ``p/q`` text."""
    terms = [quotients[i % len(quotients)] for i in range(k)]
    num, den = 0, 1
    for a in reversed(terms):
        num, den = den, a * den + num
    return str(Fraction(num, den))


def check_cf_expand(d: int, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"cf expand exited {rc}"
    out = json.loads(stdout)
    expected = sqrt_period(d)
    if out.get("preperiod") != [] or out.get("period") != expected:
        return f"sqrt({d}) expansion disagrees with the (m, d, a) recurrence"
    return None


def check_cf_convergent(d: int, k: int, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"cf convergent exited {rc}"
    out = json.loads(stdout)
    if out.get("convergent") != convergent_text(sqrt_period(d), k):
        return f"convergent {k} of sqrt({d}) is wrong"
    return None


# -- pseudo-intersections ---------------------------------------------------------


def first_primes(count: int) -> list[int]:
    primes: list[int] = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def pnfin_closed_form(family: str, params: dict, count: int) -> list[int]:
    """m_k for the greedy pseudo-intersection of a built-in chain.

    Dyadic base b: level n is the multiples of b^n, so m_n = b^n.  Tails:
    level n is {m > n}, so m_n = n + 1.  Primes thinned: level n is the
    primes from the n-th, so m_n = p_n.
    """
    if family == "dyadic":
        base = params.get("base", 2)
        return [base ** n for n in range(1, count + 1)]
    if family == "tails":
        return [n + 1 for n in range(1, count + 1)]
    if family == "primes-thinned":
        return first_primes(count)
    raise ValueError(f"no closed form for family {family!r}")


def check_pnfin(family: str, params: dict, count: int,
                rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"pnfin pi exited {rc}"
    out = json.loads(stdout)
    if out.get("elements") != pnfin_closed_form(family, params, count):
        return f"{family} pseudo-intersection disagrees with its closed form"
    if out.get("tail_membership_ok") is not True or not out["decreasing"]["ok"]:
        return f"{family} pseudo-intersection guarantee not reported"
    return None


# -- refinement tower, one binary address per atom -----------------------------------


def refine_expected(atoms: int, covers: Sequence[Sequence[int]]
                    ) -> tuple[list[Fraction], list[list[int]]]:
    """Refined function and per-atom block addresses (block index per level).

    Mirrors the construction's rules (split each block by the first cover
    member meeting it properly, until every block lies in a member; the
    first cover forces at least one level) on a sparse {index: mask} map,
    so zero padding is never materialized.
    """
    top = (1 << atoms) - 1
    level: dict[int, int] = {0: top}
    addresses: list[list[int]] = [[] for _ in range(atoms)]
    height = 0

    def split(blocks: dict[int, int], cover: Sequence[int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for j, u in blocks.items():
            if any(u & ~c == 0 for c in cover):
                out[2 * j] = u
                continue
            piece = next(u & c for c in cover if u & c and u & c != u)
            out[2 * j] = piece
            out[2 * j + 1] = u & ~piece
        return out

    def settled(blocks: dict[int, int], cover: Sequence[int]) -> bool:
        return all(any(u & ~c == 0 for c in cover) for u in blocks.values())

    for cover in covers:
        forced = height == 0
        while forced or not settled(level, cover):
            forced = False
            level = split(level, cover)
            height += 1
            for j, u in level.items():
                for q in range(atoms):
                    if u >> q & 1:
                        addresses[q].append(j)
    if height == 0:
        for q in range(atoms):
            addresses[q].append(0)
    g = [sum((Fraction(1, 3 ** (m + 1)) for m, j in enumerate(addr) if j % 2 == 1),
             Fraction(0)) for addr in addresses]
    return g, addresses


def check_refine(atoms: int, covers: Sequence[Sequence[int]],
                 rc: int, stdout: str) -> str | None:
    """g, the certificates and the separation records; never the tower."""
    if rc != 0:
        return f"refine exited {rc}"
    out = json.loads(stdout)
    g, addresses = refine_expected(atoms, covers)
    if out.get("g", {}).get("coords") != [str(v) for v in g]:
        return f"refined function at {atoms} atoms disagrees with the address tower"
    if out.get("certificates") != [True] * len(covers):
        return "a cover is not certified as refined"
    expected = []
    for q1 in range(atoms):
        for q2 in range(q1 + 1, atoms):
            level = next((m + 1 for m, (a, b) in enumerate(zip(addresses[q1], addresses[q2]))
                          if a != b), None)
            if level is None:
                continue
            expected.append({"atom_pair": [q1, q2], "level": level,
                             "gap": str(abs(g[q1] - g[q2])),
                             "bound": str(Fraction(1, 2 * 3 ** level)), "ok": True})
    if out.get("separation") != expected:
        return "separation records disagree with the address tower"
    if any(Fraction(s["gap"]) < Fraction(s["bound"]) for s in expected):
        return "separation bound violated"
    return None


def tower_height(atoms: int, covers: Sequence[Sequence[int]]) -> int:
    _, addresses = refine_expected(atoms, covers)
    return len(addresses[0])


# -- operators -------------------------------------------------------------------------


def check_derivations(atoms: int, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"ops derivations exited {rc}"
    out = json.loads(stdout)["derivations"]
    if out != {"atom_count": atoms, "dimension": 0}:
        return f"derivation space at {atoms} atoms is not trivial: {out}"
    return None


def _verdicts(report: dict) -> dict[str, str]:
    return {v["name"]: v["witness"] for v in report["verdicts"]}


def check_classify(kind: str, entries: list, rc: int, stdout: str) -> str | None:
    """Diagonal real: preserving with multiplier = diagonal.  Non-diagonal:
    not preserving.  Complex 0/1 diagonal: band projection onto the ones,
    and the identity exactly when every entry is one."""
    if rc != 0:
        return f"ops classify exited {rc}"
    out = json.loads(stdout)
    verdicts = _verdicts(out)
    n = len(entries)
    if kind == "diagonal":
        if verdicts.get("band-preserving") != "True":
            return "diagonal matrix not band preserving"
        if out.get("multiplier", {}).get("coords") != [entries[i][i] for i in range(n)]:
            return "multiplier is not the diagonal"
    elif kind == "offdiagonal":
        if verdicts.get("band-preserving") != "False" or "multiplier" in out:
            return "matrix with an off-diagonal entry accepted"
    elif kind == "complex":
        ones = [i for i in range(n) if entries[i][i] == ["1", "0"]]
        if out.get("endomorphism", {}).get("kind") != "band projection":
            return "complex idempotent diagonal not a band projection"
        if out["endomorphism"].get("support") != {"atoms": ones}:
            return "band projection has the wrong support"
        expected = "identity" if len(ones) == n else "not bijective"
        if out.get("automorphism", {}).get("kind") != expected:
            return f"automorphism verdict is not {expected!r}"
    return None


def check_bilinear(kind: str, weights: list[str], rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"bilinear classify exited {rc}"
    rep = json.loads(stdout)["report"]
    if kind == "diagonal":
        want = {"separately_band_preserving": True, "symmetric": True,
                "orthosymmetric": True, "multiplier": {"coords": weights}}
    else:
        want = {"separately_band_preserving": False, "symmetric": False,
                "orthosymmetric": False, "multiplier": None}
    if rep != want:
        return f"{kind} tensor misclassified: {rep}"
    return None


# -- generic ------------------------------------------------------------------------------


def check_all_pass(command: str, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"{command} exited {rc}"
    out = json.loads(stdout)
    if not out["verdicts"] or not all(v["pass"] for v in out["verdicts"]):
        return f"{command} reported a failing verdict"
    return None


def check_gordon(trials: int, rc: int, stdout: str) -> str | None:
    bad = check_all_pass("lattice gordon", rc, stdout)
    if bad:
        return bad
    witness = _verdicts(json.loads(stdout)).get("projection-truth-identities")
    if witness != f"{trials} random triples, 0 failures":
        return f"unexpected gordon witness {witness!r}"
    return None


def check_bvu_eval(expected_mask: int, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"bvu eval exited {rc}"
    atoms = json.loads(stdout)["truth_value"]["atoms"]
    if sum(1 << i for i in atoms) != expected_mask:
        return "truth value disagrees with the atomwise classical value"
    return None


def check_malformed(rc: int, stdout: str) -> str | None:
    if rc != 2:
        return f"malformed request exited {rc}, expected 2"
    if stdout:
        return "malformed request printed a report"
    return None
