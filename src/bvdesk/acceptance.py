"""The acceptance battery: thirteen exact, seeded property suites.

Every criterion is a function returning a :class:`CriterionResult`; the
full battery runs from a single seed and is exposed both to pytest
(tests/test_acceptance.py) and to the command line (``bvdesk suite all``).
All comparisons are exact; the few runtime ceilings are part of the
criteria themselves.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import bvu, contfrac, operators as ops, pnfin, refinement
from .battery import run_battery
from .boolalg import (BoolElem, FiniteBooleanAlgebra, Partition,
                      sigma_criteria_check)
from .bvu import BSet, bset, mix, standard_name, truth_eq, truth_mem
from .lattice import LatticeVector, gordon_check
from .operators import GaussianRational

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_ns: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.number:2d} {self.name}: {self.detail} "
                f"({seconds_text(self.elapsed_ns, 2)})")

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "elapsed_ns": self.elapsed_ns,
        }


def seconds_text(ns: int, places: int) -> str:
    """Nanoseconds as seconds rounded half up to ``places`` >= 1 decimals, e.g. ``1.25s``."""
    unit = 10 ** places
    whole, frac = divmod((ns * unit + 500_000_000) // 1_000_000_000, unit)
    return f"{whole}.{frac:0{places}d}s"


# -- random generators ---------------------------------------------------------


def random_boolelem(rng: random.Random, algebra: FiniteBooleanAlgebra) -> BoolElem:
    return algebra.from_mask(rng.randrange(algebra.full_mask + 1))


def random_partition(rng: random.Random, algebra: FiniteBooleanAlgebra) -> Partition:
    atoms = list(range(algebra.atom_count))
    rng.shuffle(atoms)
    block_count = rng.randint(1, algebra.atom_count)
    blocks: list[list[int]] = [[] for _ in range(block_count)]
    for i, a in enumerate(atoms):
        blocks[i % block_count].append(a)
    return Partition(tuple(algebra.element(b) for b in blocks if b))


def random_bset(rng: random.Random, algebra: FiniteBooleanAlgebra,
                max_rank: int = 3, max_children: int = 3) -> BSet:
    if max_rank == 0:
        return bset(algebra, ())
    pairs = []
    for _ in range(rng.randint(0, max_children)):
        child = random_bset(rng, algebra, rng.randint(0, max_rank - 1), max_children)
        pairs.append((child, random_boolelem(rng, algebra)))
    return bset(algebra, pairs)


def random_vector(rng: random.Random, dim: int, *, nonneg: bool = False,
                  max_num: int = 9, max_den: int = 9) -> LatticeVector:
    lo = 0 if nonneg else -max_num
    return LatticeVector(tuple(
        Fraction(rng.randint(lo, max_num), rng.randint(1, max_den))
        for _ in range(dim)))


def random_cover(rng: random.Random, algebra: FiniteBooleanAlgebra) -> list[BoolElem]:
    members = []
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(1, algebra.full_mask + 1)
        members.append(algebra.from_mask(mask))
    joined = algebra.sup(members)
    if not joined.is_one:
        members.append(joined.complement())
    return members


def _defining_eq(x: BSet, y: BSet) -> int:
    """[[x = y]] as a mask by the two defining formulas

        [[s in t]] = sup_{u in dom t} ( t(u) ^ [[u = s]] )
        [[s = t]]  = inf_{u in dom s} ( s(u) => [[u in t]] )
                   ^ inf_{u in dom t} ( t(u) => [[u in s]] ),

    with a memo of this call only: the reference for criterion 1, apart
    from the stalk signatures that :func:`truth_eq` reads."""
    full = x.algebra.full_mask
    mems: dict[tuple[BSet, BSet], int] = {}
    eqs: dict[tuple[BSet, BSet], int] = {}

    def mem(s: BSet, t: BSet) -> int:
        if (s, t) not in mems:
            acc = 0
            for u, b in t.entries:
                acc |= b & eq(u, s)
            mems[s, t] = acc
        return mems[s, t]

    def eq(s: BSet, t: BSet) -> int:
        if (s, t) not in eqs:
            acc = full
            for u, b in s.entries:
                acc &= ~b | mem(u, t)
            for u, b in t.entries:
                acc &= ~b | mem(u, s)
            eqs[s, t] = acc
        return eqs[s, t]

    return eq(x, y)


# -- criteria ------------------------------------------------------------------


def criterion_1_truth_value_laws(seed: int) -> CriterionResult:
    """Reflexivity, symmetry, transitivity, and substitution, exactly."""
    start = time.monotonic_ns()
    rng = random.Random(seed + 7919 * 1)
    trials = 334  # three fresh sets per trial: >= 1000 random B-valued sets
    checked = 0
    for _ in range(trials):
        algebra = FiniteBooleanAlgebra(rng.randint(2, 8))
        x = random_bset(rng, algebra)
        y = random_bset(rng, algebra)
        z = random_bset(rng, algebra)
        checked += 3
        if not truth_eq(x, x).is_one:
            return _fail(1, "truth-value laws", f"reflexivity failed on {x!r}", start)
        exy, eyx = truth_eq(x, y), truth_eq(y, x)
        if exy != eyx:
            return _fail(1, "truth-value laws", "symmetry failed", start)
        # the kernel reads stalk signatures, so symmetry holds by itself; the
        # defining recursion shares nothing with them
        if not exy.mask == eyx.mask == _defining_eq(x, y):
            return _fail(1, "truth-value laws", "equality disagrees with the recursion", start)
        eyz, exz = truth_eq(y, z), truth_eq(x, z)
        if not exy.meet(eyz).leq(exz):
            return _fail(1, "truth-value laws", "transitivity failed", start)
        if not exy.meet(truth_mem(y, z)).leq(truth_mem(x, z)):
            return _fail(1, "truth-value laws", "membership substitution failed", start)
        if not exy.meet(truth_mem(z, y)).leq(truth_mem(z, x)):
            return _fail(1, "truth-value laws", "element substitution failed", start)
    elapsed = time.monotonic_ns() - start
    ok = elapsed < 30 * 10 ** 9
    return CriterionResult(1, "truth-value laws", ok,
                           f"{checked} random sets, all five laws exact"
                           + ("" if ok else "; runtime ceiling 30s exceeded"),
                           elapsed)


def criterion_2_mixing_principle(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    rng = random.Random(seed + 7919 * 2)
    trials = 1000
    for _ in range(trials):
        algebra = FiniteBooleanAlgebra(rng.randint(2, 6))
        parts = random_partition(rng, algebra)
        xs = [random_bset(rng, algebra, max_rank=2) for _ in parts]
        mixed = mix(parts, xs)
        for b, x in zip(parts, xs):
            if not b.leq(truth_eq(mixed, x)):
                return _fail(2, "mixing principle",
                             f"[[mix = x]] >= b failed for b={b!r}", start)
    return _pass(2, "mixing principle", f"{trials} random (partition, family) pairs", start)


def criterion_3_restricted_transfer(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    outcomes = []
    for atoms in (2, 3):
        outcomes.extend(run_battery(FiniteBooleanAlgebra(atoms)))
    bad = [o for o in outcomes if not o.ok]
    if bad:
        return _fail(3, "restricted transfer",
                     f"{len(bad)} battery failures, first: {bad[0].item.name}", start)
    count = len(outcomes)
    return _pass(3, "restricted transfer",
                 f"{count} battery evaluations agree classically and are two-valued", start)


def criterion_4_escher_rule(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    algebra = FiniteBooleanAlgebra(2)
    names = [standard_name(algebra, n) for n in range(3)]
    subsets = [[names[i] for i in range(3) if mask >> i & 1] for mask in range(8)]
    for xs in subsets:
        report = bvu.escher_check(algebra, xs)
        if not report.ok:
            return _fail(4, "arrow cancellation",
                         f"failed for family of size {len(xs)}", start)
    return _pass(4, "arrow cancellation",
                 "all 8 families over {0^,1^,2^} verified modulo equivalence", start)


def criterion_5_projection_truth_identities(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    rng = random.Random(seed + 7919 * 5)
    trials = 1000
    for _ in range(trials):
        dim = rng.randint(1, 12)
        algebra = FiniteBooleanAlgebra(dim)
        b = random_boolelem(rng, algebra)
        x = random_vector(rng, dim)
        y = x if rng.random() < 0.2 else random_vector(rng, dim)
        if rng.random() < 0.3:
            # force partial coordinate agreement so both verdict branches occur
            swap = rng.randrange(dim)
            y = LatticeVector(y.coords[:swap] + (x.coords[swap],) + y.coords[swap + 1:])
        if not gordon_check(b, x, y).ok:
            return _fail(5, "projection/truth identities",
                         f"failed for b={b!r}, x={x!r}, y={y!r}", start)
    elapsed = time.monotonic_ns() - start
    ok = elapsed < 5 * 10 ** 9
    return CriterionResult(5, "projection/truth identities", ok,
                           f"{trials} random triples, both equivalences exact"
                           + ("" if ok else "; runtime ceiling 5s exceeded"),
                           elapsed)


def criterion_6_multiplier_recovery(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    rng = random.Random(seed + 7919 * 6)
    trials = 1000
    for _ in range(trials):
        dim = rng.randint(1, 8)
        diag = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)]
        m = ops.diagonal_matrix(diag)
        if not ops.is_band_preserving(m):
            return _fail(6, "multiplier recovery", "diagonal flagged as non-preserving", start)
        g = ops.multiplier_of(m)
        x = random_vector(rng, dim)
        if ops.apply(m, x.coords) != g.mul(x).coords:
            return _fail(6, "multiplier recovery", "T x != (T 1) * x", start)
    for _ in range(trials):
        dim = rng.randint(2, 8)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        i = rng.randrange(dim)
        j = (i + rng.randint(1, dim - 1)) % dim
        rows[i][j] = Fraction(rng.randint(1, 5))  # guarantee an off-diagonal entry
        if ops.is_band_preserving(ops.matrix(rows)):
            return _fail(6, "multiplier recovery", "non-diagonal accepted", start)
    return _pass(6, "multiplier recovery",
                 f"{trials} diagonal recoveries and {trials} non-diagonal rejections", start)


def criterion_7_derivations_trivial(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    dims = []
    for n in range(1, 9):
        space = ops.derivation_space(n)
        dims.append(space.dimension)
        if space.dimension != 0:
            return _fail(7, "no nontrivial derivations",
                         f"nullspace dimension {space.dimension} at {n} atoms", start)
    elapsed = time.monotonic_ns() - start
    ok = elapsed < 10 * 10 ** 9
    return CriterionResult(7, "no nontrivial derivations", ok,
                           "exact nullspace dimension 0 for atom counts 1..8"
                           + ("" if ok else "; runtime ceiling 10s exceeded"),
                           elapsed)


def criterion_8_endomorphisms_and_automorphisms(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    rng = random.Random(seed + 7919 * 8)
    trials = 1000
    for _ in range(trials):
        dim = rng.randint(1, 8)
        idem = [GaussianRational(Fraction(rng.randint(0, 1))) for _ in range(dim)]
        verdict = ops.classify_endomorphism(ops.diagonal_matrix(idem))
        if verdict.kind != "band projection":
            return _fail(8, "endomorphism/automorphism classification",
                         f"idempotent classified {verdict.kind!r}", start)
        expected_support = {i for i, c in enumerate(idem) if c.re == 1}
        if set(verdict.support.atoms) != expected_support:
            return _fail(8, "endomorphism/automorphism classification",
                         "band projection support mismatch", start)
        # bijectivity triage: identity iff no zero on the diagonal
        auto = ops.automorphism_check(ops.diagonal_matrix(idem))
        expected = "identity" if all(c.re == 1 for c in idem) else "not bijective"
        if auto.kind != expected:
            return _fail(8, "endomorphism/automorphism classification",
                         f"automorphism verdict {auto.kind!r}, expected {expected!r}", start)
        # non-idempotent diagonals must be rejected as not multiplicative
        while True:
            c = GaussianRational(Fraction(rng.randint(2, 9), rng.randint(1, 9)),
                                 Fraction(rng.randint(0, 3)))
            if c * c != c:
                break
        bad = ops.diagonal_matrix([c] + idem[1:])
        if ops.classify_endomorphism(bad).kind != "not multiplicative":
            return _fail(8, "endomorphism/automorphism classification",
                         "non-idempotent accepted as multiplicative", start)
    return _pass(8, "endomorphism/automorphism classification",
                 f"{trials} trials: idempotents are 0/1 band projections; "
                 "bijective ones are the identity", start)


def criterion_9_bilinear_classification(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    rng = random.Random(seed + 7919 * 9)
    trials = 1000
    for _ in range(trials):
        dim = rng.randint(1, 6)
        w = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)]
        entries = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for q in range(dim):
            entries[q][q][q] = w[q]
        t = ops.tensor(entries)
        report = ops.bilinear_report(t)
        if not (report.separately_band_preserving and report.symmetric
                and report.orthosymmetric):
            return _fail(9, "bilinear classification", "diagonal tensor misclassified", start)
        if report.multiplier.coords != tuple(w):
            return _fail(9, "bilinear classification", "multiplier mismatch", start)
        x = random_vector(rng, dim)
        y = random_vector(rng, dim)
        if ops.bilinear_apply(t, x.coords, y.coords) != report.multiplier.mul(x).mul(y).coords:
            return _fail(9, "bilinear classification", "b(x,y) != w*x*y", start)
    rejected = 0
    for _ in range(200):
        dim = rng.randint(2, 5)
        entries = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        nonzero = False
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(dim):
                    v = Fraction(rng.randint(-2, 2))
                    entries[i][j][k] = v
                    entries[j][i][k] = -v
                    nonzero = nonzero or v != 0
        t = ops.tensor(entries)
        if nonzero:
            if ops.is_separately_band_preserving(t):
                return _fail(9, "bilinear classification",
                             "nonzero antisymmetric tensor accepted", start)
            rejected += 1
    return _pass(9, "bilinear classification",
                 f"{trials} diagonal tensors classified; "
                 f"{rejected} nonzero antisymmetric candidates rejected", start)


def criterion_10_distributivity_criteria(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    algebra = FiniteBooleanAlgebra(2)
    elements = list(algebra.elements())
    count = 0
    for rows in (1, 2):
        for cols in (1, 2):
            for combo in _all_matrices(elements, rows, cols):
                if not sigma_criteria_check(combo).all_hold:
                    return _fail(10, "distributivity criteria",
                                 f"exhaustive case failed: {combo}", start)
                count += 1
    rng = random.Random(seed + 7919 * 10)
    for _ in range(1000):
        a = FiniteBooleanAlgebra(rng.randint(2, 4))
        matrix = [[random_boolelem(rng, a) for _ in range(3)] for _ in range(3)]
        if not sigma_criteria_check(matrix).all_hold:
            return _fail(10, "distributivity criteria", "random 3x3 case failed", start)
        count += 1
    return _pass(10, "distributivity criteria",
                 f"{count} cases: all three finitized forms hold and agree", start)


def _all_matrices(elements: Sequence[BoolElem], rows: int, cols: int):
    import itertools

    for flat in itertools.product(elements, repeat=rows * cols):
        yield [list(flat[r * cols:(r + 1) * cols]) for r in range(rows)]


def criterion_11_refined_function(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    algebra = FiniteBooleanAlgebra(4)
    fixture_covers = [
        [algebra.element([0, 1]), algebra.element([2, 3])],
        [algebra.element([0, 2]), algebra.element([1, 3])],
    ]
    result = refinement.refine_report(algebra, fixture_covers)
    expected = (Fraction(0), Fraction(1, 9), Fraction(1, 3), Fraction(4, 9))
    if result.g.coords != expected:
        return _fail(11, "refined function", f"fixture produced g = {result.g!r}", start)
    if not result.ok:
        return _fail(11, "refined function", "fixture certificates failed", start)
    rng = random.Random(seed + 7919 * 11)
    for _ in range(100):
        a = FiniteBooleanAlgebra(rng.randint(2, 12))
        covers = [random_cover(rng, a) for _ in range(rng.randint(1, 5))]
        rep = refinement.refine_report(a, covers)
        if not all(rep.certificates):
            return _fail(11, "refined function", "g not refined from an input cover", start)
        if not all(s.ok for s in rep.separations):
            bad = next(s for s in rep.separations if not s.ok)
            return _fail(11, "refined function",
                         f"separation bound failed at pair {bad.atom_pair}", start)
    return _pass(11, "refined function",
                 "fixture g = (0, 1/9, 1/3, 4/9); 100 random suites refined with "
                 "exact separation bounds", start)


def criterion_12_pseudo_intersection(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    for name, factory in pnfin.BUILTIN_CHAINS.items():
        result = pnfin.pseudo_intersection(factory(), count=50, horizon=10_000)
        if any(a >= b for a, b in zip(result.elements, result.elements[1:])):
            return _fail(12, "pseudo-intersection", f"{name}: output not increasing", start)
        if not result.tail_membership_ok:
            return _fail(12, "pseudo-intersection", f"{name}: m_k in b_n failed", start)
    return _pass(12, "pseudo-intersection",
                 "three built-in chains at count 50, horizon 10^4", start)


def criterion_13_continued_fractions(seed: int) -> CriterionResult:
    start = time.monotonic_ns()
    rng = random.Random(seed + 7919 * 13)
    for _ in range(1000):
        den = rng.randint(2, 10_000)
        num = rng.randint(1, den - 1)
        t = Fraction(num, den)
        pq = contfrac.expand(contfrac.QuadraticSurd.from_fraction(t))
        if contfrac.convergent(pq, len(pq)) != t:
            return _fail(13, "continued fractions", f"round trip failed for {t}", start)
    sqrt2m1 = contfrac.QuadraticSurd(-1, 1, 1, 2)
    pq = contfrac.expand(sqrt2m1)
    if pq.preperiod != () or pq.period != (2,):
        return _fail(13, "continued fractions",
                     f"sqrt(2)-1 expanded to {pq.to_json()}", start)
    for k in range(1, 11):
        if not contfrac.convergent_error_within(sqrt2m1, k, pq):
            return _fail(13, "continued fractions",
                         f"|t - p_k/q_k| < 1/q_k^2 failed at k={k}", start)
    return _pass(13, "continued fractions",
                 "1000 exact round trips; sqrt(2)-1 has period [2]; "
                 "convergent error bound verified for k <= 10", start)


def _pass(number: int, name: str, detail: str, start: int) -> CriterionResult:
    return CriterionResult(number, name, True, detail, time.monotonic_ns() - start)


def _fail(number: int, name: str, detail: str, start: int) -> CriterionResult:
    return CriterionResult(number, name, False, detail, time.monotonic_ns() - start)


ALL_CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_1_truth_value_laws,
    criterion_2_mixing_principle,
    criterion_3_restricted_transfer,
    criterion_4_escher_rule,
    criterion_5_projection_truth_identities,
    criterion_6_multiplier_recovery,
    criterion_7_derivations_trivial,
    criterion_8_endomorphisms_and_automorphisms,
    criterion_9_bilinear_classification,
    criterion_10_distributivity_criteria,
    criterion_11_refined_function,
    criterion_12_pseudo_intersection,
    criterion_13_continued_fractions,
)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [criterion(seed) for criterion in ALL_CRITERIA]
