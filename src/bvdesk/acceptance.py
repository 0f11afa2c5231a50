"""The acceptance battery: thirteen exact, seeded property suites.

Every criterion is a function returning a :class:`CriterionResult`; the
full battery runs from a single seed and is exposed both to pytest
(tests/test_acceptance.py) and to the command line (``bvdesk suite all``).
All comparisons are exact; the few runtime ceilings are part of the
criteria themselves.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)`` without the argument checks of ``randrange``:
    the same draw, so the value and the generator's state after the call
    are those of ``rng.randint``."""
    if hi < lo:
        raise ValueError(f"no integer in [{lo}, {hi}]")
    return lo + rng._randbelow(hi - lo + 1)


#: Every rational p/q with |p| <= 9 and 1 <= q <= 9, one shared object each:
#: the generators and criteria draw only these, and looking one up costs far
#: less than building a new ``Fraction``.
_FRACTIONS = {(p, q): Fraction(p, q) for p in range(-9, 10) for q in range(1, 10)}


def random_boolelem(rng: random.Random, algebra: FiniteBooleanAlgebra) -> BoolElem:
    return algebra.from_mask(_randint(rng, 0, algebra.full_mask))


def random_partition(rng: random.Random, algebra: FiniteBooleanAlgebra) -> Partition:
    atoms = list(range(algebra.atom_count))
    rng.shuffle(atoms)
    block_count = _randint(rng, 1, algebra.atom_count)
    blocks: list[list[int]] = [[] for _ in range(block_count)]
    for i, a in enumerate(atoms):
        blocks[i % block_count].append(a)
    return Partition(tuple(algebra.element(b) for b in blocks if b))


def random_bset(rng: random.Random, algebra: FiniteBooleanAlgebra,
                max_rank: int = 3, max_children: int = 3) -> BSet:
    if max_rank == 0:
        return bset(algebra, ())
    pairs = []
    for _ in range(_randint(rng, 0, max_children)):
        child = random_bset(rng, algebra, _randint(rng, 0, max_rank - 1), max_children)
        pairs.append((child, random_boolelem(rng, algebra)))
    return bset(algebra, pairs)


def random_vector(rng: random.Random, dim: int) -> LatticeVector:
    """Coordinates p/q with |p| <= 9 and 1 <= q <= 9."""
    return LatticeVector(tuple(
        _FRACTIONS[_randint(rng, -9, 9), _randint(rng, 1, 9)] for _ in range(dim)))


def random_cover(rng: random.Random, algebra: FiniteBooleanAlgebra) -> list[BoolElem]:
    members = []
    for _ in range(_randint(rng, 1, 4)):
        mask = _randint(rng, 1, algebra.full_mask)
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


def _criterion(number: int, name: str, ceiling_s: int | None = None):
    """Make ``check(rng) -> (passed, detail)`` acceptance criterion ``number``.

    The criterion takes a seed, hands ``check`` a ``random.Random`` seeded
    with ``seed + 7919 * number`` and times the call.  A pass that took
    ``ceiling_s`` seconds or more becomes a fail; a fail keeps its detail.
    """
    def decorate(check: Callable[[random.Random], tuple[bool, str]]
                 ) -> Callable[[int], CriterionResult]:
        @functools.wraps(check)
        def run(seed: int) -> CriterionResult:
            start = time.monotonic_ns()
            passed, detail = check(random.Random(seed + 7919 * number))
            elapsed = time.monotonic_ns() - start
            if passed and ceiling_s is not None and elapsed >= ceiling_s * 10 ** 9:
                passed, detail = False, f"{detail}; runtime ceiling {ceiling_s}s exceeded"
            return CriterionResult(number, name, passed, detail, elapsed)
        return run
    return decorate


@_criterion(1, "truth-value laws", ceiling_s=30)
def criterion_1_truth_value_laws(rng: random.Random) -> tuple[bool, str]:
    """Reflexivity, symmetry, transitivity, and substitution, exactly."""
    trials = 334  # three fresh sets per trial: >= 1000 random B-valued sets
    checked = 0
    for _ in range(trials):
        algebra = FiniteBooleanAlgebra(_randint(rng, 2, 8))
        x = random_bset(rng, algebra)
        y = random_bset(rng, algebra)
        z = random_bset(rng, algebra)
        checked += 3
        if not truth_eq(x, x).is_one:
            return False, f"reflexivity failed on {x!r}"
        exy, eyx = truth_eq(x, y), truth_eq(y, x)
        if exy != eyx:
            return False, "symmetry failed"
        # the kernel reads stalk signatures, so symmetry holds by itself; the
        # defining recursion shares nothing with them
        if not exy.mask == eyx.mask == _defining_eq(x, y):
            return False, "equality disagrees with the recursion"
        eyz, exz = truth_eq(y, z), truth_eq(x, z)
        if not exy.meet(eyz).leq(exz):
            return False, "transitivity failed"
        if not exy.meet(truth_mem(y, z)).leq(truth_mem(x, z)):
            return False, "membership substitution failed"
        if not exy.meet(truth_mem(z, y)).leq(truth_mem(z, x)):
            return False, "element substitution failed"
    return True, f"{checked} random sets, all five laws exact"


@_criterion(2, "mixing principle")
def criterion_2_mixing_principle(rng: random.Random) -> tuple[bool, str]:
    trials = 1000
    for _ in range(trials):
        algebra = FiniteBooleanAlgebra(_randint(rng, 2, 6))
        parts = random_partition(rng, algebra)
        xs = [random_bset(rng, algebra, max_rank=2) for _ in parts]
        mixed = mix(parts, xs)
        for b, x in zip(parts, xs):
            if not b.leq(truth_eq(mixed, x)):
                return False, f"[[mix = x]] >= b failed for b={b!r}"
    return True, f"{trials} random (partition, family) pairs"


@_criterion(3, "restricted transfer")
def criterion_3_restricted_transfer(_rng: random.Random) -> tuple[bool, str]:
    outcomes = []
    for atoms in (2, 3):
        outcomes.extend(run_battery(FiniteBooleanAlgebra(atoms)))
    bad = [o for o in outcomes if not o.ok]
    if bad:
        return False, f"{len(bad)} battery failures, first: {bad[0].item.name}"
    return True, f"{len(outcomes)} battery evaluations agree classically and are two-valued"


@_criterion(4, "arrow cancellation")
def criterion_4_escher_rule(_rng: random.Random) -> tuple[bool, str]:
    algebra = FiniteBooleanAlgebra(2)
    names = [standard_name(algebra, n) for n in range(3)]
    subsets = [[names[i] for i in range(3) if mask >> i & 1] for mask in range(8)]
    for xs in subsets:
        if not bvu.escher_check(algebra, xs).ok:
            return False, f"failed for family of size {len(xs)}"
    return True, "all 8 families over {0^,1^,2^} verified modulo equivalence"


@_criterion(5, "projection/truth identities", ceiling_s=5)
def criterion_5_projection_truth_identities(rng: random.Random) -> tuple[bool, str]:
    trials = 1000
    for _ in range(trials):
        dim = _randint(rng, 1, 12)
        algebra = FiniteBooleanAlgebra(dim)
        b = random_boolelem(rng, algebra)
        x = random_vector(rng, dim)
        y = x if rng.random() < 0.2 else random_vector(rng, dim)
        if rng.random() < 0.3:
            # force partial coordinate agreement so both verdict branches occur
            swap = _randint(rng, 0, dim - 1)
            y = LatticeVector(y.coords[:swap] + (x.coords[swap],) + y.coords[swap + 1:])
        if not gordon_check(b, x, y).ok:
            return False, f"failed for b={b!r}, x={x!r}, y={y!r}"
    return True, f"{trials} random triples, both equivalences exact"


@_criterion(6, "multiplier recovery")
def criterion_6_multiplier_recovery(rng: random.Random) -> tuple[bool, str]:
    trials = 1000
    for _ in range(trials):
        dim = _randint(rng, 1, 8)
        diag = [_FRACTIONS[_randint(rng, -9, 9), _randint(rng, 1, 9)] for _ in range(dim)]
        m = ops.diagonal_matrix(diag)
        if not ops.is_band_preserving(m):
            return False, "diagonal flagged as non-preserving"
        g = ops.multiplier_of(m)
        x = random_vector(rng, dim)
        if ops.apply(m, x.coords) != g.mul(x).coords:
            return False, "T x != (T 1) * x"
    for _ in range(trials):
        dim = _randint(rng, 2, 8)
        rows = [[_FRACTIONS[_randint(rng, -3, 3), 1] for _ in range(dim)] for _ in range(dim)]
        i = _randint(rng, 0, dim - 1)
        j = (i + _randint(rng, 1, dim - 1)) % dim
        rows[i][j] = _FRACTIONS[_randint(rng, 1, 5), 1]  # guarantee an off-diagonal entry
        if ops.is_band_preserving(ops.matrix(rows)):
            return False, "non-diagonal accepted"
    return True, f"{trials} diagonal recoveries and {trials} non-diagonal rejections"


@_criterion(7, "no nontrivial derivations", ceiling_s=10)
def criterion_7_derivations_trivial(_rng: random.Random) -> tuple[bool, str]:
    for n in range(1, 9):
        space = ops.derivation_space(n)
        if space.dimension != 0:
            return False, f"nullspace dimension {space.dimension} at {n} atoms"
    return True, "exact nullspace dimension 0 for atom counts 1..8"


@_criterion(8, "endomorphism/automorphism classification")
def criterion_8_endomorphisms_and_automorphisms(rng: random.Random) -> tuple[bool, str]:
    trials = 1000
    for _ in range(trials):
        dim = _randint(rng, 1, 8)
        idem = [GaussianRational(_FRACTIONS[_randint(rng, 0, 1), 1]) for _ in range(dim)]
        verdict = ops.classify_endomorphism(ops.diagonal_matrix(idem))
        if verdict.kind != "band projection":
            return False, f"idempotent classified {verdict.kind!r}"
        expected_support = {i for i, c in enumerate(idem) if c.re == 1}
        if set(verdict.support.atoms) != expected_support:
            return False, "band projection support mismatch"
        # bijectivity triage: identity iff no zero on the diagonal
        auto = ops.automorphism_check(ops.diagonal_matrix(idem))
        expected = "identity" if all(c.re == 1 for c in idem) else "not bijective"
        if auto.kind != expected:
            return False, f"automorphism verdict {auto.kind!r}, expected {expected!r}"
        # non-idempotent diagonals must be rejected as not multiplicative
        while True:
            c = GaussianRational(_FRACTIONS[_randint(rng, 2, 9), _randint(rng, 1, 9)],
                                 _FRACTIONS[_randint(rng, 0, 3), 1])
            if c * c != c:
                break
        bad = ops.diagonal_matrix([c] + idem[1:])
        if ops.classify_endomorphism(bad).kind != "not multiplicative":
            return False, "non-idempotent accepted as multiplicative"
    return True, (f"{trials} trials: idempotents are 0/1 band projections; "
                  "bijective ones are the identity")


@_criterion(9, "bilinear classification")
def criterion_9_bilinear_classification(rng: random.Random) -> tuple[bool, str]:
    trials = 1000
    for _ in range(trials):
        dim = _randint(rng, 1, 6)
        w = [_FRACTIONS[_randint(rng, -9, 9), _randint(rng, 1, 9)] for _ in range(dim)]
        entries = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for q in range(dim):
            entries[q][q][q] = w[q]
        t = ops.tensor(entries)
        report = ops.bilinear_report(t)
        if not (report.separately_band_preserving and report.symmetric
                and report.orthosymmetric):
            return False, "diagonal tensor misclassified"
        if report.multiplier.coords != tuple(w):
            return False, "multiplier mismatch"
        x = random_vector(rng, dim)
        y = random_vector(rng, dim)
        if ops.bilinear_apply(t, x.coords, y.coords) != report.multiplier.mul(x).mul(y).coords:
            return False, "b(x,y) != w*x*y"
    rejected = 0
    for _ in range(200):
        dim = _randint(rng, 2, 5)
        entries = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        nonzero = False
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(dim):
                    v = _FRACTIONS[_randint(rng, -2, 2), 1]
                    entries[i][j][k] = v
                    entries[j][i][k] = -v
                    nonzero = nonzero or v != 0
        t = ops.tensor(entries)
        if nonzero:
            if ops.is_separately_band_preserving(t):
                return False, "nonzero antisymmetric tensor accepted"
            rejected += 1
    return True, (f"{trials} diagonal tensors classified; "
                  f"{rejected} nonzero antisymmetric candidates rejected")


@_criterion(10, "distributivity criteria")
def criterion_10_distributivity_criteria(rng: random.Random) -> tuple[bool, str]:
    elements = list(FiniteBooleanAlgebra(2).elements())
    count = 0
    for rows in (1, 2):
        for cols in (1, 2):
            for flat in itertools.product(elements, repeat=rows * cols):
                combo = [list(flat[r * cols:(r + 1) * cols]) for r in range(rows)]
                if not sigma_criteria_check(combo).all_hold:
                    return False, f"exhaustive case failed: {combo}"
                count += 1
    for _ in range(1000):
        a = FiniteBooleanAlgebra(_randint(rng, 2, 4))
        matrix = [[random_boolelem(rng, a) for _ in range(3)] for _ in range(3)]
        if not sigma_criteria_check(matrix).all_hold:
            return False, "random 3x3 case failed"
        count += 1
    return True, f"{count} cases: all three finitized forms hold and agree"


@_criterion(11, "refined function")
def criterion_11_refined_function(rng: random.Random) -> tuple[bool, str]:
    algebra = FiniteBooleanAlgebra(4)
    fixture_covers = [
        [algebra.element([0, 1]), algebra.element([2, 3])],
        [algebra.element([0, 2]), algebra.element([1, 3])],
    ]
    result = refinement.refine_report(algebra, fixture_covers)
    expected = (Fraction(0), Fraction(1, 9), Fraction(1, 3), Fraction(4, 9))
    if result.g.coords != expected:
        return False, f"fixture produced g = {result.g!r}"
    if not result.ok:
        return False, "fixture certificates failed"
    for _ in range(100):
        a = FiniteBooleanAlgebra(_randint(rng, 2, 12))
        covers = [random_cover(rng, a) for _ in range(_randint(rng, 1, 5))]
        rep = refinement.refine_report(a, covers)
        if not all(rep.certificates):
            return False, "g not refined from an input cover"
        if not all(s.ok for s in rep.separations):
            bad = next(s for s in rep.separations if not s.ok)
            return False, f"separation bound failed at pair {bad.atom_pair}"
    return True, ("fixture g = (0, 1/9, 1/3, 4/9); 100 random suites refined with "
                  "exact separation bounds")


@_criterion(12, "pseudo-intersection")
def criterion_12_pseudo_intersection(_rng: random.Random) -> tuple[bool, str]:
    for name, factory in pnfin.BUILTIN_CHAINS.items():
        result = pnfin.pseudo_intersection(factory(), count=50, horizon=10_000)
        if any(a >= b for a, b in zip(result.elements, result.elements[1:])):
            return False, f"{name}: output not increasing"
        if not result.tail_membership_ok:
            return False, f"{name}: m_k in b_n failed"
    return True, "three built-in chains at count 50, horizon 10^4"


@_criterion(13, "continued fractions")
def criterion_13_continued_fractions(rng: random.Random) -> tuple[bool, str]:
    for _ in range(1000):
        den = _randint(rng, 2, 10_000)
        num = _randint(rng, 1, den - 1)
        t = Fraction(num, den)
        pq = contfrac.expand(contfrac.QuadraticSurd.from_fraction(t))
        if contfrac.convergent(pq, len(pq)) != t:
            return False, f"round trip failed for {t}"
    sqrt2m1 = contfrac.QuadraticSurd(-1, 1, 1, 2)
    pq = contfrac.expand(sqrt2m1)
    if pq.preperiod != () or pq.period != (2,):
        return False, f"sqrt(2)-1 expanded to {pq.to_json()}"
    for k in range(1, 11):
        if not contfrac.convergent_error_within(sqrt2m1, k, pq):
            return False, f"|t - p_k/q_k| < 1/q_k^2 failed at k={k}"
    return True, ("1000 exact round trips; sqrt(2)-1 has period [2]; "
                  "convergent error bound verified for k <= 10")


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
