"""Exact continued fractions for rationals and quadratic surds.

Values are represented as (p + q*sqrt(d)) / r with integer p, q, r and
squarefree d, so every comparison reduces to integer sign analysis and no
floating point enters anywhere.  Rational expansions terminate (Euclid's
algorithm yields the canonical form with final quotient >= 2, making the
expansion injective); surd expansions are eventually periodic and the
period is detected by recurrence of the canonicalized surd state under the
Gauss map.

Indexing follows the Gauss map: for t in (0, 1),

    a(1) = floor(1/t),  t' = 1/t - a(1),  ...

which matches the displayed value t = 1/(a(1) + 1/(a(2) + ...)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boolalg import Partition
from .lattice import LatticeVector


#: Largest radicand the public constructor accepts: its squarefree split is
#: trial division up to sqrt(d), about 10^6 steps at the cap.
RADICAND_CAP = 10 ** 12


def _squarefree_split(d: int) -> tuple[int, int]:
    """Write d = f^2 * d0 with d0 squarefree; returns (f, d0)."""
    if d < 1:
        raise ValueError("the radicand must be a positive integer")
    if d > RADICAND_CAP:
        raise ValueError(f"the radicand {d} exceeds the cap {RADICAND_CAP}")
    f = 1
    d0 = d
    k = 2
    while k * k <= d0:
        while d0 % (k * k) == 0:
            d0 //= k * k
            f *= k
        k += 1
    return f, d0


@dataclass(frozen=True)
class QuadraticSurd:
    """The exact value (p + q*sqrt(d)) / r, canonicalized on construction.

    Canonical form: d squarefree (square factors folded into q; d = 1 is
    folded into p, so q = 0 exactly for rationals), gcd(p, q, r) = 1, and
    r > 0.
    """

    p: int
    q: int
    r: int
    d: int

    def __post_init__(self) -> None:
        f, d0 = _squarefree_split(self.d)
        self._normalize(self.p, self.q * f, self.r, d0)

    def _normalize(self, p: int, q: int, r: int, d: int) -> None:
        """Store the canonical form of (p + q*sqrt(d))/r for squarefree d."""
        if r == 0:
            raise ValueError("denominator r must be nonzero")
        if d == 1:
            p, q = p + q, 0
            # keep d = 1 as the rational marker
        if q == 0:
            d = 1
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, q, r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "d", d)

    def _same_radicand(self, p: int, q: int, r: int) -> "QuadraticSurd":
        """The canonical (p + q*sqrt(self.d))/r, skipping the squarefree split.

        Every surd derived from this one shares its already squarefree
        radicand, so only user input pays for the split.
        """
        surd = object.__new__(QuadraticSurd)
        surd._normalize(p, q, r, self.d)
        return surd

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_fraction(value: Fraction | int | str) -> "QuadraticSurd":
        f = Fraction(value)
        return QuadraticSurd(f.numerator, 0, f.denominator, 1)

    @staticmethod
    def sqrt_of(d: int) -> "QuadraticSurd":
        return QuadraticSurd(0, 1, 1, d)

    # -- predicates and conversions -------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("irrational surd has no Fraction value")
        return Fraction(self.p, self.r)

    # -- exact sign analysis ---------------------------------------------------

    def sign(self) -> int:
        """Sign of the value: -1, 0, or +1, by integer arithmetic only."""
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # p and q have opposite signs; compare p^2 with q^2 d
        lhs, rhs = p * p, q * q * d
        if p > 0:  # q < 0
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def compare_fraction(self, value: Fraction | int) -> int:
        """Sign of (self - value)."""
        return self.sub_fraction(value).sign()

    def abs_value(self) -> "QuadraticSurd":
        if self.sign() < 0:
            return self._same_radicand(-self.p, -self.q, self.r)
        return self

    # -- arithmetic used by the Gauss map ---------------------------------------

    def reciprocal(self) -> "QuadraticSurd":
        if self.sign() == 0:
            raise ZeroDivisionError("reciprocal of zero")
        p, q, r, d = self.p, self.q, self.r, self.d
        if q == 0:
            return self._same_radicand(r, 0, p)
        norm = p * p - q * q * d  # nonzero: sqrt(d) is irrational
        return self._same_radicand(r * p, -r * q, norm)

    def sub_int(self, n: int) -> "QuadraticSurd":
        return self._same_radicand(self.p - n * self.r, self.q, self.r)

    def sub_fraction(self, value: Fraction | int) -> "QuadraticSurd":
        f = Fraction(value)
        return self._same_radicand(self.p * f.denominator - f.numerator * self.r,
                                   self.q * f.denominator,
                                   self.r * f.denominator)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"({self.p}/{self.r})"
        return f"(({self.p}+{self.q}*sqrt({self.d}))/{self.r})"

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "r": self.r, "d": self.d}


def integer_part(alpha: QuadraticSurd) -> int:
    """Floor of a positive value: the unique natural n with n <= a < n+1."""
    if alpha.sign() <= 0:
        raise ValueError("integer_part is defined for positive values only")
    if alpha.is_rational:
        return alpha.p // alpha.r
    # initial guess from integer sqrt bounds, then exact adjustment
    root = math.isqrt(alpha.q * alpha.q * alpha.d)
    approx_num = alpha.p + (root if alpha.q > 0 else -(root + 1))
    n = approx_num // alpha.r
    while alpha.compare_fraction(n) < 0:
        n -= 1
    while alpha.compare_fraction(n + 1) >= 0:
        n += 1
    return n


@dataclass(frozen=True)
class PartialQuotients:
    """A continued fraction expansion: finite preperiod, repeating period.

    Rational expansions have an empty period; the canonical form ends with
    a quotient >= 2 so the expansion map is injective on (0, 1).
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if any(a < 1 for a in self.preperiod + self.period):
            raise ValueError("partial quotients must be >= 1")

    @property
    def is_finite(self) -> bool:
        return not self.period

    def __len__(self) -> int:
        if not self.is_finite:
            raise ValueError("periodic expansion has no finite length")
        return len(self.preperiod)

    def prefix(self, k: int) -> tuple[int, ...]:
        """The first k quotients, unrolling the period on demand."""
        if k <= len(self.preperiod):
            return self.preperiod[:k]
        if self.is_finite:
            raise ValueError(
                f"requested {k} quotients but the expansion has {len(self.preperiod)}")
        need = k - len(self.preperiod)
        reps = -(-need // len(self.period))
        return (self.preperiod + self.period * reps)[:k]

    def to_json(self) -> dict:
        return {"preperiod": list(self.preperiod), "period": list(self.period)}


class PeriodDetectionError(RuntimeError):
    """Raised when a surd expansion exceeds the state cap before cycling."""


def expand(t: QuadraticSurd, max_states: int = 10_000) -> PartialQuotients:
    """Continued fraction expansion of t in (0, 1).

    Rational t terminates by Euclid's algorithm; irrational t iterates the
    Gauss map on canonical surd states until a state repeats, which must
    happen (within a bound controlled by the discriminant data) and is
    enforced by ``max_states``.
    """
    if t.compare_fraction(0) <= 0 or t.compare_fraction(1) >= 0:
        raise ValueError("expansion requires 0 < t < 1")
    if t.is_rational:
        num, den = t.p, t.r  # t = num/den < 1 in lowest terms
        quotients = []
        a, b = den, num
        while b:
            quotients.append(a // b)
            a, b = b, a % b
        return PartialQuotients(tuple(quotients), ())
    seen: dict[tuple[int, int, int, int], int] = {}
    state = t
    quotients: list[int] = []
    while True:
        key = (state.p, state.q, state.r, state.d)
        if key in seen:
            start = seen[key]
            return PartialQuotients(tuple(quotients[:start]), tuple(quotients[start:]))
        if len(seen) >= max_states:
            raise PeriodDetectionError(
                f"no period within {max_states} surd states")
        seen[key] = len(quotients)
        u = state.reciprocal()
        a = integer_part(u)
        quotients.append(a)
        state = u.sub_int(a)


def convergent_pair(a: PartialQuotients | Sequence[int], k: int) -> tuple[int, int]:
    """Numerator and denominator of the k-th convergent of 1/(a1 + 1/(...)).

    Standard three-term recurrences with a leading integer part of zero.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    terms = a.prefix(k) if isinstance(a, PartialQuotients) else tuple(a[:k])
    if len(terms) < k:
        raise ValueError(f"requested convergent {k} of a length-{len(terms)} expansion")
    h_prev, h = 1, 0  # h_{-1}, h_0 for the value 0 + 1/(a1 + ...)
    k_prev, k_cur = 0, 1
    for quot in terms:
        h_prev, h = h, quot * h + h_prev
        k_prev, k_cur = k_cur, quot * k_cur + k_prev
    return h, k_cur


def convergent(a: PartialQuotients | Sequence[int], k: int) -> Fraction:
    num, den = convergent_pair(a, k)
    return Fraction(num, den)


def convergent_error_within(t: QuadraticSurd, k: int,
                            expansion: PartialQuotients | None = None) -> bool:
    """Exact check of |t - p_k/q_k| < 1/q_k^2 by surd sign analysis."""
    pq = expansion if expansion is not None else expand(t)
    num, den = convergent_pair(pq, k)
    err = t.sub_fraction(Fraction(num, den)).abs_value()
    return err.compare_fraction(Fraction(1, den * den)) < 0


# -- atomwise mixed expansions ---------------------------------------------------


@dataclass(frozen=True)
class MixedExpansion:
    """Atom-indexed table of expansions of a mixed family of values.

    ``rows[i]`` is the quotient row of the i-th partition block, truncated
    at ``depth`` (shorter when the value is rational with fewer quotients).
    """

    parts: Partition
    rows: tuple[tuple[int, ...], ...]
    depth: int

    def row_for_atom(self, atom: int) -> tuple[int, ...]:
        for block, row in zip(self.parts, self.rows):
            if block.mask >> atom & 1:
                return row
        raise ValueError(f"atom {atom} not covered by the partition")

    def step_vector(self, n: int) -> LatticeVector:
        """The n-th quotients (1-based) as a vector; 0 marks a terminated row."""
        atom_count = self.parts.algebra.atom_count
        coords = []
        for q in range(atom_count):
            row = self.row_for_atom(q)
            coords.append(Fraction(row[n - 1]) if n <= len(row) else Fraction(0))
        return LatticeVector(tuple(coords))

    def to_json(self) -> dict:
        return {"depth": self.depth, "rows": [list(r) for r in self.rows]}


def mixed_expansion(parts: Partition, ts: Sequence[QuadraticSurd],
                    depth: int) -> MixedExpansion:
    """Expand each value to ``depth`` quotients and assemble the atom table.

    Expanding each piece and assembling commutes with assembling first and
    reading the expansion off per atom; ``verify_mixed_expansion`` checks
    this by recomputing per-atom expansions through the step vectors.
    """
    if len(parts) != len(ts):
        raise ValueError(f"partition has {len(parts)} blocks but {len(ts)} values given")
    rows = []
    for t in ts:
        pq = expand(t)
        if pq.is_finite and len(pq.preperiod) < depth:
            rows.append(pq.preperiod)
        else:
            rows.append(pq.prefix(depth))
    return MixedExpansion(parts=parts, rows=tuple(rows), depth=depth)


def verify_mixed_expansion(me: MixedExpansion, ts: Sequence[QuadraticSurd]) -> bool:
    """Per atom, the step-vector column equals the fresh expansion of the
    value mixed onto that atom."""
    atom_count = me.parts.algebra.atom_count
    vectors = [me.step_vector(n) for n in range(1, me.depth + 1)]
    for q in range(atom_count):
        block_index = next(i for i, b in enumerate(me.parts) if b.mask >> q & 1)
        pq = expand(ts[block_index])
        if pq.is_finite and len(pq.preperiod) < me.depth:
            expected = pq.preperiod
        else:
            expected = pq.prefix(me.depth)
        column = tuple(int(v.coords[q]) for v in vectors[:len(expected)])
        if column != expected:
            return False
        # beyond a terminated row the sentinel 0 must appear
        if any(int(v.coords[q]) != 0 for v in vectors[len(expected):]):
            return False
    return True
