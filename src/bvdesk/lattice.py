"""Finite atomic vector lattices over exact rationals.

A vector is a total assignment of rationals to atoms; order, lattice
operations, and the f-algebra product are coordinatewise, with the all-ones
vector as ring unity.  Band projections are coordinate maskings by atom
subsets, so the projection algebra is the finite Boolean algebra shared
with :mod:`bvdesk.boolalg`.

The truth value [[x = y]] of equality (and of order) is the atom set where
the relation holds coordinatewise, and the two defining identities of the
projection/truth-value correspondence

    chi(b) x = chi(b) y   <=>   b <= [[x = y]]
    chi(b) x <= chi(b) y  <=>   b <= [[x <= y]]

are checkable exactly.  Rationals stand in for reals throughout: every
identity exercised here is field-independent and needs decidable equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import bvu
from .boolalg import BoolElem, FiniteBooleanAlgebra
from .ratlinalg import rank


#: Largest decimal exponent a rational string may carry, as in '1e-4300'.
#: Past it the power of ten alone has more digits than Python's default
#: int-to-str limit, and ``Fraction`` would spend time building it first.
MAX_EXPONENT = 4300
_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]+)")


def rat(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an int, a Fraction, or a 'p/q' string.

    A string in exponent notation whose exponent exceeds
    :data:`MAX_EXPONENT` in magnitude is refused before it is expanded.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    text = value.strip()
    exponent = _EXPONENT_RE.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"a rational's exponent may be at most {MAX_EXPONENT} "
                             f"in magnitude")
    return Fraction(text)


@dataclass(frozen=True)
class AtomicLattice:
    """Configuration object tying vectors to a fixed atom count."""

    atom_count: int

    def __post_init__(self) -> None:
        if self.atom_count < 1:
            raise ValueError("atom_count must be a positive integer")

    @property
    def algebra(self) -> FiniteBooleanAlgebra:
        return FiniteBooleanAlgebra(self.atom_count)

    def vector(self, coords: Iterable[int | str | Fraction]) -> "LatticeVector":
        v = LatticeVector(tuple(rat(c) for c in coords))
        if len(v.coords) != self.atom_count:
            raise ValueError(f"expected {self.atom_count} coordinates")
        return v

    def unity(self) -> "LatticeVector":
        return LatticeVector(tuple(Fraction(1) for _ in range(self.atom_count)))

    def zero(self) -> "LatticeVector":
        return LatticeVector(tuple(Fraction(0) for _ in range(self.atom_count)))


@dataclass(frozen=True)
class LatticeVector:
    """A vector in the pointwise f-algebra on the atoms."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(
            c if type(c) is Fraction else Fraction(c) for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def algebra(self) -> FiniteBooleanAlgebra:
        return FiniteBooleanAlgebra(self.dim)

    def _check(self, other: "LatticeVector") -> None:
        if other.dim != self.dim:
            raise ValueError("vectors have different atom counts")

    # -- vector space and lattice structure ---------------------------------

    def add(self, other: "LatticeVector") -> "LatticeVector":
        self._check(other)
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def sub(self, other: "LatticeVector") -> "LatticeVector":
        self._check(other)
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: int | str | Fraction) -> "LatticeVector":
        c = rat(c)
        return LatticeVector(tuple(c * a for a in self.coords))

    def sup(self, other: "LatticeVector") -> "LatticeVector":
        self._check(other)
        return LatticeVector(tuple(max(a, b) for a, b in zip(self.coords, other.coords)))

    def inf(self, other: "LatticeVector") -> "LatticeVector":
        self._check(other)
        return LatticeVector(tuple(min(a, b) for a, b in zip(self.coords, other.coords)))

    def abs(self) -> "LatticeVector":
        return LatticeVector(tuple(a if a >= 0 else -a for a in self.coords))

    def mul(self, other: "LatticeVector") -> "LatticeVector":
        """The f-algebra product: coordinatewise multiplication."""
        self._check(other)
        return LatticeVector(tuple(a * b for a, b in zip(self.coords, other.coords)))

    __add__ = add
    __sub__ = sub
    __mul__ = mul

    def band_project(self, support: BoolElem) -> "LatticeVector":
        """Zero out coordinates outside the support atom set."""
        if support.algebra.atom_count != self.dim:
            raise ValueError("projection support lives over a different atom set")
        return LatticeVector(tuple(a if support.mask >> i & 1 else Fraction(0)
                                   for i, a in enumerate(self.coords)))

    def is_nonneg(self) -> bool:
        return all(a >= 0 for a in self.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def support(self) -> BoolElem:
        return self.algebra.element(i for i, a in enumerate(self.coords) if a != 0)

    def disjoint(self, other: "LatticeVector") -> bool:
        """Lattice disjointness |x| ^ |y| = 0."""
        self._check(other)
        return self.support().meet(other.support()).is_zero

    def leq(self, other: "LatticeVector") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_json(self) -> dict:
        return {"coords": [str(c) for c in self.coords]}

    @staticmethod
    def from_json(obj: dict) -> "LatticeVector":
        if not isinstance(obj, dict) or "coords" not in obj:
            raise ValueError('LatticeVector JSON must be {"coords": ["p/q", ...]}')
        return LatticeVector(tuple(rat(c) for c in obj["coords"]))


# -- truth values and the projection correspondence ---------------------------


def truth_vec(x: LatticeVector, y: LatticeVector, rel: str = "=") -> BoolElem:
    """[[x = y]] or [[x <= y]]: the atom set where the relation holds."""
    x._check(y)
    algebra = x.algebra
    if rel == "=":
        return algebra.element(i for i, (a, b) in enumerate(zip(x.coords, y.coords))
                               if a == b)
    if rel in ("<=", "le"):
        return algebra.element(i for i, (a, b) in enumerate(zip(x.coords, y.coords))
                               if a <= b)
    raise ValueError(f"unknown relation {rel!r}; use '=' or '<='")


@dataclass(frozen=True)
class GordonReport:
    eq_ok: bool
    le_ok: bool

    @property
    def ok(self) -> bool:
        return self.eq_ok and self.le_ok

    def to_json(self) -> dict:
        return {"eq_ok": self.eq_ok, "le_ok": self.le_ok, "ok": self.ok}


def gordon_check(b: BoolElem, x: LatticeVector, y: LatticeVector) -> GordonReport:
    """Verify both projection/truth-value equivalences for one triple."""
    eq_lhs = x.band_project(b) == y.band_project(b)
    eq_rhs = b.leq(truth_vec(x, y, "="))
    le_lhs = x.band_project(b).leq(y.band_project(b))
    le_rhs = b.leq(truth_vec(x, y, "<="))
    return GordonReport(eq_ok=eq_lhs == eq_rhs, le_ok=le_lhs == le_rhs)


# -- complexification ----------------------------------------------------------


@dataclass(frozen=True)
class ComplexVector:
    """Complexification: a pair of real vectors, multiplied like complexes."""

    re: LatticeVector
    im: LatticeVector

    def __post_init__(self) -> None:
        self.re._check(self.im)

    @property
    def dim(self) -> int:
        return self.re.dim

    def mul(self, other: "ComplexVector") -> "ComplexVector":
        return ComplexVector(
            re=self.re.mul(other.re).sub(self.im.mul(other.im)),
            im=self.re.mul(other.im).add(other.re.mul(self.im)),
        )

    __mul__ = mul

    def add(self, other: "ComplexVector") -> "ComplexVector":
        return ComplexVector(self.re.add(other.re), self.im.add(other.im))

    def abs_sq(self) -> LatticeVector:
        """The squared modulus re^2 + im^2, kept rational.

        The modulus itself needs square roots; all band and disjointness
        structure depends only on supports, for which the square suffices
        (s(x, y)^2 = x^2 + y^2 in any square-mean closed f-algebra).
        """
        return self.re.mul(self.re).add(self.im.mul(self.im))

    def disjoint(self, other: "ComplexVector") -> bool:
        """Complex disjointness: {re, im} is disjoint from {re', im'}."""
        return (self.re.disjoint(other.re) and self.re.disjoint(other.im)
                and self.im.disjoint(other.re) and self.im.disjoint(other.im))

    def to_json(self) -> dict:
        return {"re": self.re.to_json(), "im": self.im.to_json()}


# -- local constancy -----------------------------------------------------------


@dataclass(frozen=True)
class LocalConstancyReport:
    """Witness for e = sup of scalar multiples of f over disjoint supports."""

    ok: bool
    witness: tuple[tuple[BoolElem, Fraction], ...]
    failure_atom: int | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "witness": [[b.to_json(), str(c)] for b, c in self.witness],
            "failure_atom": self.failure_atom,
        }


def is_locally_constant(e: LatticeVector, f: LatticeVector) -> LocalConstancyReport:
    """Decide whether e is a mixing of scalar multiples of f.

    Atoms are grouped by the ratio e(q)/f(q); wherever f vanishes, e must
    vanish too, else no family of multiples can reach e there.
    """
    e._check(f)
    if not e.is_nonneg() or not f.is_nonneg():
        raise ValueError("local constancy is defined for nonnegative vectors")
    groups: dict[Fraction, list[int]] = {}
    for q, (ev, fv) in enumerate(zip(e.coords, f.coords)):
        if fv == 0:
            if ev != 0:
                return LocalConstancyReport(ok=False, witness=(), failure_atom=q)
            continue
        groups.setdefault(ev / fv, []).append(q)
    algebra = e.algebra
    witness = tuple((algebra.element(atoms), lam)
                    for lam, atoms in sorted(groups.items()))
    return LocalConstancyReport(ok=True, witness=witness)


# -- local linear independence and local Hamel expansion -----------------------


def is_locally_linearly_independent(vectors: Sequence[LatticeVector]) -> bool:
    """Local linear independence over all nonzero band projections.

    For each nonzero atom subset, the set of distinct nonzero projections
    of the family must be linearly independent (checked by exact rank).
    Single atoms alone do not suffice: {(1,0), (1,1), (0,1)} passes every
    single-atom check yet the full projection admits e1 - e2 + e3 = 0, so
    all 2^n - 1 subsets are examined.
    """
    if not vectors:
        return True
    dim = vectors[0].dim
    for v in vectors:
        v._check(vectors[0])
    algebra = FiniteBooleanAlgebra(dim)
    for mask in range(1, algebra.full_mask + 1):
        pi = algebra.from_mask(mask)
        projections = {v.band_project(pi).coords for v in vectors}
        projections.discard(tuple(Fraction(0) for _ in range(dim)))
        if not projections:
            continue
        rows = sorted(projections)
        if rank(rows) < len(rows):
            return False
    return True


def is_local_hamel_basis(vectors: Sequence[LatticeVector]) -> bool:
    """Maximal locally linearly independent family.

    On a finite atomic lattice maximality is equivalent to every atom
    seeing a nonzero value from some member: exactly then does every
    vector admit a partition-indexed expansion over the family.
    """
    if not vectors:
        return False
    dim = vectors[0].dim
    every_atom_covered = all(any(v.coords[q] != 0 for v in vectors)
                             for q in range(dim))
    return every_atom_covered and is_locally_linearly_independent(vectors)


@dataclass(frozen=True)
class HamelExpansion:
    """A partition of unity with one-entry coefficient rows per block."""

    blocks: tuple[tuple[BoolElem, int, Fraction], ...]  # (support, basis index, coeff)

    def reconstruct(self, basis: Sequence[LatticeVector], dim: int) -> LatticeVector:
        total = LatticeVector(tuple(Fraction(0) for _ in range(dim)))
        for support, idx, coeff in self.blocks:
            total = total.add(basis[idx].band_project(support).scale(coeff))
        return total

    def to_json(self) -> list:
        return [{"support": b.to_json(), "basis_index": i, "coefficient": str(c)}
                for b, i, c in self.blocks]


def local_hamel_expand(x: LatticeVector, basis: Sequence[LatticeVector]) -> HamelExpansion:
    """Expand x over a local Hamel basis.

    Per atom, the first basis member with a nonzero value there carries the
    whole coefficient (all nonzero values at one atom coincide for a
    locally linearly independent family, so the choice only affects which
    member is named, not the reproduced vector).  Atoms are grouped into
    blocks by (member, coefficient); the blocks partition unity.
    """
    if not is_local_hamel_basis(basis):
        raise ValueError("family is not a local Hamel basis for this lattice")
    basis[0]._check(x)
    assignment: dict[tuple[int, Fraction], list[int]] = {}
    for q in range(x.dim):
        idx = next(i for i, e in enumerate(basis) if e.coords[q] != 0)
        coeff = x.coords[q] / basis[idx].coords[q]
        assignment.setdefault((idx, coeff), []).append(q)
    algebra = x.algebra
    blocks = tuple((algebra.element(atoms), idx, coeff)
                   for (idx, coeff), atoms in sorted(assignment.items()))
    return HamelExpansion(blocks=blocks)


# -- bridge to the Boolean-valued universe -------------------------------------


def _hf_int(n: int) -> frozenset:
    """Integer as a (sign, magnitude) pair of von Neumann naturals."""
    sign = bvu.hf_literal(0 if n >= 0 else 1)
    return _hf_pair(sign, bvu.hf_literal(abs(n)))


def _hf_pair(a: frozenset, b: frozenset) -> frozenset:
    return frozenset({frozenset({a}), frozenset({a, b})})


def _hf_rational(c: Fraction) -> frozenset:
    """Injective hereditarily finite encoding of a rational in lowest terms."""
    return _hf_pair(_hf_int(c.numerator), bvu.hf_literal(c.denominator))


def encode_as_bset(x: LatticeVector) -> bvu.BSet:
    """Encode a vector as the mixing of standard names of its coordinates.

    Each atom contributes the standard name of its rational coordinate,
    mixed over the partition into atoms.  Distinct rationals get standard
    names with equality truth value 0, so [[enc(x) = enc(y)]] equals the
    atom set where the coordinates agree, matching ``truth_vec(x, y, '=')``.
    Coordinate encodings grow in rank with numerator and denominator size,
    and ``bvu.RANK_CAP`` bounds them: raise it to encode large entries.
    """
    algebra = x.algebra
    names = [bvu.standard_name(algebra, _hf_rational(c)) for c in x.coords]
    atom_blocks = tuple(algebra.atom(i) for i in range(algebra.atom_count))
    return bvu.mix(atom_blocks, names)
