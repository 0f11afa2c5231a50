"""Band preserving linear and bilinear operators on the atomic f-algebra.

Operators are matrices in atom coordinates (exact rationals, or Gaussian
rationals for the complexified algebra).  On a finite atomic lattice an
operator commutes with every band projection exactly when its matrix is
diagonal, so band preservation is decidable by inspection.  The 2^n
commutation tests (one per band projection) are the reference the tests
check the diagonal criteria against; they live in ``tests/test_operators.py``.

The classification results are computed, not assumed: the derivation
module sets up the exact linear system imposed by the Leibniz rule on the
atom idempotents and reports a basis of its solution space (always empty
here); endomorphism and automorphism verdicts follow the idempotent
computation c^2 = c through its real and imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boolalg import BoolElem, FiniteBooleanAlgebra
from .lattice import LatticeVector, rat
from .ratlinalg import nullspace_basis


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex scalar with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value: "GaussianRational | Fraction | int | str") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(rat(value))

    def __add__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    def __sub__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, str)):
            other = GaussianRational.of(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self) -> str:
        return f"({str(self.re)}+{str(self.im)}i)"

    def to_json(self) -> list[str]:
        return [str(self.re), str(self.im)]


Scalar = Fraction | GaussianRational
Matrix = tuple[tuple[Scalar, ...], ...]
ZERO = Fraction(0)


def matrix(rows: Sequence[Sequence]) -> Matrix:
    """Normalize nested input into a square matrix of exact scalars.

    Entries may be ints, 'p/q' strings, Fractions, or [re, im] pairs for
    Gaussian rationals; a single complex entry makes the matrix complex.
    """
    out = []
    has_complex = any(isinstance(e, (list, tuple, GaussianRational))
                      for row in rows for e in row)
    for row in rows:
        entries = []
        for e in row:
            if isinstance(e, (list, tuple)):
                if len(e) != 2:
                    raise ValueError("complex entries are [re, im] pairs")
                entries.append(GaussianRational(rat(e[0]), rat(e[1])))
            elif isinstance(e, GaussianRational):
                entries.append(e)
            elif has_complex:
                entries.append(GaussianRational(rat(e)))
            else:
                entries.append(rat(e))
        out.append(tuple(entries))
    n = len(out)
    if any(len(row) != n for row in out):
        raise ValueError("operator matrices must be square")
    return tuple(out)


def is_complex_matrix(m: Matrix) -> bool:
    return any(isinstance(e, GaussianRational) for row in m for e in row)


def diagonal_matrix(diag: Sequence[Scalar]) -> Matrix:
    n = len(diag)
    entries: Sequence[Scalar] = diag
    zero: Scalar = ZERO
    if any(isinstance(d, GaussianRational) for d in diag):
        entries = [GaussianRational.of(d) for d in diag]
        zero = GaussianRational(ZERO)
    return tuple(tuple(entries[i] if i == j else zero for j in range(n))
                 for i in range(n))


def apply(m: Matrix, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
    if len(vec) != len(m):
        raise ValueError("dimension mismatch")
    return tuple(sum((row[j] * vec[j] for j in range(len(vec))),
                     start=row[0] * 0) for row in m)


def _is_zero(x: Scalar) -> bool:
    return x.is_zero if isinstance(x, GaussianRational) else x == 0


def is_band_preserving(m: Matrix) -> bool:
    """Commutes with every band projection, i.e. the matrix is diagonal."""
    return all(_is_zero(m[i][j]) for i in range(len(m)) for j in range(len(m))
               if i != j)


def multiplier_of(m: Matrix) -> LatticeVector:
    """The multiplier g = T(1) of a band preserving real operator.

    T acts as multiplication by g; the identity T e_i = g_i e_i is verified
    on the atom basis before returning.
    """
    if is_complex_matrix(m):
        raise ValueError("multiplier_of expects a real matrix; see classify_endomorphism")
    if not is_band_preserving(m):
        raise ValueError("operator is not band preserving; no multiplier exists")
    n = len(m)
    g = apply(m, tuple(Fraction(1) for _ in range(n)))
    for i in range(n):
        basis = tuple(Fraction(1 if j == i else 0) for j in range(n))
        image = apply(m, basis)
        if image != tuple(g[j] * basis[j] for j in range(n)):
            raise AssertionError("diagonal operator failed multiplier verification")
    return LatticeVector(tuple(g))


# -- derivations ---------------------------------------------------------------


@dataclass(frozen=True)
class DerivationSpace:
    """Solution space of the Leibniz constraints on the idempotent basis."""

    atom_count: int
    basis: tuple[Matrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {"atom_count": self.atom_count, "dimension": self.dimension}


def derivation_space(n: int) -> DerivationSpace:
    """Exact nullspace of the derivation equations for n atoms.

    Unknowns are the n^2 matrix entries d[k][i] of D (column i is D e_i).
    The Leibniz rule D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on the atom
    idempotents (e_i e_j = delta_ij e_i) gives, per coordinate k:

        delta_ij * d[k][i] - delta_kj * d[j][i] - delta_ki * d[i][j] = 0

    The pointwise f-algebra admits only the zero derivation, so the
    reported dimension is 0 for every n; the computation does not assume
    this.
    """
    if n < 1:
        raise ValueError("atom count must be positive")

    def unknown(k: int, i: int) -> int:
        return k * n + i

    rows: list[list[Fraction]] = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                if i == j:
                    row[unknown(k, i)] += 1
                if k == j:
                    row[unknown(j, i)] -= 1
                if k == i:
                    row[unknown(i, j)] -= 1
                if any(row):
                    rows.append(row)
    kernel = nullspace_basis(rows, n * n)
    mats = tuple(tuple(tuple(vec[unknown(k, i)] for i in range(n))
                       for k in range(n)) for vec in kernel)
    return DerivationSpace(atom_count=n, basis=mats)


# -- endomorphisms and automorphisms -------------------------------------------


@dataclass(frozen=True)
class EndomorphismVerdict:
    kind: str  # "band projection" | "not multiplicative" | "not band preserving"
    support: BoolElem | None = None
    multiplier: tuple[GaussianRational, ...] | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "support": self.support.to_json() if self.support else None,
            "multiplier": [c.to_json() for c in self.multiplier] if self.multiplier else None,
        }


def classify_endomorphism(m: Matrix) -> EndomorphismVerdict:
    """Classify a complex matrix as a band projection or reject it.

    Band preserving multiplicative operators act as multiplication by an
    idempotent c = T(1).  Writing c = c1 + i*c2, idempotency per atom gives
    c1^2 - c2^2 = c1 and 2*c1*c2 = c2; the second forces c2 = 0 wherever it
    is nonzero leads to c1 = 1/2, contradicting the first, so c2 = 0 and
    c1 is a 0/1 vector: T is the band projection onto {c1 = 1}.
    """
    n = len(m)
    if not is_band_preserving(m):
        return EndomorphismVerdict(kind="not band preserving")
    c = tuple(GaussianRational.of(m[i][i]) for i in range(n))
    if any(ci * ci != ci for ci in c):
        return EndomorphismVerdict(kind="not multiplicative", multiplier=c)
    for ci in c:
        # the idempotency computation through real and imaginary parts
        assert ci.re * ci.re - ci.im * ci.im == ci.re
        assert 2 * ci.re * ci.im == ci.im
        assert ci.im == 0 and ci.re in (0, 1)
    algebra = FiniteBooleanAlgebra(n)
    support = algebra.element(i for i, ci in enumerate(c) if ci.re == 1)
    return EndomorphismVerdict(kind="band projection", support=support, multiplier=c)


@dataclass(frozen=True)
class AutomorphismVerdict:
    kind: str  # "identity" | "not band preserving" | "not multiplicative" | "not bijective"

    def to_json(self) -> dict:
        return {"kind": self.kind}


def automorphism_check(m: Matrix) -> AutomorphismVerdict:
    """A band preserving multiplicative bijection is the identity.

    The hypotheses are tested in order (band preservation, then
    multiplicativity, then bijectivity); if all hold, c = T(1) is an
    invertible idempotent, hence the all-ones vector, and T = I.
    """
    n = len(m)
    if not is_band_preserving(m):
        return AutomorphismVerdict(kind="not band preserving")
    c = tuple(GaussianRational.of(m[i][i]) for i in range(n))
    if any(ci * ci != ci for ci in c):
        return AutomorphismVerdict(kind="not multiplicative")
    if any(ci.is_zero for ci in c):
        return AutomorphismVerdict(kind="not bijective")
    assert all(ci == 1 for ci in c)
    return AutomorphismVerdict(kind="identity")


# -- bilinear operators ----------------------------------------------------------


Tensor = tuple[tuple[tuple[Fraction, ...], ...], ...]


def tensor(entries: Sequence[Sequence[Sequence]]) -> Tensor:
    """Normalize a cubic array: entry [i][j][k] is the k-th coordinate of
    the image of the (i, j) basis pair."""
    n = len(entries)
    out = []
    for plane in entries:
        if len(plane) != n:
            raise ValueError("tensor must be cubic")
        rows = []
        for row in plane:
            if len(row) != n:
                raise ValueError("tensor must be cubic")
            rows.append(tuple(rat(e) for e in row))
        out.append(tuple(rows))
    return tuple(out)


def bilinear_apply(t: Tensor, x: Sequence[Fraction], y: Sequence[Fraction]
                   ) -> tuple[Fraction, ...]:
    n = len(t)
    out = [Fraction(0)] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            coeff = x[i] * y[j]
            for k in range(n):
                if t[i][j][k] != 0:
                    out[k] += coeff * t[i][j][k]
    return tuple(out)


def is_separately_band_preserving(t: Tensor) -> bool:
    """True iff every entry vanishes unless all three indices coincide."""
    n = len(t)
    return all(t[i][j][k] == 0
               for i in range(n) for j in range(n) for k in range(n)
               if not (i == j == k))


@dataclass(frozen=True)
class BilinearReport:
    separately_band_preserving: bool
    symmetric: bool
    orthosymmetric: bool
    multiplier: LatticeVector | None

    def to_json(self) -> dict:
        return {
            "separately_band_preserving": self.separately_band_preserving,
            "symmetric": self.symmetric,
            "orthosymmetric": self.orthosymmetric,
            "multiplier": self.multiplier.to_json() if self.multiplier else None,
        }


def bilinear_report(t: Tensor) -> BilinearReport:
    """Structure report for a bilinear operator given by its tensor.

    A separately band preserving operator has a diagonal tensor, hence is
    symmetric, orthosymmetric, and of multiplier form b(x, y) = w * x * y
    with w(q) the (q, q, q) entry.  Nonzero antisymmetric operators are
    never separately band preserving: a diagonal tensor equal to its own
    negation under slot swap is zero.
    """
    n = len(t)
    sep = is_separately_band_preserving(t)
    symmetric = all(t[i][j] == t[j][i] for i in range(n) for j in range(n))
    orthosymmetric = all(all(e == 0 for e in t[i][j])
                         for i in range(n) for j in range(n) if i != j)
    mult = LatticeVector(tuple(t[q][q][q] for q in range(n))) if sep else None
    return BilinearReport(
        separately_band_preserving=sep,
        symmetric=symmetric,
        orthosymmetric=orthosymmetric,
        multiplier=mult,
    )


# -- JSON ------------------------------------------------------------------------


def matrix_to_json(m: Matrix) -> list:
    if is_complex_matrix(m):
        return [[GaussianRational.of(e).to_json() for e in row] for row in m]
    return [[str(e) for e in row] for row in m]


def tensor_to_json(t: Tensor) -> list:
    return [[[str(e) for e in row] for row in plane] for plane in t]


def _scalar_from_json(e) -> Fraction:
    """A JSON integer or 'p/q' string as a Fraction."""
    if type(e) is int:
        return Fraction(e)
    if isinstance(e, str):
        try:
            return rat(e)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {e!r}") from None
    raise ValueError(f"scalars are integers or 'p/q' strings, not {e!r}")


def _entry_from_json(e) -> Fraction | list[Fraction]:
    """A JSON matrix entry: a scalar or an [re, im] pair of scalars."""
    if isinstance(e, list):
        if len(e) != 2:
            raise ValueError("complex entries are [re, im] pairs")
        return [_scalar_from_json(e[0]), _scalar_from_json(e[1])]
    return _scalar_from_json(e)


def _arrays(obj, depth: int) -> bool:
    """Whether ``obj`` is an array whose members are arrays ``depth`` deep."""
    return isinstance(obj, list) and (depth == 1 or all(_arrays(m, depth - 1) for m in obj))


def matrix_from_json(obj) -> Matrix:
    if not _arrays(obj, 2):
        raise ValueError("matrix JSON must be a row-major array of arrays")
    return matrix([[_entry_from_json(e) for e in row] for row in obj])


def tensor_from_json(obj) -> Tensor:
    if not _arrays(obj, 3):
        raise ValueError("tensor JSON must be an array of arrays of arrays")
    return tensor([[[_scalar_from_json(e) for e in row] for row in plane] for plane in obj])
