"""Finite complete Boolean algebras with exact lattice operations.

A finite complete Boolean algebra is (up to isomorphism) the powerset of its
atom set, so elements are represented as bitmasks over atom indices
``0 .. atom_count-1``.  Everything here is exact and immutable: meets are
bit-ands, joins bit-ors, complements bit-flips.  There is one live algebra
per atom count, and it hands out one shared element per mask from a bounded
table, so asking for an element is a dict read.

The module also houses partitions of unity, covers, refinement tests,
common refinements, and the finitized countable-distributivity criteria
(three equivalent forms, checked by brute force over finite selector sets).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence


class AlgebraMismatchError(ValueError):
    """Raised when elements of distinct algebras are combined."""


#: Most elements one algebra keeps in its element table.  Up to 12 atoms
#: every element fits; above, the table holds bottom, top and the atoms,
#: which it is seeded with (the atoms up to 4094 of them), and then the
#: first other masks asked for; any other element is built on each call.
ELEMENT_TABLE_CAP = 4096

_ALGEBRAS: weakref.WeakValueDictionary[int, "FiniteBooleanAlgebra"] = \
    weakref.WeakValueDictionary()


class FiniteBooleanAlgebra:
    """The powerset algebra on ``atom_count`` atoms.

    Algebras are interned: ``FiniteBooleanAlgebra(n)`` returns the one live
    algebra with n atoms, so value semantics means one object per atom
    count, and elements built from any call share it.  Each algebra keeps a
    table of at most ``ELEMENT_TABLE_CAP`` of its elements, seeded with
    bottom, top and the atoms and then filled lazily;
    :meth:`from_mask`, :attr:`top`, :attr:`bottom`, :meth:`atom`,
    :meth:`element` and the :class:`BoolElem` operations hand out the
    table's element for a mask, so a repeated mask is one dict read and the
    same object.  An element refers to its algebra and the algebra to its
    table, so an algebra nothing else refers to is freed by the garbage
    collector, and then drops out of the intern table.
    """

    __slots__ = ("atom_count", "full_mask", "_elements", "__weakref__")

    atom_count: int
    full_mask: int
    _elements: dict[int, "BoolElem"]

    def __new__(cls, atom_count: int) -> "FiniteBooleanAlgebra":
        # a bool or a float would otherwise find the algebra of its int value
        if isinstance(atom_count, bool) or not isinstance(atom_count, int):
            raise TypeError(f"atom_count must be an int, not {type(atom_count).__name__}")
        if atom_count < 1:
            raise ValueError("atom_count must be a positive integer")
        self = _ALGEBRAS.get(atom_count)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "atom_count", atom_count)
            object.__setattr__(self, "full_mask", (1 << atom_count) - 1)
            object.__setattr__(self, "_elements", {})
            # bottom, top and the atoms first, so that no burst of other
            # masks can crowd them out of a table above 12 atoms; the atoms
            # only while they fit, so a huge atom count builds two elements
            seeds = [0, self.full_mask]
            if atom_count + 2 <= ELEMENT_TABLE_CAP:
                seeds += [1 << i for i in range(atom_count)]
            for mask in seeds:
                self.from_mask(mask)
            _ALGEBRAS[atom_count] = self
        return self

    def __reduce__(self) -> tuple:
        # pickle and copy call the constructor again, so they get the live
        # algebra; the element table refills on use
        return FiniteBooleanAlgebra, (self.atom_count,)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        # the dataclass hash this class had: by value, so that the hashes of
        # elements, and the order of sets of them, do not depend on addresses
        return hash((self.atom_count,))

    def __repr__(self) -> str:
        return f"FiniteBooleanAlgebra(atom_count={self.atom_count})"

    @property
    def top(self) -> "BoolElem":
        return self.from_mask(self.full_mask)

    @property
    def bottom(self) -> "BoolElem":
        return self.from_mask(0)

    def atom(self, i: int) -> "BoolElem":
        if not 0 <= i < self.atom_count:
            raise ValueError(f"atom index {i} out of range 0..{self.atom_count - 1}")
        return self.from_mask(1 << i)

    def element(self, atoms: Iterable[int]) -> "BoolElem":
        mask = 0
        for i in atoms:
            if not 0 <= i < self.atom_count:
                raise ValueError(f"atom index {i} out of range 0..{self.atom_count - 1}")
            mask |= 1 << i
        return self.from_mask(mask)

    def from_mask(self, mask: int) -> "BoolElem":
        """The element with this mask, from the element table.  A new
        element is checked before it is built, and kept while the table has
        room; a bool or float key would find an int's entry, so it is
        refused on every call."""
        got = self._elements.get(mask)
        if got is None or type(mask) is not int:
            if type(mask) is not int:
                raise TypeError(f"mask must be an int, not {type(mask).__name__}")
            if not 0 <= mask <= self.full_mask:
                raise ValueError("mask out of range for this algebra")
            got = object.__new__(BoolElem)
            object.__setattr__(got, "algebra", self)
            object.__setattr__(got, "mask", mask)
            if len(self._elements) < ELEMENT_TABLE_CAP:
                self._elements[mask] = got
        return got

    def elements(self) -> Iterator["BoolElem"]:
        """All 2^atom_count elements, in mask order."""
        for mask in range(self.full_mask + 1):
            yield self.from_mask(mask)

    def sup(self, xs: Iterable["BoolElem"]) -> "BoolElem":
        """Supremum of a family; the empty supremum is 0."""
        mask = 0
        for x in xs:
            self._check(x)
            mask |= x.mask
        return self.from_mask(mask)

    def inf(self, xs: Iterable["BoolElem"]) -> "BoolElem":
        """Infimum of a family; the empty infimum is 1."""
        mask = self.full_mask
        for x in xs:
            self._check(x)
            mask &= x.mask
        return self.from_mask(mask)

    def _check(self, x: "BoolElem") -> None:
        if x.algebra.atom_count != self.atom_count:
            raise AlgebraMismatchError(
                f"element of a {x.algebra.atom_count}-atom algebra used in a "
                f"{self.atom_count}-atom algebra"
            )


@dataclass(frozen=True, slots=True)
class BoolElem:
    """An element of a finite Boolean algebra: a set of atoms as a bitmask.

    The constructor checks the mask and builds a new object; the algebra's
    methods and the operations below return the algebra's shared element.
    """

    algebra: FiniteBooleanAlgebra
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.algebra.full_mask:
            raise ValueError("mask out of range for this algebra")

    # -- lattice operations ------------------------------------------------

    def meet(self, other: "BoolElem") -> "BoolElem":
        self._check(other)
        return self.algebra.from_mask(self.mask & other.mask)

    def join(self, other: "BoolElem") -> "BoolElem":
        self._check(other)
        return self.algebra.from_mask(self.mask | other.mask)

    def complement(self) -> "BoolElem":
        return self.algebra.from_mask(self.mask ^ self.algebra.full_mask)

    def minus(self, other: "BoolElem") -> "BoolElem":
        self._check(other)
        return self.algebra.from_mask(self.mask & ~other.mask)

    def implies(self, other: "BoolElem") -> "BoolElem":
        """Boolean implication a => b := a* v b."""
        self._check(other)
        return self.complement().join(other)

    def leq(self, other: "BoolElem") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __and__ = meet
    __or__ = join
    __invert__ = complement
    __sub__ = minus
    __le__ = leq

    def __ge__(self, other: "BoolElem") -> bool:
        return other.leq(self)

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_one(self) -> bool:
        return self.mask == self.algebra.full_mask

    @property
    def atoms(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.algebra.atom_count) if self.mask >> i & 1)

    def _check(self, other: "BoolElem") -> None:
        if other.algebra.atom_count != self.algebra.atom_count:
            raise AlgebraMismatchError("elements belong to different algebras")

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.atoms)) + "}"

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        return {"atoms": list(self.atoms)}

    @staticmethod
    def from_json(obj: dict, algebra: FiniteBooleanAlgebra) -> "BoolElem":
        atoms = obj.get("atoms") if isinstance(obj, dict) else None
        if not isinstance(atoms, list) or not all(type(i) is int for i in atoms):
            raise ValueError('BoolElem JSON must be {"atoms": [int, ...]}')
        return algebra.element(atoms)


def is_partition(blocks: Sequence[BoolElem]) -> bool:
    """True iff the blocks are nonzero, pairwise disjoint, and join to 1."""
    if not blocks:
        return False
    algebra = blocks[0].algebra
    seen = 0
    for b in blocks:
        algebra._check(b)
        if b.is_zero or seen & b.mask:
            return False
        seen |= b.mask
    return seen == algebra.full_mask


def is_cover(members: Sequence[BoolElem]) -> bool:
    """True iff the members join to 1 (overlaps and zeros permitted)."""
    if not members:
        return False
    algebra = members[0].algebra
    seen = 0
    for m in members:
        algebra._check(m)
        seen |= m.mask
    return seen == algebra.full_mask


@dataclass(frozen=True)
class Partition:
    """An ordered partition of unity: disjoint nonzero blocks joining to 1."""

    blocks: tuple[BoolElem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not is_partition(self.blocks):
            raise ValueError("blocks do not form a partition of unity")

    @property
    def algebra(self) -> FiniteBooleanAlgebra:
        return self.blocks[0].algebra

    def __iter__(self) -> Iterator[BoolElem]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def to_json(self) -> list:
        return [b.to_json() for b in self.blocks]


@dataclass(frozen=True)
class Cover:
    """An ordered cover: a finite family of elements joining to 1."""

    members: tuple[BoolElem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not is_cover(self.members):
            raise ValueError("members do not form a cover (join is not 1)")

    @property
    def algebra(self) -> FiniteBooleanAlgebra:
        return self.members[0].algebra

    def __iter__(self) -> Iterator[BoolElem]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self) -> list:
        return [m.to_json() for m in self.members]


def _members(c: Cover | Partition | Sequence[BoolElem]) -> Sequence[BoolElem]:
    if isinstance(c, Cover):
        return c.members
    if isinstance(c, Partition):
        return c.blocks
    return c


def is_refined_from(x: BoolElem | Cover | Partition | Sequence[BoolElem],
                    c: Cover | Partition | Sequence[BoolElem]) -> bool:
    """Refinement test against a cover.

    An element is refined from ``c`` when some member dominates it (members
    scanned in listed order, first match).  A cover is refined from ``c``
    when each of its members is.
    """
    cm = _members(c)
    if isinstance(x, BoolElem):
        return any(x.leq(m) for m in cm)
    return all(any(b.leq(m) for m in cm) for b in _members(x))


def common_refinement(ps: Sequence[Partition]) -> Partition:
    """The coarsest partition refined from every partition in ``ps``.

    Blocks are the nonzero meets p_1 ^ ... ^ p_k with p_i ranging over the
    i-th partition, in lexicographic listed order.
    """
    if not ps:
        raise ValueError("need at least one partition")
    algebra = ps[0].algebra
    blocks = []
    for combo in itertools.product(*(p.blocks for p in ps)):
        m = algebra.inf(combo)
        if not m.is_zero:
            blocks.append(m)
    return Partition(tuple(blocks))


def axioms_hold_on_triple(a: BoolElem, b: BoolElem, c: BoolElem) -> bool:
    """All Boolean-algebra axioms instantiated at one triple.

    Associativity, commutativity, absorption, both distributive laws, and
    the complement laws, evaluated on the masks once the three elements are
    known to share an algebra; exhaustion over all triples at small atom
    counts proves the axioms outright, random triples sample larger algebras.
    """
    a._check(b)
    a._check(c)
    full = a.algebra.full_mask
    x, y, z = a.mask, b.mask, c.mask
    return (
        x & (y & z) == (x & y) & z
        and x | (y | z) == (x | y) | z
        and x & y == y & x
        and x | y == y | x
        and x & (x | y) == x
        and x | (x & y) == x
        and x & (y | z) == (x & y) | (x & z)
        and x | (y & z) == (x | y) & (x | z)
        and x & (x ^ full) == 0
        and x | (x ^ full) == full
    )


# -- finitized countable-distributivity criteria ----------------------------


@dataclass(frozen=True)
class SigmaReport:
    """Verdicts for the three finitized distributivity identities.

    The identities quantify over a doubly indexed family b[n][m]; here both
    index sets are finite (``n_index`` rows, ``m_index`` columns) and the
    selector functions range over the full finite function space.  Form 3
    applies to a single sequence (one element per row; the first column is
    used when a full matrix is supplied) with each sign choosing b_n or its
    complement.
    """

    n_index: int
    m_index: int
    form1: bool
    form2: bool
    form3: bool

    @property
    def all_hold(self) -> bool:
        return self.form1 and self.form2 and self.form3

    def to_json(self) -> dict:
        return {
            "n_index_size": self.n_index,
            "m_index_size": self.m_index,
            "form1": self.form1,
            "form2": self.form2,
            "form3": self.form3,
            "all_hold": self.all_hold,
        }


def _sigma_sides(matrix: list[list[int]], full: int) -> tuple[tuple[int, int], ...]:
    """Both sides of forms 1, 2 and 3 on a mask matrix, by brute force.

    A selector picks one entry per row, so ``itertools.product(*matrix)``
    runs through the picks of every selector; form 3 runs through the sign
    vectors of the first column the same way, a sign choosing b_n or its
    complement.
    """
    rhs1, rhs2 = 0, full
    for picked in itertools.product(*matrix):
        rhs1 |= reduce(and_, picked)
        rhs2 &= reduce(or_, picked)
    lhs1 = reduce(and_, (reduce(or_, row) for row in matrix))
    lhs2 = reduce(or_, (reduce(and_, row) for row in matrix))
    lhs3 = 0
    for signed in itertools.product(*((row[0], row[0] ^ full) for row in matrix)):
        lhs3 |= reduce(and_, signed)
    return (lhs1, rhs1), (lhs2, rhs2), (lhs3, full)


def sigma_criteria_check(matrix: Sequence[Sequence[BoolElem]]) -> SigmaReport:
    """Evaluate all three finitized distributivity forms on a finite matrix.

    Rows must be nonempty and of equal length, and every entry must belong
    to the algebra of the first.  Form 3 is evaluated on the first column.
    On a finite algebra all three verdicts are always true.
    """
    if not matrix or not matrix[0]:
        raise ValueError("matrix must be nonempty with nonempty rows")
    width = len(matrix[0])
    if any(len(row) != width for row in matrix):
        raise ValueError("matrix rows must have equal length")
    algebra = matrix[0][0].algebra
    for row in matrix:
        for x in row:
            algebra._check(x)
    (l1, r1), (l2, r2), (l3, r3) = _sigma_sides(
        [[x.mask for x in row] for row in matrix], algebra.full_mask)
    return SigmaReport(
        n_index=len(matrix),
        m_index=width,
        form1=l1 == r1,
        form2=l2 == r2,
        form3=l3 == r3,
    )
