"""Dyadic partition towers and the refined-function construction.

Given finitely many covers of a finite powerset algebra, a tower of
partitions P_1, P_2, ... is built so that every level has 2^m blocks (zero
blocks permitted as padding), consecutive levels satisfy the sibling rule
U_j^m = U_{2j-1}^{m+1} v U_{2j}^{m+1}, and each input cover is refined from
some recorded level.  The tower is one h-bit address per atom: atom q lies
in block ``address >> (h - m)`` of level m, and only the JSON report pads
level m out to 2^m blocks.

Each doubling splits every block U into the chained pair (U ^ c, U \\ c)
for the first cover member c meeting U properly; blocks already dominated
by a member split as (U, 0).  Iterating absorbs one cover at a time and
terminates because nonzero proper splits strictly shrink blocks.

The refined function is the exact finite sum g = sum_m 3^(-m) chi_m with
chi_m the indicator of the union of even-indexed level-m blocks: bit m of
the address, so g(q) is the address read in base 3, over 3^h.  Two atoms
first separated at level m (their first differing address bit) land in
sibling blocks, so their chi_m values differ while chi_i agree for i < m,
giving the separation estimate

    |g(q') - g(q'')| >= 1/3^m - sum_{i>m} 1/3^i = 1/(2 * 3^m) > 0.

In particular g takes distinct values on atoms separated by any level, so
g is refined from every absorbed cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boolalg import BoolElem, Cover, FiniteBooleanAlgebra, Partition, is_refined_from
from .bvu import ResourceCapError
from .lattice import LatticeVector

#: Most atoms :func:`build_tower` accepts.  The tower holds one address per
#: atom, but the ``to_json`` report pads level m to 2^m blocks.
MAX_ATOMS = 20


@dataclass(frozen=True)
class PartitionTower:
    """One ``height``-bit block address per atom plus absorption data."""

    algebra: FiniteBooleanAlgebra
    height: int
    addresses: tuple[int, ...]
    cover_levels: tuple[int, ...]  # per input cover, the level refined from it

    def _blocks(self, m: int) -> dict[int, list[int]]:
        """The atoms of each nonzero level-m (1-based) block, by block index."""
        blocks: dict[int, list[int]] = {}
        for q, address in enumerate(self.addresses):
            blocks.setdefault(address >> (self.height - m), []).append(q)
        return blocks

    def level_partition(self, m: int) -> Partition:
        """Level m (1-based) with padding dropped, as a public partition."""
        blocks = self._blocks(m)
        return Partition(tuple(self.algebra.element(blocks[j]) for j in sorted(blocks)))

    def to_json(self) -> dict:
        levels = []
        for m in range(1, self.height + 1):
            blocks = self._blocks(m)
            levels.append([{"atoms": blocks.get(j, [])} for j in range(2 ** m)])
        return {"levels": levels, "cover_levels": list(self.cover_levels)}


def _settled(u: int, cover: Sequence[int]) -> bool:
    return any(u & ~c == 0 for c in cover)


def build_tower(algebra: FiniteBooleanAlgebra,
                covers: Sequence[Cover | Sequence[BoolElem]]) -> PartitionTower:
    """Build the tower absorbing the covers in listed order.

    With no covers the result is the identity tower [1, 0].  Each cover's
    absorption level is recorded; a cover already absorbed when reached
    still forces one doubling so that every recorded level exists.

    Only the nonzero blocks of the current level are kept, by block index.

    Algebras of more than MAX_ATOMS atoms are refused before any work,
    which bounds the height by MAX_ATOMS.  A doubling made while absorbing
    a cover splits some block not below any member, and so meeting some
    member properly: it adds a nonzero block.  A level has at most ``atoms``
    nonzero blocks, so there are at most atoms - 1 such doublings, plus the
    one forced doubling, which happens only when no level exists yet:
    height <= atoms.
    """
    if algebra.atom_count > MAX_ATOMS:
        raise ResourceCapError(
            f"{algebra.atom_count} atoms exceed the refine cap {MAX_ATOMS}")
    cover_lists = [list(c.members if isinstance(c, Cover) else c) for c in covers]
    for members in cover_lists:
        joined = algebra.sup(members)
        if not joined.is_one:
            raise ValueError("each input must be a cover (join = 1)")
    level = {0: algebra.full_mask}
    height = 0
    cover_levels: list[int] = []
    for members in cover_lists:
        cover = [c.mask for c in members]
        while height == 0 or not all(_settled(u, cover) for u in level.values()):
            split: dict[int, int] = {}
            for j, u in level.items():
                if _settled(u, cover):
                    split[2 * j] = u
                else:
                    piece = next(u & c for c in cover if u & c and u & c != u)
                    split[2 * j], split[2 * j + 1] = piece, u & ~piece
            level = split
            height += 1
        cover_levels.append(height)
    addresses = [0] * algebra.atom_count
    for j, u in level.items():
        for q in range(algebra.atom_count):
            if u >> q & 1:
                addresses[q] = j
    return PartitionTower(
        algebra=algebra,
        height=max(height, 1),
        addresses=tuple(addresses),
        cover_levels=tuple(cover_levels),
    )


def refined_function(algebra: FiniteBooleanAlgebra,
                     covers: Sequence[Cover | Sequence[BoolElem]]) -> LatticeVector:
    """The exact sum g = sum_{m=1}^{M} 3^(-m) chi_m over the built tower."""
    return refine_report(algebra, covers).g


def is_function_refined_from(g: LatticeVector,
                             cover: Cover | Sequence[BoolElem]) -> bool:
    """Every atom pair with equal g-values lies inside one cover member."""
    members = list(cover.members if isinstance(cover, Cover) else cover)
    n = g.dim
    for q1 in range(n):
        for q2 in range(q1 + 1, n):
            if g.coords[q1] != g.coords[q2]:
                continue
            if not any(c.mask >> q1 & 1 and c.mask >> q2 & 1 for c in members):
                return False
    return True


def level_partitions(g: LatticeVector, n: int) -> Partition:
    """Bucket atoms by which interval [m/n, (m+1)/n) holds their g-value."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    buckets: dict[int, list[int]] = {}
    for q, value in enumerate(g.coords):
        m = (value.numerator * n) // value.denominator  # floor(n * g(q))
        buckets.setdefault(m, []).append(q)
    algebra = g.algebra
    return Partition(tuple(algebra.element(buckets[m]) for m in sorted(buckets)))


def constancy_partition(g: LatticeVector) -> Partition:
    """Atoms grouped by exact g-value, in increasing value order."""
    groups: dict[Fraction, list[int]] = {}
    for q, value in enumerate(g.coords):
        groups.setdefault(value, []).append(q)
    algebra = g.algebra
    return Partition(tuple(algebra.element(groups[v]) for v in sorted(groups)))


@dataclass(frozen=True)
class ConstancyReport:
    """Whether the constancy partition is refined from all tested levels."""

    ok: bool
    tested_up_to: int
    partition: Partition

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "tested_up_to": self.tested_up_to,
            "partition": self.partition.to_json(),
        }


def constancy_refinement_check(g: LatticeVector) -> ConstancyReport:
    """Check the constancy partition against the level partitions.

    The levels n = 1 .. 2 * lcm of g's denominators are tested; that finite
    list of indices stands in for the full countable family.
    """
    last_level = 2 * math.lcm(*(c.denominator for c in g.coords))
    part = constancy_partition(g)
    ok = all(is_refined_from(part, level_partitions(g, n))
             for n in range(1, last_level + 1))
    return ConstancyReport(ok=ok, tested_up_to=last_level, partition=part)


@dataclass(frozen=True)
class SeparationRecord:
    """First-separation data for one atom pair."""

    atom_pair: tuple[int, int]
    level: int
    gap: Fraction
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.gap >= self.bound

    def to_json(self) -> dict:
        return {
            "atom_pair": list(self.atom_pair),
            "level": self.level,
            "gap": str(self.gap),
            "bound": str(self.bound),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class RefinementResult:
    """Tower, refined function, per-cover certificates, separation records."""

    tower: PartitionTower
    g: LatticeVector
    certificates: tuple[bool, ...]
    separations: tuple[SeparationRecord, ...]

    @property
    def ok(self) -> bool:
        return all(self.certificates) and all(s.ok for s in self.separations)

    def to_json(self) -> dict:
        return {
            "g": self.g.to_json(),
            "tower": self.tower.to_json(),
            "certificates": list(self.certificates),
            "separation": [s.to_json() for s in self.separations],
        }


def refine_report(algebra: FiniteBooleanAlgebra,
                  covers: Sequence[Cover | Sequence[BoolElem]]) -> RefinementResult:
    """Build the tower, compute g, and verify the construction's contract."""
    tower = build_tower(algebra, covers)
    n, h = algebra.atom_count, tower.height
    g = LatticeVector(tuple(Fraction(int(f"{a:b}", 3), 3 ** h) for a in tower.addresses))
    certificates = tuple(bool(is_function_refined_from(g, c)) for c in covers)
    separations = []
    for q1 in range(n):
        for q2 in range(q1 + 1, n):
            if tower.addresses[q1] == tower.addresses[q2]:
                continue
            level = h - (tower.addresses[q1] ^ tower.addresses[q2]).bit_length() + 1
            gap = abs(g.coords[q1] - g.coords[q2])
            separations.append(SeparationRecord(
                atom_pair=(q1, q2),
                level=level,
                gap=gap,
                bound=Fraction(1, 2 * 3 ** level),
            ))
    return RefinementResult(
        tower=tower,
        g=g,
        certificates=certificates,
        separations=tuple(separations),
    )
