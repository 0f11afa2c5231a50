import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk.boolalg import BoolElem, FiniteBooleanAlgebra, is_refined_from
from bvdesk.bvu import ResourceCapError
from bvdesk.cli import main
from bvdesk.lattice import AtomicLattice
from bvdesk.refinement import (MAX_ATOMS, build_tower, constancy_partition,
                               constancy_refinement_check,
                               is_function_refined_from, level_partitions,
                               refine_report, refined_function)

A4 = FiniteBooleanAlgebra(4)
FIXTURE_COVERS = [
    [A4.element([0, 1]), A4.element([2, 3])],
    [A4.element([0, 2]), A4.element([1, 3])],
]


# -- the padded tower, kept as the oracle of the address tower ----------------------


def _split_once(blocks, cover):
    """One doubling: each block becomes a sibling pair."""
    out = []
    for u in blocks:
        if u.is_zero or any(u.leq(c) for c in cover):
            out.extend((u, u.algebra.bottom))
            continue
        piece = next(u.meet(c) for c in cover
                     if not u.meet(c).is_zero and u.meet(c) != u)
        out.extend((piece, u.minus(piece)))
    return out


def reference_tower(algebra, covers):
    """(levels of 2^m padded blocks, cover levels), built block by block."""
    levels = []
    current = [algebra.top]
    cover_levels = []
    for members in covers:
        while not all(b.is_zero or any(b.leq(c) for c in members) for b in current):
            current = _split_once(current, members)
            levels.append(current)
        if not levels:
            current = _split_once(current, members)
            levels.append(current)
        cover_levels.append(len(levels))
    if not levels:
        levels.append([algebra.top, algebra.bottom])
    return tuple(tuple(level) for level in levels), tuple(cover_levels)


def sibling_rule_holds(levels):
    for m in range(len(levels) - 1):
        for j, parent in enumerate(levels[m]):
            if levels[m + 1][2 * j].join(levels[m + 1][2 * j + 1]) != parent:
                return False
    return True


def reference_block_index(levels, m, atom):
    """Index of the level-m (1-based) block containing the atom, by scanning."""
    return next(j for j, b in enumerate(levels[m - 1]) if b.mask >> atom & 1)


def reference_chi(levels, m, n):
    """Indicator of the union of even-indexed (1-based) blocks at level m."""
    union = 0
    for j, b in enumerate(levels[m - 1]):
        if j % 2 == 1:
            union |= b.mask
    return [1 if union >> q & 1 else 0 for q in range(n)]


def padded_levels(tower):
    """The padded levels the tower's JSON report writes, as elements."""
    return tuple(tuple(BoolElem.from_json(b, tower.algebra) for b in level)
                 for level in tower.to_json()["levels"])


class TestTower:
    def test_fixture_levels(self):
        tower = build_tower(A4, FIXTURE_COVERS)
        levels = padded_levels(tower)
        assert levels[0] == (A4.element([0, 1]), A4.element([2, 3]))
        assert levels[1] == (A4.element([0]), A4.element([1]),
                             A4.element([2]), A4.element([3]))
        assert tower.addresses == (0, 1, 2, 3)
        assert tower.cover_levels == (1, 2)
        assert sibling_rule_holds(levels)

    def test_empty_cover_list_identity_tower(self):
        tower = build_tower(A4, [])
        assert padded_levels(tower) == ((A4.top, A4.bottom),)

    def test_trivial_cover(self):
        tower = build_tower(A4, [[A4.top]])
        assert padded_levels(tower) == ((A4.top, A4.bottom),)
        assert tower.cover_levels == (1,)

    def test_levels_are_padded_partitions(self):
        rng = random.Random(1)
        for _ in range(50):
            algebra = FiniteBooleanAlgebra(rng.randint(2, 10))
            covers = [_random_cover(rng, algebra) for _ in range(rng.randint(1, 4))]
            tower = build_tower(algebra, covers)
            levels = padded_levels(tower)
            assert sibling_rule_holds(levels)
            for m, level in enumerate(levels):
                assert len(level) == 2 ** (m + 1)
                nonzero = [b for b in level if not b.is_zero]
                assert algebra.sup(nonzero).is_one
                seen = 0
                for b in nonzero:
                    assert seen & b.mask == 0
                    seen |= b.mask
            for cover, lv in zip(covers, tower.cover_levels):
                assert is_refined_from(tower.level_partition(lv), cover)

    def test_atoms_reached_within_log_levels(self):
        # covers already refined by atoms end at the atom partition
        algebra = FiniteBooleanAlgebra(8)
        atoms = [algebra.atom(i) for i in range(8)]
        tower = build_tower(algebra, [atoms])
        assert tower.height <= 8  # binary chained splitting of one block
        assert set(tower.level_partition(tower.height).blocks) == set(atoms)

    def test_non_cover_rejected(self):
        with pytest.raises(ValueError):
            build_tower(A4, [[A4.element([0, 1])]])

    def test_atom_cap_refuses_before_any_work(self):
        algebra = FiniteBooleanAlgebra(10 ** 6)
        half = algebra.element(range(10))
        start = time.perf_counter()
        for covers in ([], [[half, half.complement()]], [[algebra.top]] * 100):
            with pytest.raises(ResourceCapError):
                build_tower(algebra, covers)
        assert time.perf_counter() - start < 1
        with pytest.raises(ResourceCapError):
            refine_report(FiniteBooleanAlgebra(MAX_ATOMS + 1), [])

    def test_cap_still_builds(self):
        algebra = FiniteBooleanAlgebra(MAX_ATOMS)
        half = algebra.element(range(MAX_ATOMS // 2))
        assert build_tower(algebra, [[half, half.complement()]]).height == 1
        assert refine_report(algebra, []).ok

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 10_000), st.integers(0, 5))
    def test_height_at_most_atoms(self, atoms, seed, n_covers):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        covers = [_random_cover(rng, algebra) for _ in range(n_covers)]
        assert build_tower(algebra, covers).height <= atoms
        # the bound is reached: a forced doubling, then one atom split off per cover
        splits = [[algebra.atom(q), algebra.atom(q).complement()] for q in range(atoms - 1)]
        assert build_tower(algebra, [[algebra.top], *splits]).height == atoms


class TestAgainstPaddedTower:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10 ** 6), st.integers(0, 5), st.booleans(),
           st.integers(0, 11))
    def test_address_tower_matches_padded_oracle(self, atoms, seed, n_covers, trivial_first,
                                                 n_splits):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        covers = [_random_cover(rng, algebra) for _ in range(n_covers)]
        if trivial_first:
            covers.insert(0, [algebra.top])
        # covers splitting off one atom each drive the height towards the atom count
        for q in rng.sample(range(atoms), min(n_splits, atoms - 1)):
            covers.append([algebra.atom(q), algebra.atom(q).complement()])
        levels, cover_levels = reference_tower(algebra, covers)
        assert sibling_rule_holds(levels)
        result = refine_report(algebra, covers)
        tower = result.tower
        assert tower.height == len(levels)
        assert tower.to_json() == {
            "levels": [[b.to_json() for b in level] for level in levels],
            "cover_levels": list(cover_levels),
        }
        for m, level in enumerate(levels, start=1):
            assert tower.level_partition(m).blocks == tuple(b for b in level if not b.is_zero)
        chis = [reference_chi(levels, m, atoms) for m in range(1, len(levels) + 1)]
        assert result.g.coords == tuple(
            sum((Fraction(chi[q], 3 ** m) for m, chi in enumerate(chis, start=1)), Fraction(0))
            for q in range(atoms))
        expected = {}
        for q1 in range(atoms):
            for q2 in range(q1 + 1, atoms):
                first = next((m for m in range(1, len(levels) + 1)
                              if reference_block_index(levels, m, q1)
                              != reference_block_index(levels, m, q2)), None)
                if first is not None:
                    expected[(q1, q2)] = first
        assert {s.atom_pair: s.level for s in result.separations} == expected
        assert [s.atom_pair for s in result.separations] == sorted(expected)

    def test_split_fixture_report_is_pinned(self, tmp_path):
        # one atom split off per cover: height 15, 65 534 padded blocks in the report
        atoms = 16
        spec = {"atoms": atoms,
                "covers": [[{"atoms": [q]}, {"atoms": [a for a in range(atoms) if a != q]}]
                           for q in range(atoms - 1)]}
        path = tmp_path / "covers.json"
        path.write_text(json.dumps(spec))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["refine", "--covers", str(path), "--json"]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "8da7f90a07b30442024e4cbe82430aecc154ba65184b25469ca97360502993e4")


def _random_cover(rng, algebra):
    members = [algebra.from_mask(rng.randrange(1, algebra.full_mask + 1))
               for _ in range(rng.randint(1, 4))]
    joined = algebra.sup(members)
    if not joined.is_one:
        members.append(joined.complement())
    return members


class TestRefinedFunction:
    def test_fixture_g(self):
        g = refined_function(A4, FIXTURE_COVERS)
        assert g.coords == (Fraction(0), Fraction(1, 9), Fraction(1, 3), Fraction(4, 9))

    def test_trivial_cover_constant_zero(self):
        g = refined_function(A4, [[A4.top]])
        assert g.coords == (Fraction(0),) * 4

    def test_fixture_separation_spot_check(self):
        g = refined_function(A4, FIXTURE_COVERS)
        assert g.coords[2] - g.coords[1] == Fraction(2, 9)
        assert g.coords[2] - g.coords[1] >= Fraction(1, 2 * 3)

    def test_report_certificates_and_bounds(self):
        result = refine_report(A4, FIXTURE_COVERS)
        assert result.ok
        assert result.certificates == (True, True)
        by_pair = {s.atom_pair: s for s in result.separations}
        assert by_pair[(0, 1)].level == 2
        assert by_pair[(0, 2)].level == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 10_000), st.integers(1, 5))
    def test_randomized_refinement(self, atoms, seed, n_covers):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        covers = [_random_cover(rng, algebra) for _ in range(n_covers)]
        result = refine_report(algebra, covers)
        assert all(result.certificates)
        assert all(s.ok for s in result.separations)

    def test_determinism(self):
        r1 = refine_report(A4, FIXTURE_COVERS)
        r2 = refine_report(A4, FIXTURE_COVERS)
        assert r1.g == r2.g and r1.tower == r2.tower
        assert r1.tower.to_json() == r2.tower.to_json()


class TestFunctionRefinement:
    def test_constant_with_trivial_cover(self):
        g = AtomicLattice(2).vector([1, 1])
        assert is_function_refined_from(g, [FiniteBooleanAlgebra(2).top])

    def test_injective_needs_nothing(self):
        g = AtomicLattice(2).vector([0, 1])
        a2 = FiniteBooleanAlgebra(2)
        assert is_function_refined_from(g, [a2.element([0]), a2.element([1])])

    def test_equal_pair_split_fails(self):
        g = AtomicLattice(2).vector([1, 1])
        a2 = FiniteBooleanAlgebra(2)
        assert not is_function_refined_from(g, [a2.element([0]), a2.element([1])])


class TestLevelPartitions:
    def test_example_halves(self):
        g = AtomicLattice(3).vector([0, "1/2", 1])
        part = level_partitions(g, 2)
        a3 = FiniteBooleanAlgebra(3)
        assert part.blocks == (a3.element([0]), a3.element([1]), a3.element([2]))

    def test_constant_single_block(self):
        g = AtomicLattice(3).vector([5, 5, 5])
        assert level_partitions(g, 7).blocks == (FiniteBooleanAlgebra(3).top,)

    def test_fixture_thirds(self):
        g = refined_function(A4, FIXTURE_COVERS)
        part = level_partitions(g, 3)
        assert part.blocks == (A4.element([0, 1]), A4.element([2, 3]))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            level_partitions(AtomicLattice(1).vector([0]), 0)


class TestConstancyCheck:
    def test_examples(self):
        assert constancy_refinement_check(AtomicLattice(3).vector([2, 2, 5])).ok
        assert constancy_refinement_check(AtomicLattice(3).vector([1, 2, 3])).ok
        assert constancy_refinement_check(AtomicLattice(3).vector([4, 4, 4])).ok

    def test_partition_blocks(self):
        part = constancy_partition(AtomicLattice(3).vector([2, 2, 5]))
        a3 = FiniteBooleanAlgebra(3)
        assert part.blocks == (a3.element([0, 1]), a3.element([2]))
