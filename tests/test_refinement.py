import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk.boolalg import FiniteBooleanAlgebra, is_refined_from
from bvdesk.bvu import ResourceCapError
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


class TestTower:
    def test_fixture_levels(self):
        tower = build_tower(A4, FIXTURE_COVERS)
        assert tower.levels[0] == (A4.element([0, 1]), A4.element([2, 3]))
        assert tower.levels[1] == (A4.element([0]), A4.element([1]),
                                   A4.element([2]), A4.element([3]))
        assert tower.cover_levels == (1, 2)
        assert tower.sibling_rule_holds()

    def test_empty_cover_list_identity_tower(self):
        tower = build_tower(A4, [])
        assert tower.levels == ((A4.top, A4.bottom),)

    def test_trivial_cover(self):
        tower = build_tower(A4, [[A4.top]])
        assert tower.levels == ((A4.top, A4.bottom),)
        assert tower.cover_levels == (1,)

    def test_levels_are_padded_partitions(self):
        rng = random.Random(1)
        for _ in range(50):
            algebra = FiniteBooleanAlgebra(rng.randint(2, 10))
            covers = [_random_cover(rng, algebra) for _ in range(rng.randint(1, 4))]
            tower = build_tower(algebra, covers)
            assert tower.sibling_rule_holds()
            for m, level in enumerate(tower.levels):
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
        assert r1.g == r2.g and r1.tower.levels == r2.tower.levels


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
