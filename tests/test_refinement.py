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
    """The 2^m padded levels, rebuilt from the nonzero blocks the tower's JSON
    report lists by strictly increasing index below 2^m."""
    levels = []
    for m, blocks in enumerate(tower.to_json()["levels"], start=1):
        indices = [b["index"] for b in blocks]
        assert indices == sorted(set(indices))
        assert all(0 <= j < 2 ** m for j in indices)
        assert all(b["atoms"] for b in blocks)
        level = [tower.algebra.bottom] * 2 ** m
        for b in blocks:
            level[b["index"]] = BoolElem.from_json(b, tower.algebra)
        levels.append(tuple(level))
    return tuple(levels)


def reference_is_function_refined_from(g, cover):
    """Every atom pair with equal g-values lies inside one cover member, pair by pair."""
    members = list(cover)
    n = g.dim
    for q1 in range(n):
        for q2 in range(q1 + 1, n):
            if g.coords[q1] != g.coords[q2]:
                continue
            if not any(c.mask >> q1 & 1 and c.mask >> q2 & 1 for c in members):
                return False
    return True


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
        assert padded_levels(tower) == levels
        assert tower.to_json() == {
            "levels": [[{"index": j, **b.to_json()} for j, b in enumerate(level)
                        if not b.is_zero] for level in levels],
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
        # one atom split off per cover: height 15, one nonzero block more per level
        code, out = run_split_fixture(tmp_path, 16)
        assert code == 0 and len(out) <= 50_000
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2e6c68bf9a23cc91aaac0431b743b72f34d1b21dc3bb3f42734818878cce7a04")
        report = json.loads(out)
        assert [len(level) for level in report["tower"]["levels"]] == list(range(2, 17))
        # g and the separation records read as when the report padded every level
        for key, digest in (
                ("g", "422d99ef855909a665ef2fbc467d13d196f9ce4c4c12c32e2c0e5ca551d74dad"),
                ("separation",
                 "d6f2009ef95c9fe86c73e710fa7d6206e3017d85285cb58c2ca4832a8432b0fc")):
            text = json.dumps(report[key], sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_split_fixture_at_the_cap(self, tmp_path):
        code, out = run_split_fixture(tmp_path, MAX_ATOMS)
        assert code == 0
        report = json.loads(out)
        assert report["certificates"] == [True] * (MAX_ATOMS - 1)
        assert len(report["separation"]) == MAX_ATOMS * (MAX_ATOMS - 1) // 2
        assert [len(level) for level in report["tower"]["levels"]] == list(
            range(2, MAX_ATOMS + 1))

    def test_split_fixture_over_the_cap_refused_at_once(self, tmp_path):
        start = time.perf_counter()
        assert run_split_fixture(tmp_path, MAX_ATOMS + 1) == (2, "")
        assert time.perf_counter() - start < 0.1


def run_split_fixture(tmp_path, atoms):
    """``refine --json``'s exit code and stdout on covers that each split off one atom."""
    spec = {"atoms": atoms,
            "covers": [[{"atoms": [q]}, {"atoms": [a for a in range(atoms) if a != q]}]
                       for q in range(atoms - 1)]}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(spec))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["refine", "--covers", str(path), "--json"])
    return code, out.getvalue()


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

    def test_equal_triple_met_pairwise(self):
        # each pair of the three equal atoms lies in a member, no member holds all three
        g = AtomicLattice(3).vector([2, 2, 2])
        a3 = FiniteBooleanAlgebra(3)
        pairs = [a3.element([0, 1]), a3.element([1, 2]), a3.element([0, 2])]
        assert is_function_refined_from(g, pairs)
        assert not is_function_refined_from(g, pairs[:2])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 10 ** 6), st.integers(1, 4), st.booleans())
    def test_matches_pairwise_oracle(self, atoms, seed, values, cover):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        # few distinct values, so most g repeat some
        g = AtomicLattice(atoms).vector([rng.randrange(values) for _ in range(atoms)])
        members = (_random_cover(rng, algebra) if cover else
                   [algebra.from_mask(rng.randrange(algebra.full_mask + 1))
                    for _ in range(rng.randint(0, 4))])
        assert is_function_refined_from(g, members) == reference_is_function_refined_from(
            g, members)


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

    def test_levels_up_to_twice_the_common_denominator(self):
        for coords, lcm in ((["1/4", "2/3", "5"], 12), ([2, 2, 5], 1), (["1/6", "1/10"], 30)):
            g = AtomicLattice(len(coords)).vector(coords)
            assert constancy_refinement_check(g).tested_up_to == 2 * lcm

    def test_partition_blocks(self):
        part = constancy_partition(AtomicLattice(3).vector([2, 2, 5]))
        a3 = FiniteBooleanAlgebra(3)
        assert part.blocks == (a3.element([0, 1]), a3.element([2]))
