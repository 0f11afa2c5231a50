import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk.battery import BATTERY, run_battery, von_neumann_natural_formula
from bvdesk.boolalg import FiniteBooleanAlgebra, Partition
from bvdesk import bvu
from bvdesk.bvu import (DOM_CAP, EvalError, ResourceCapError, ascent,
                        atom_mixings, bounded_transfer_check, bset,
                        bset_from_json, canonicalize, classical_eval, descent,
                        env_from_json, equivalent, escher_check, eval_formula,
                        existential_witnesses, hf_literal, mix, stalks,
                        standard_name, truth_eq, truth_mem)
from bvdesk.formula import parse

A2 = FiniteBooleanAlgebra(2)
A4 = FiniteBooleanAlgebra(4)


def name(n, algebra=A4):
    return standard_name(algebra, n)


class TestTruthValues:
    def test_empty_in_one_is_full(self):
        assert truth_mem(name(0), name(1)).is_one

    def test_single_entry_membership(self):
        b = A4.element([1, 2])
        y = bset(A4, [(name(0), b)])
        assert truth_mem(name(0), y) == b

    def test_one_not_in_one(self):
        assert truth_mem(name(1), name(1)).is_zero

    def test_reflexivity(self):
        assert truth_eq(name(0), name(0)).is_one

    def test_zero_valued_entry_is_invisible(self):
        x = name(0)
        y = bset(A4, [(name(0), A4.bottom)])
        assert truth_eq(x, y).is_one

    def test_zero_neq_one(self):
        assert truth_eq(name(0), name(1)).is_zero


def random_bset(rng, algebra, max_rank):
    if max_rank == 0:
        return bset(algebra, ())
    pairs = [(random_bset(rng, algebra, rng.randint(0, max_rank - 1)),
              algebra.from_mask(rng.randrange(algebra.full_mask + 1)))
             for _ in range(rng.randint(0, 3))]
    return bset(algebra, pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_equality_laws(seed, atoms):
    rng = random.Random(seed)
    algebra = FiniteBooleanAlgebra(atoms)
    x = random_bset(rng, algebra, 3)
    y = random_bset(rng, algebra, 3)
    z = random_bset(rng, algebra, 3)
    assert truth_eq(x, x).is_one
    assert truth_eq(x, y) == truth_eq(y, x)
    assert truth_eq(x, y).meet(truth_eq(y, z)).leq(truth_eq(x, z))
    assert truth_eq(x, y).meet(truth_mem(y, z)).leq(truth_mem(x, z))
    assert truth_eq(x, y).meet(truth_mem(z, y)).leq(truth_mem(z, x))


class TestStandardNames:
    def test_empty_name(self):
        assert name(0).dom == ()

    def test_schema(self):
        one = name(1)
        assert len(one.dom) == 1
        child, value = one.dom[0]
        assert child is name(0) and value.is_one
        two = name(2)
        assert {c for c, _ in two.dom} == {name(0), name(1)}
        assert all(v.is_one for _, v in two.dom)

    def test_rank_matches_set_rank(self):
        assert name(0).rank == 0
        assert name(1).rank == 1
        assert name(2).rank == 2
        assert standard_name(A4, [[], [[]]]) is name(2)  # literal {0,{0}} = 2

    def test_faithfulness(self):
        hf = [hf_literal(x) for x in (0, 1, 2, 3, [1], [2], [[1]], [0, 2])]
        for u, v in itertools.product(hf, repeat=2):
            nu, nv = standard_name(A4, u), standard_name(A4, v)
            assert (u in v) == truth_mem(nu, nv).is_one
            assert (u == v) == truth_eq(nu, nv).is_one
            # two-valuedness of atomic relations between standard names
            assert truth_mem(nu, nv).is_one or truth_mem(nu, nv).is_zero

    def test_literal_rejections(self):
        with pytest.raises(TypeError):
            hf_literal(True)
        with pytest.raises(ValueError):
            hf_literal(-1)
        with pytest.raises(TypeError):
            hf_literal("abc")


class TestMixing:
    def test_single_piece(self):
        m = mix(Partition((A4.top,)), [name(0)])
        assert truth_eq(m, name(0)).is_one

    def test_two_piece_example(self):
        parts = Partition((A4.element([0, 1]), A4.element([2, 3])))
        m = mix(parts, [name(0), name(1)])
        assert truth_eq(m, name(1)) == A4.element([2, 3])
        assert truth_eq(m, name(0)) == A4.element([0, 1])
        assert truth_mem(m, name(2)).is_one

    def test_mixing_principle_randomized(self):
        rng = random.Random(5)
        for _ in range(50):
            atoms = list(range(4))
            rng.shuffle(atoms)
            cut = rng.randint(1, 3)
            parts = Partition((A4.element(atoms[:cut]), A4.element(atoms[cut:])))
            xs = [random_bset(rng, A4, 2) for _ in range(2)]
            m = mix(parts, xs)
            for b, x in zip(parts, xs):
                assert b.leq(truth_eq(m, x))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mix(Partition((A4.top,)), [name(0), name(1)])

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError):
            mix([A4.element([0, 1]), A4.element([1, 2, 3])], [name(0), name(1)])


class TestAscentDescent:
    def test_ascent_of_empty_list(self):
        assert ascent(A4, []) is name(0)

    def test_ascent_singleton_equals_one(self):
        assert truth_eq(ascent(A4, [name(0)]), name(1)).is_one

    def test_ascent_pair_equals_two(self):
        assert truth_eq(ascent(A4, [name(0), name(1)]), name(2)).is_one

    def test_descent_of_one(self):
        reps = descent(standard_name(A2, 1))
        assert len(reps) == 1
        assert equivalent(reps[0], standard_name(A2, 0))

    def test_descent_of_two_atoms2(self):
        reps = descent(standard_name(A2, 2))
        assert len(reps) == 4  # 0^, 1^, and the two proper mixings

    def test_descent_of_empty(self):
        assert descent(standard_name(A2, 0)) == []

    def test_escher_families(self):
        names = [standard_name(A2, n) for n in range(3)]
        for mask in range(8):
            xs = [names[i] for i in range(3) if mask >> i & 1]
            report = escher_check(A2, xs)
            assert report.ok, (mask, report)

    def test_up_down_matches_atom_mixings(self):
        xs = [standard_name(A2, 0), standard_name(A2, 2)]
        down = descent(ascent(A2, xs))
        expected = atom_mixings(A2, xs)
        assert len(down) == len(expected) == 4

    def test_down_up_on_standard_name(self):
        # names have all values 1, so rebuilding from the descent recovers them
        two = standard_name(A2, 2)
        assert equivalent(ascent(A2, descent(two)), two)

    def test_descent_of_partial_membership(self):
        # nothing attains full membership truth when the only value is partial
        x = bset(A2, [(standard_name(A2, 0), A2.element([0]))])
        assert descent(x) == []


def reference_descent(x):
    """Oracle: mix every |dom|^atoms choice, keep the full members, and
    deduplicate by truth-value equivalence in first-seen order."""
    algebra = x.algebra
    candidates = [t for t, _ in x.dom]
    if not candidates:
        return []
    atom_blocks = tuple(algebra.atom(i) for i in range(algebra.atom_count))
    reps = []
    for choice in itertools.product(candidates, repeat=algebra.atom_count):
        y = mix(atom_blocks, list(choice))
        if not truth_mem(y, x).is_one:
            continue
        if not any(equivalent(y, r) for r in reps):
            reps.append(y)
    return reps


def reference_atom_mixings(algebra, xs):
    """Oracle: every atom mixing of ``xs``, deduplicated in first-seen order."""
    if not xs:
        return []
    atom_blocks = tuple(algebra.atom(i) for i in range(algebra.atom_count))
    reps = []
    for choice in itertools.product(xs, repeat=algebra.atom_count):
        y = mix(atom_blocks, list(choice))
        if not any(equivalent(y, r) for r in reps):
            reps.append(y)
    return reps


def random_small_bset(rng, algebra, max_rank):
    """A random B-valued set of rank <= max_rank with at most 4 children."""
    if max_rank == 0:
        return bset(algebra, ())
    pairs = [(random_small_bset(rng, algebra, rng.randint(0, max_rank - 1)),
              algebra.from_mask(rng.randrange(algebra.full_mask + 1)))
             for _ in range(rng.randint(0, 4))]
    return bset(algebra, pairs)


def assert_same_objects(got, want):
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


class TestStalks:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_descent_and_mixings_match_reference(self, seed, atoms):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        x = random_small_bset(rng, algebra, 3)
        assert_same_objects(descent(x), reference_descent(x))
        xs = [random_small_bset(rng, algebra, 2) for _ in range(rng.randint(0, 4))]
        assert_same_objects(atom_mixings(algebra, xs),
                            reference_atom_mixings(algebra, xs))

    def test_names_match_reference(self):
        for atoms in (1, 2, 3):
            algebra = FiniteBooleanAlgebra(atoms)
            names = [standard_name(algebra, n) for n in range(4)]
            for n in range(4):
                assert_same_objects(descent(names[n]), reference_descent(names[n]))
                assert_same_objects(atom_mixings(algebra, names[:n]),
                                    reference_atom_mixings(algebra, names[:n]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_truth_values_are_atomwise_stalk_relations(self, seed, atoms):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        sets = [random_small_bset(rng, algebra, 3) for _ in range(4)]
        memo = {}
        for x, y in itertools.product(sets, repeat=2):
            sx, sy = stalks(x, memo), stalks(y, memo)
            eq, mem = truth_eq(x, y).mask, truth_mem(x, y).mask
            for i in range(atoms):
                assert bool(eq >> i & 1) == (sx[i] == sy[i])
                assert bool(mem >> i & 1) == (sx[i] in sy[i])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_descent_size_is_product_of_member_stalks(self, seed, atoms):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        x = random_small_bset(rng, algebra, 3)
        memo = {}
        sx = stalks(x, memo)
        members = [{stalks(t, memo)[i] for t, _ in x.dom} & sx[i]
                   for i in range(atoms)]
        assert len(descent(x)) == math.prod(len(m) for m in members)

    def test_stalks_of_standard_names_are_the_set(self):
        for n in range(4):
            assert stalks(name(n), {}) == (hf_literal(n),) * 4

    def test_descent_cap_refuses_before_mixing(self):
        assert len(descent(standard_name(FiniteBooleanAlgebra(6), 4))) == bvu.DESCENT_CAP
        algebra = FiniteBooleanAlgebra(7)
        names = [standard_name(algebra, n) for n in range(5)]
        interned = len(bvu._INTERN)
        with pytest.raises(ResourceCapError):
            descent(names[4])  # 4^7 = 16 384 classes
        with pytest.raises(ResourceCapError):
            atom_mixings(algebra, names[:4])
        assert len(bvu._INTERN) == interned


class TestCanonicalize:
    def test_canonical_form_is_equivalent(self):
        rng = random.Random(11)
        for _ in range(30):
            x = random_bset(rng, A4, 3)
            assert equivalent(canonicalize(x), x)

    def test_drops_zero_entries(self):
        x = bset(A4, [(name(0), A4.bottom), (name(1), A4.top)])
        c = canonicalize(x)
        assert len(c.dom) == 1


class TestEval:
    ENV = {"empty": name(0), "one": name(1), "two": name(2), "three": name(3)}

    def test_forall_single_child(self):
        assert eval_formula(parse("forall t in one : t = empty"), self.ENV).is_one

    def test_exists_over_empty(self):
        assert eval_formula(parse("exists t in empty : t = t"), self.ENV).is_zero

    def test_negation(self):
        assert eval_formula(parse("!(empty = one)"), self.ENV).is_one

    def test_unbound_constant(self):
        with pytest.raises(EvalError):
            eval_formula(parse("ghost = ghost"), self.ENV)

    def test_bound_variable_shadows_env(self):
        f = parse("forall one in two : one in two")
        assert eval_formula(f, self.ENV).is_one

    def test_eval_over_mixed_environment(self):
        parts = Partition((A4.element([0, 1]), A4.element([2, 3])))
        m = mix(parts, [name(0), name(1)])
        env = dict(self.ENV, m=m)
        assert eval_formula(parse("m in two"), env).is_one
        assert eval_formula(parse("m = one"), env) == A4.element([2, 3])

    def test_existential_witnesses(self):
        f = parse("exists t in two : t = one")
        total, contributions, attained = existential_witnesses(f, self.ENV)
        assert total.is_one
        assert attained is name(1)
        assert len(contributions) == 2

    def test_witness_only_attained_by_mixing(self):
        parts = Partition((A4.element([0, 1]), A4.element([2, 3])))
        m = mix(parts, [name(0), name(1)])
        holder = bset(A4, [(name(0), A4.top), (name(1), A4.top)])
        env = dict(self.ENV, holder=holder, m=m)
        f = parse("exists t in holder : t = m")
        total, _, attained = existential_witnesses(f, env)
        assert total.is_one  # each candidate matches m on part of the carrier
        assert attained is None  # but no single candidate attains the join

    def test_iff_evaluates_programmatically(self):
        from bvdesk.formula import Eq, Iff, Var
        f = Iff(Eq(Var("empty"), Var("one")), Eq(Var("one"), Var("two")))
        assert eval_formula(f, self.ENV).is_one  # false iff false
        g = Iff(Eq(Var("empty"), Var("empty")), Eq(Var("one"), Var("two")))
        assert eval_formula(g, self.ENV).is_zero  # true iff false


class TestTransfer:
    def test_battery_passes_and_is_large_enough(self):
        assert len(BATTERY) >= 20
        for atoms in (1, 2, 3):
            outcomes = run_battery(FiniteBooleanAlgebra(atoms))
            assert all(o.ok for o in outcomes)

    def test_classical_eval_matches_hand_truths(self):
        for item in BATTERY:
            f = parse(item.text)
            from bvdesk.formula import free_names
            from bvdesk.battery import BASE_ENV
            env = {n: hf_literal(BASE_ENV[n]) for n in free_names(f)}
            assert classical_eval(f, env) == item.expected

    def test_two_valuedness(self):
        for item in BATTERY:
            f = parse(item.text)
            from bvdesk.formula import free_names
            from bvdesk.battery import BASE_ENV
            env = {n: BASE_ENV[n] for n in free_names(f)}
            report = bounded_transfer_check(f, env, A4)
            assert report.two_valued

    def test_von_neumann_naturals_below_eight(self):
        f = parse(von_neumann_natural_formula("x"))
        for n in range(8):
            report = bounded_transfer_check(f, {"x": n}, A2, max_rank=8)
            assert report.ok and report.classical
        for bad in ([1], [[1]], [0, [1]]):
            report = bounded_transfer_check(f, {"x": bad}, A2)
            assert report.ok and not report.classical


class TestResourceCaps:
    def test_rank_cap(self):
        with pytest.raises(ResourceCapError):
            standard_name(A2, 7)
        assert standard_name(A2, 7, max_rank=8).rank == 7

    def test_dom_cap(self):
        algebra = FiniteBooleanAlgebra(6)
        empty = standard_name(algebra, 0)
        children = [bset(algebra, [(empty, algebra.from_mask(m + 1))])
                    for m in range(DOM_CAP + 1)]  # distinct rank-1 sets
        with pytest.raises(ResourceCapError):
            bset(algebra, [(c, algebra.top) for c in children])


def test_bset_json_round_trip():
    x = bset(A2, [(standard_name(A2, 1), A2.element([1])),
                  (standard_name(A2, 0), A2.top)])
    assert bset_from_json(x.to_json(), A2) is x


def test_env_and_bset_json():
    spec = {
        "empty": {"hf": []},
        "two": {"hf": 2},
        "pair": {"hf": [[], [[]]]},
        "partial": {"dom": [[{"hf": []}, {"atoms": [0]}]]},
    }
    env = env_from_json(spec, A2)
    assert env["empty"] is standard_name(A2, 0)
    assert env["two"] is env["pair"]
    assert truth_mem(env["empty"], env["partial"]) == A2.element([0])
    with pytest.raises(ValueError):
        bset_from_json({"nope": 1}, A2)
