import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk.battery import BATTERY, run_battery
from bvdesk.boolalg import BoolElem, FiniteBooleanAlgebra, Partition
from bvdesk import bvu
from bvdesk.bvu import (DOM_CAP, EscherReport, EvalError, ResourceCapError,
                        ascent, atom_mixings, bounded_transfer_check, bset,
                        bset_from_json, canonicalize, classical_eval, descent,
                        env_from_json, equivalent, escher_check, eval_atomwise,
                        eval_formula, existential_witnesses, hf_literal, mix,
                        stalks, standard_name, truth_eq, truth_mem)
from bvdesk import formula as F
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
    # one memo entry serves both orders, so check each against the oracle too
    assert truth_eq(x, y) == reference_truth_eq(x, y)
    assert truth_eq(y, x) == reference_truth_eq(y, x)
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
        for bad in (True, False, "abc", "3"):
            with pytest.raises(TypeError):
                hf_literal(bad)
        for bad in (-1, -8):
            with pytest.raises(ValueError):
                hf_literal(bad)

    def test_naturals_match_the_recursive_literal(self):
        def natural(n):
            return frozenset(natural(k) for k in range(n))

        for n in range(9):
            assert hf_literal(n) == natural(n)
        assert len(hf_literal(500)) == 500  # n successor steps, not 2^n sets


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
        with pytest.raises(ValueError):
            mix([], [])


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


# -- reference oracle: the BoolElem recursion the mask core replaced -------------

_REF_MEM: dict = {}
_REF_EQ: dict = {}


def reference_truth_mem(x, y):
    """[[x in y]] computed with BoolElem operations, memoized by uid pair."""
    key = (x.uid, y.uid)
    hit = _REF_MEM.get(key)
    if hit is None:
        if x.algebra.atom_count != y.algebra.atom_count:
            raise ValueError("B-valued sets live over different algebras")
        hit = y.algebra.bottom
        for t, b in y.dom:
            hit = hit.join(b.meet(reference_truth_eq(t, x)))
        _REF_MEM[key] = hit
    return hit


def reference_truth_eq(x, y):
    """[[x = y]] computed with BoolElem operations, memoized by uid pair."""
    key = (x.uid, y.uid)
    hit = _REF_EQ.get(key)
    if hit is None:
        if x.algebra.atom_count != y.algebra.atom_count:
            raise ValueError("B-valued sets live over different algebras")
        hit = x.algebra.top
        for t, b in x.dom:
            hit = hit.meet(b.implies(reference_truth_mem(t, y)))
        for t, b in y.dom:
            hit = hit.meet(b.implies(reference_truth_mem(t, x)))
        _REF_EQ[key] = hit
    return hit


def reference_equivalent(x, y):
    return reference_truth_eq(x, y).is_one


def reference_mix(blocks, xs):
    algebra = blocks[0].algebra
    children = {t.uid: t for x in xs for t, _ in x.dom}
    return bset(algebra, [
        (t, algebra.sup(b.meet(reference_truth_mem(t, x)) for b, x in zip(blocks, xs)))
        for t in children.values()])


def reference_canonicalize(x):
    """Children canonicalized, deduplicated pairwise in dom order, revalued."""
    reps = []
    for t, _ in x.dom:
        ct = reference_canonicalize(t)
        if not any(reference_equivalent(ct, r) for r in reps):
            reps.append(ct)
    return bset(x.algebra, [(t, reference_truth_mem(t, x)) for t in reps
                            if not reference_truth_mem(t, x).is_zero])


def reference_eval(f, env, algebra):
    if isinstance(f, F.Eq):
        return reference_truth_eq(env[f.left.name], env[f.right.name])
    if isinstance(f, F.Mem):
        return reference_truth_mem(env[f.left.name], env[f.right.name])
    if isinstance(f, F.Not):
        return reference_eval(f.body, env, algebra).complement()
    if isinstance(f, (F.And, F.Or, F.Implies, F.Iff)):
        a = reference_eval(f.left, env, algebra)
        b = reference_eval(f.right, env, algebra)
        if isinstance(f, F.And):
            return a.meet(b)
        if isinstance(f, F.Or):
            return a.join(b)
        if isinstance(f, F.Implies):
            return a.implies(b)
        return a.implies(b).meet(b.implies(a))
    z = env[f.bound.name]
    values = [(b, reference_eval(f.body, {**env, f.var: t}, algebra)) for t, b in z.dom]
    if isinstance(f, F.Forall):
        return algebra.inf(b.implies(v) for b, v in values)
    return algebra.sup(b.meet(v) for b, v in values)


def reference_escher(algebra, xs):
    """Arrow checks with pairwise equivalence loops."""
    y = ascent(algebra, xs)
    down = descent(y)
    expected = atom_mixings(algebra, xs)
    matches = (len(down) == len(expected)
               and all(any(reference_equivalent(d, e) for e in expected) for d in down)
               and all(any(reference_equivalent(e, d) for d in down) for e in expected))
    return EscherReport(matches, reference_equivalent(ascent(algebra, down), y),
                        len(down), len(expected))


def random_formula(rng, names, depth):
    """A random formula over ``names``, at most ``depth`` connectives deep."""
    if depth == 0 or rng.random() < 0.25:
        kind = F.Eq if rng.random() < 0.5 else F.Mem
        return kind(F.Var(rng.choice(names)), F.Var(rng.choice(names)))
    k = rng.randrange(8)
    if k == 0:
        return F.Not(random_formula(rng, names, depth - 1))
    if k <= 4:
        return (F.And, F.Or, F.Implies, F.Iff)[k - 1](random_formula(rng, names, depth - 1),
                                                     random_formula(rng, names, depth - 1))
    var = rng.choice([f"v{depth}", *names])  # may shadow a name in scope
    return (F.Forall if k <= 6 else F.Exists)(
        var, F.Var(rng.choice(names)), random_formula(rng, names + [var], depth - 1))


def random_family(rng, algebra, count):
    return [random_small_bset(rng, algebra, 3) for _ in range(count)]


def random_blocks(rng, algebra):
    """A random partition of unity as a list of BoolElems."""
    labels = [rng.randrange(3) for _ in range(algebra.atom_count)]
    return [algebra.element([i for i, lab in enumerate(labels) if lab == block])
            for block in sorted(set(labels))]


class TestMaskCore:
    """The mask core against the BoolElem recursion and the atomwise stalks."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_truth_values_match_both_oracles(self, seed, atoms):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        sets = random_family(rng, algebra, 5)
        memo = {}
        for x, y in itertools.product(sets, repeat=2):
            eq, mem = truth_eq(x, y), truth_mem(x, y)
            assert eq == reference_truth_eq(x, y)
            assert mem == reference_truth_mem(x, y)
            assert equivalent(x, y) == reference_equivalent(x, y)
            sx, sy = stalks(x, memo), stalks(y, memo)
            assert eq.mask == sum(1 << i for i in range(atoms) if sx[i] == sy[i])
            assert mem.mask == sum(1 << i for i in range(atoms) if sx[i] in sy[i])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_formulas_match_both_oracles(self, seed, atoms):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        env = dict(zip(("a", "b", "c"), random_family(rng, algebra, 3)))
        for _ in range(4):
            f = random_formula(rng, list(env), 3)
            value = eval_formula(f, env, algebra)
            assert value == reference_eval(f, env, algebra)
            assert value == eval_atomwise(f, env)
        g = F.Exists("w", F.Var(rng.choice(list(env))), random_formula(rng, [*env, "w"], 2))
        total, contributions, attained = existential_witnesses(g, env, algebra)
        z = env[g.bound.name]
        want = [(t, b.meet(reference_eval(g.body, {**env, "w": t}, algebra)))
                for t, b in z.dom]
        assert total == reference_eval(g, env, algebra)
        assert contributions == want
        assert attained is next((t for t, v in want if v == total), None)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_mix_matches_reference(self, seed, atoms):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        blocks = random_blocks(rng, algebra)
        xs = random_family(rng, algebra, len(blocks))
        m = mix(blocks, xs)
        assert m is reference_mix(blocks, xs)
        assert m is mix(Partition(tuple(blocks)), xs)
        for b, x in zip(blocks, xs):
            assert b.leq(truth_eq(m, x))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_canonicalize_matches_reference_and_keeps_stalks(self, seed, atoms):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        for x in random_family(rng, algebra, 4):
            c = canonicalize(x)
            assert c is reference_canonicalize(x)
            assert stalks(c, {}) == stalks(x, {})
            assert all(b.mask for _, b in c.dom)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_escher_matches_reference(self, seed, atoms):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        xs = random_family(rng, algebra, rng.randint(0, 3))
        assert escher_check(algebra, xs) == reference_escher(algebra, xs)

    def test_quantifier_restores_a_shadowed_name(self):
        env = {"one": name(1), "two": name(2), "three": name(3)}
        f = parse("(forall one in three : one in three) & !(one = two)")
        assert eval_formula(f, env).is_one
        assert eval_atomwise(f, env).is_one

    @staticmethod
    def _check_wrong_descent(monkeypatch, wrong):
        xs = [name(0, A2), name(1, A2)]
        right = bvu.descent
        monkeypatch.setattr(bvu, "descent", lambda y: right(y)[:-1] + [wrong()])
        report = escher_check(A2, xs)
        assert report.up_down_classes == report.expected_classes == 4
        assert not report.up_down_ok and not report.down_up_ok

    def test_escher_detects_a_wrong_descent(self, monkeypatch):
        self._check_wrong_descent(monkeypatch, lambda: name(3, A2))

    def test_escher_detects_a_descent_wrong_at_one_atom(self, monkeypatch):
        # differs from the last class at atom 1 only
        self._check_wrong_descent(
            monkeypatch,
            lambda: mix([A2.atom(0), A2.atom(1)], [name(1, A2), name(3, A2)]))

    def test_cross_algebra_calls_raise(self):
        x2, x3 = standard_name(A2, 1), standard_name(FiniteBooleanAlgebra(3), 1)
        y2 = bset(A2, [(standard_name(A2, 0), A2.element([0]))])
        for call in (lambda: truth_eq(x2, x3), lambda: truth_mem(x3, x2),
                     lambda: equivalent(x2, x3),
                     lambda: mix(Partition((A2.top,)), [x3]),
                     lambda: mix([A2.element([0]), A2.element([1])], [y2, x3]),
                     lambda: bset(A2, [(x3, A2.top)]),
                     lambda: bset(A2, [(x2, A4.top)]),
                     lambda: atom_mixings(A2, [x2, x3]),
                     lambda: atom_mixings(A2, [x3]),
                     lambda: escher_check(A2, [x3])):
            with pytest.raises(ValueError):
                call()
        env = {"a": x2, "b": x3}
        for f in ("a = b", "a in a"):
            with pytest.raises(ValueError):
                eval_formula(parse(f), env)
            with pytest.raises(ValueError):
                eval_atomwise(parse(f), env)
        with pytest.raises(ValueError):
            eval_formula(parse("a = a"), {"a": x3}, A2)
        with pytest.raises(ValueError):
            existential_witnesses(parse("exists t in a : t = a"), env)

    def test_atomwise_unbound_and_empty_environment(self):
        with pytest.raises(EvalError):
            eval_atomwise(parse("ghost = ghost"), {"empty": name(0)})
        with pytest.raises(EvalError):
            eval_atomwise(parse("a = a"), {})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_any_query_order_gives_the_reference_values(self, seed, atoms):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        bvu.clear_truth_caches()
        sets = random_family(rng, algebra, 5)
        queries = [(f, x, y) for f in (truth_eq, truth_mem)
                   for x, y in itertools.product(sets, repeat=2)]
        rng.shuffle(queries)
        if rng.random() < 0.5:  # every (y, x) with x.uid < y.uid before any (x, y)
            queries.sort(key=lambda q: q[1].uid < q[2].uid)
        memo = {}
        for f, x, y in queries + queries:
            sx, sy = stalks(x, memo), stalks(y, memo)
            if f is truth_eq:
                assert f(x, y) == reference_truth_eq(x, y)
                assert f(x, y).mask == sum(1 << i for i in range(atoms) if sx[i] == sy[i])
            else:
                assert f(x, y) == reference_truth_mem(x, y)
                assert f(x, y).mask == sum(1 << i for i in range(atoms) if sx[i] in sy[i])
        assert all(a <= b for a, b in bvu._EQ_CACHE)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_warm_truth_calls_do_not_recurse(self, seed, atoms):
        rng = random.Random(seed)
        sets = random_family(rng, FiniteBooleanAlgebra(atoms), 4)
        bvu.clear_truth_caches()
        pairs = list(itertools.product(sets, repeat=2))
        # [[=]] in one order only: the other order reuses the returned element
        eq = {(x.uid, y.uid): truth_eq(x, y) for x, y in pairs if x.uid <= y.uid}
        mem = {(x.uid, y.uid): truth_mem(x, y) for x, y in pairs}
        real = bvu._eq, bvu._mem
        try:
            bvu._eq = lambda *args: pytest.fail("warm truth_eq recursed")
            bvu._mem = lambda *args: pytest.fail("warm truth_mem recursed")
            for x, y in pairs:
                assert truth_eq(x, y) is eq[min(x.uid, y.uid), max(x.uid, y.uid)]
                assert truth_mem(x, y) is mem[x.uid, y.uid]
        finally:
            bvu._eq, bvu._mem = real

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_signatures_match_the_oracles_across_a_clear(self, seed, atoms):
        """The signature kernel against the reference recursion and the
        reference_* oracles, over sets with zero-valued children and mixed
        ranks built before and after clear_truth_caches."""
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)

        def family():
            return [random_bset_with_zeros(rng, algebra, rng.randint(0, 3)) for _ in range(3)]

        sets = family()
        bvu.clear_truth_caches()
        sets += family()
        for x, y in itertools.product(sets, repeat=2):
            assert truth_eq(x, y) == reference_truth_eq(x, y)
            assert truth_mem(x, y) == reference_truth_mem(x, y)
        for x in sets:
            assert canonicalize(x) is reference_canonicalize(x)
            if len(x.entries) ** atoms <= 64:  # the oracle mixes every choice
                assert_same_objects(descent(x), reference_descent(x))
        xs = sets[:max(k for k in (1, 2, 3) if k ** atoms <= DOM_CAP)]
        assert escher_check(algebra, xs) == reference_escher(algebra, xs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_shared_stalk_ids_are_equal_stalks(self, seed, atoms):
        """Two sets share a stalk id, at the same atom or at two atoms,
        exactly when their frozenset stalks there are equal."""
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        sets = [random_bset_with_zeros(rng, algebra, rng.randint(0, 3)) for _ in range(5)]
        memo = {}
        for x, y in itertools.product(sets, repeat=2):
            sx, sy = stalks(x, memo), stalks(y, memo)
            for i, j in itertools.product(range(atoms), repeat=2):
                assert (x.sig[i] == y.sig[j]) == (sx[i] == sy[j])


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

    def test_equivalent_children_merge_into_the_first(self):
        # b = {0^@1, d@0} equals a = {0^@1}, but its canonical form keeps d at
        # [[d = 0^]] = {1}, so the two canonical children differ and are merged
        d = bset(A2, [(name(0, A2), A2.element([0]))])
        a = bset(A2, [(name(0, A2), A2.top)])
        b = bset(A2, [(name(0, A2), A2.top), (d, A2.bottom)])
        assert a.uid < b.uid and equivalent(a, b)
        assert canonicalize(a) is not canonicalize(b)
        c = canonicalize(bset(A2, [(a, A2.top), (b, A2.top)]))
        assert [t for t, _ in c.dom] == [canonicalize(a)]


def subtree(x):
    """``x`` and its hereditary members, each once, children before parents."""
    seen, order = set(), []

    def visit(y):
        if y.uid not in seen:
            seen.add(y.uid)
            for t, _ in y.dom:
                visit(t)
            order.append(y)

    visit(x)
    return order


class TestCanonicalMemo:
    """canonicalize's table of canonical forms against reference_canonicalize."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.sampled_from(["up", "down", "mixed"]))
    def test_any_call_order_gives_the_reference_objects(self, seed, atoms, order):
        rng = random.Random(seed)
        algebra = FiniteBooleanAlgebra(atoms)
        bvu.clear_truth_caches()
        family = random_family(rng, algebra, 3)
        sets = [y for x in family for y in subtree(x)]
        if order == "down":  # each parent before its subtree
            sets.reverse()
        elif order == "mixed":
            sets = [rng.choice(sets) for _ in range(2 * len(sets))]
        for y in sets + sets[::-1]:  # every set asked at least twice
            assert canonicalize(y) is reference_canonicalize(y)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_clear_empties_the_table_and_keeps_the_objects(self, seed, atoms):
        rng = random.Random(seed)
        family = random_family(rng, FiniteBooleanAlgebra(atoms), 3)
        before = [canonicalize(x) for x in family]
        assert bvu._CANON
        bvu.clear_truth_caches()
        assert bvu._CANON == {}
        after = [canonicalize(x) for x in family]
        assert all(a is b is reference_canonicalize(x)
                   for a, b, x in zip(after, before, family))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_warm_calls_do_not_recurse(self, seed, atoms):
        rng = random.Random(seed)
        family = random_family(rng, FiniteBooleanAlgebra(atoms), 3)
        bvu.clear_truth_caches()
        first = [canonicalize(x) for x in family]
        real = bvu._canonical
        try:
            bvu._canonical = lambda *args: pytest.fail("warm canonicalize recursed")
            # the roots' subtrees were canonicalized on the way, so they are warm too
            assert [canonicalize(x) for x in family] == first
            for x in family:
                for y in subtree(x):
                    assert canonicalize(y) is reference_canonicalize(y)
        finally:
            bvu._canonical = real


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

    def test_unbound_constant_in_a_skipped_body(self):
        # Only zero-valued entries: no body is evaluated, yet the name is unbound.
        x = bset(A4, [(name(0), A4.bottom), (name(1), A4.bottom)])
        for f in ("forall a in x : a = ghost", "exists a in x : ghost in a",
                  "(exists a in x : a = a) & ghost = x"):
            with pytest.raises(EvalError, match="ghost"):
                eval_formula(parse(f), {"x": x})
            with pytest.raises(EvalError, match="ghost"):
                eval_atomwise(parse(f), {"x": x})
        with pytest.raises(EvalError, match="ghost"):
            existential_witnesses(parse("exists a in x : a = ghost"), {"x": x})

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


def reference_natural_formula(name):
    """A bounded formula true of exactly the von Neumann naturals: transitivity
    plus membership trichotomy characterize the finite ordinals among
    hereditarily finite sets."""
    return (f"(forall a in {name} : forall b in a : b in {name})"
            f" & (forall a in {name} : forall b in {name} : (a in b | b in a | a = b))")


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

    def test_von_neumann_naturals_below_eight(self, monkeypatch):
        monkeypatch.setattr(bvu, "RANK_CAP", 8)
        f = parse(reference_natural_formula("x"))
        for n in range(8):
            report = bounded_transfer_check(f, {"x": n}, A2)
            assert report.ok and report.classical
        for bad in ([1], [[1]], [0, [1]]):
            report = bounded_transfer_check(f, {"x": bad}, A2)
            assert report.ok and not report.classical


class TestResourceCaps:
    def test_rank_cap(self, monkeypatch):
        with pytest.raises(ResourceCapError):
            standard_name(A2, 7)
        with monkeypatch.context() as patch:
            patch.setattr(bvu, "RANK_CAP", 8)
            seven = standard_name(A2, 7)
            assert canonicalize(seven) is seven
            dropped = bset(A2, [(seven, A2.bottom)])  # rank 8, canonical form {}
            assert canonicalize(dropped) is bset(A2, ())
        assert seven.rank == 7
        with pytest.raises(ResourceCapError):  # interned already, still over the cap
            bset(A2, [(c, A2.top) for c in seven.children()])
        with pytest.raises(ResourceCapError):  # named already, still over the cap
            standard_name(A2, 7)
        for x in (seven, dropped):  # canonicalized already, still over the cap
            with pytest.raises(ResourceCapError):
                canonicalize(x)

    def test_dom_cap(self):
        algebra = FiniteBooleanAlgebra(6)
        empty = standard_name(algebra, 0)
        children = [bset(algebra, [(empty, algebra.from_mask(m + 1))])
                    for m in range(DOM_CAP + 1)]  # distinct rank-1 sets
        with pytest.raises(ResourceCapError):
            bset(algebra, [(c, algebra.top) for c in children])


def test_bset_joins_the_values_of_a_repeated_child():
    x = bset(A4, [(name(0), A4.element([0])), (name(0), A4.element([2]))])
    assert x.dom == ((name(0), A4.element([0, 2])),)
    assert x.entries == ((name(0), 0b101),)


def random_bset_with_zeros(rng, algebra, rank):
    """A random B-valued set of rank <= ``rank`` whose children are
    zero-valued about a third of the time."""
    if rank == 0:
        return bset(algebra, ())
    pairs = [(random_bset_with_zeros(rng, algebra, rng.randint(0, rank - 1)),
              algebra.from_mask(0 if rng.random() < 1 / 3
                                else rng.randrange(algebra.full_mask + 1)))
             for _ in range(rng.randint(1, 3))]
    return bset(algebra, pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_zero_valued_children_stay_in_the_domain(seed, atoms):
    """A set stores its domain once, as (child, mask) entries; a zero-valued
    child stays an entry, and every public view of the domain keeps it."""
    rng = random.Random(seed)
    algebra = FiniteBooleanAlgebra(atoms)
    empty = bset(algebra, ())
    with_zero = bset(algebra, [(empty, algebra.bottom), (standard_name(algebra, 1), algebra.top)])
    assert (empty, 0) in with_zero.entries
    sets = [with_zero] + [random_bset_with_zeros(rng, algebra, 3) for _ in range(3)]
    body = F.Eq(F.Var("w"), F.Var("w"))
    for x in sets:
        assert x.dom == tuple((t, BoolElem(algebra, m)) for t, m in x.entries)
        assert x.children() == tuple(t for t, _ in x.entries)
        assert x.to_json() == {"dom": [[t.to_json(), BoolElem(algebra, m).to_json()]
                                       for t, m in x.entries]}
        assert bset_from_json(x.to_json(), algebra) is x
        _, contributions, _ = existential_witnesses(F.Exists("w", F.Var("z"), body), {"z": x})
        assert contributions == list(x.dom)
        for y in sets:
            assert truth_mem(x, y) == reference_truth_mem(x, y)
            assert truth_eq(x, y) == reference_truth_eq(x, y)


def test_descent_takes_zero_valued_children_as_candidates():
    """A class is represented by the first mixing of its choices over the
    whole domain, zero-valued children included.  Both children have the
    stalk {} at atom 0, and the first in dom order is the zero-valued one."""
    pair = [bset(A2, [(standard_name(A2, n), A2.element([1]))]) for n in (1, 2)]
    first, second = sorted(pair, key=lambda t: t.uid)
    x = bset(A2, [(first, A2.bottom), (second, A2.top)])
    atom_blocks = [A2.atom(0), A2.atom(1)]
    assert_same_objects(descent(x), [mix(atom_blocks, [first, second])])
    assert_same_objects(descent(x), reference_descent(x))
    assert descent(x)[0] is not second


def test_building_sets_makes_no_boolelem(monkeypatch):
    """Interning, naming, mixing, descent and canonical forms work on masks:
    once the inputs exist, they build no BoolElem."""
    algebra = FiniteBooleanAlgebra(3)
    low, high = algebra.element([0]), algebra.element([1, 2])
    blocks = [low, high]
    monkeypatch.setattr(bvu, "_INTERN", {})  # so that every set below is built anew
    monkeypatch.setattr(bvu, "_NAME_CACHE", {})

    def no_boolelem(*args):
        raise AssertionError("a BoolElem was built")

    monkeypatch.setattr(bvu, "BoolElem", no_boolelem)
    one = standard_name(algebra, 1)
    x = bset(algebra, [(one, low), (standard_name(algebra, 0), algebra.bottom)])
    m = mix(blocks, [x, standard_name(algebra, 2)])
    assert len(descent(m)) == 4  # m = {one@1, empty@high}: 1 * 2 * 2 atom choices
    assert canonicalize(x).entries == ((one, low.mask),)


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
