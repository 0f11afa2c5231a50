import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk.boolalg import (AlgebraMismatchError, BoolElem, Cover,
                            FiniteBooleanAlgebra, Partition,
                            axioms_hold_on_triple, common_refinement,
                            _sigma_sides, is_cover, is_partition,
                            is_refined_from, sigma_criteria_check)

A4 = FiniteBooleanAlgebra(4)


def elem(*atoms):
    return A4.element(atoms)


# -- the BoolElem law checks the mask kernels replaced, kept as oracles -------


def reference_axioms_hold_on_triple(a, b, c):
    algebra = a.algebra
    return (
        a.meet(b.meet(c)) == a.meet(b).meet(c)
        and a.join(b.join(c)) == a.join(b).join(c)
        and a.meet(b) == b.meet(a)
        and a.join(b) == b.join(a)
        and a.meet(a.join(b)) == a
        and a.join(a.meet(b)) == a
        and a.meet(b.join(c)) == a.meet(b).join(a.meet(c))
        and a.join(b.meet(c)) == a.join(b).meet(a.join(c))
        and a.meet(a.complement()) == algebra.bottom
        and a.join(a.complement()) == algebra.top
    )


def reference_sigma_form1(matrix):
    """Meet-of-joins vs join over selectors of meets: both sides of form 1."""
    algebra = matrix[0][0].algebra
    lhs = algebra.inf(algebra.sup(row) for row in matrix)
    m = len(matrix[0])
    rhs = algebra.sup(
        algebra.inf(row[sel[i]] for i, row in enumerate(matrix))
        for sel in itertools.product(range(m), repeat=len(matrix))
    )
    return lhs, rhs


def reference_sigma_form2(matrix):
    """Join-of-meets vs meet over selectors of joins: both sides of form 2."""
    algebra = matrix[0][0].algebra
    lhs = algebra.sup(algebra.inf(row) for row in matrix)
    m = len(matrix[0])
    rhs = algebra.inf(
        algebra.sup(row[sel[i]] for i, row in enumerate(matrix))
        for sel in itertools.product(range(m), repeat=len(matrix))
    )
    return lhs, rhs


def reference_sigma_form3(seq):
    """Join over all sign vectors of meets of signed elements, vs 1."""
    algebra = seq[0].algebra
    lhs = algebra.sup(
        algebra.inf(b if s else b.complement() for b, s in zip(seq, signs))
        for signs in itertools.product((True, False), repeat=len(seq))
    )
    return lhs, algebra.top


def kernel_sides(matrix):
    """The mask kernel's sides of forms 1-3, as BoolElem pairs."""
    algebra = matrix[0][0].algebra
    sides = _sigma_sides([[x.mask for x in row] for row in matrix], algebra.full_mask)
    return [tuple(map(algebra.from_mask, pair)) for pair in sides]


def reference_sides(matrix):
    return [reference_sigma_form1(matrix), reference_sigma_form2(matrix),
            reference_sigma_form3([row[0] for row in matrix])]


class TestLatticeOps:
    def test_meet_is_intersection(self):
        assert elem(0, 1).meet(elem(1, 2)) == elem(1)

    def test_complement(self):
        assert elem(0, 1).complement() == elem(2, 3)

    def test_leq_is_subset(self):
        assert elem(0).leq(elem(0, 1))
        assert not elem(1, 2).leq(elem(0, 1))

    def test_implies(self):
        a, b = elem(0, 1), elem(1, 2)
        assert a.implies(b) == a.complement().join(b)

    def test_mismatched_algebras_rejected(self):
        other = FiniteBooleanAlgebra(3).element([0])
        with pytest.raises(AlgebraMismatchError):
            elem(0).meet(other)

    def test_family_bounds(self):
        assert A4.sup([elem(0), elem(2)]) == elem(0, 2)
        assert A4.inf([]) == A4.top
        assert A4.sup([]) == A4.bottom
        assert A4.inf([elem(0, 1), elem(1, 2)]) == elem(1)


def test_axioms_exhaustive_small():
    for n in (1, 2, 3, 4):
        algebra = FiniteBooleanAlgebra(n)
        elements = list(algebra.elements())
        assert all(axioms_hold_on_triple(a, b, c)
                   for a, b, c in itertools.product(elements, repeat=3))


@settings(max_examples=200)
@given(st.integers(5, 16), st.data())
def test_axioms_random_large(atom_count, data):
    algebra = FiniteBooleanAlgebra(atom_count)
    masks = st.integers(0, algebra.full_mask)
    a = algebra.from_mask(data.draw(masks))
    b = algebra.from_mask(data.draw(masks))
    c = algebra.from_mask(data.draw(masks))
    assert axioms_hold_on_triple(a, b, c)


def test_axioms_thousand_random_triples():
    import random

    rng = random.Random(0)
    for _ in range(1000):
        algebra = FiniteBooleanAlgebra(rng.randint(5, 16))
        a, b, c = (algebra.from_mask(rng.randrange(algebra.full_mask + 1))
                   for _ in range(3))
        assert axioms_hold_on_triple(a, b, c)


@settings(max_examples=200)
@given(st.integers(1, 16), st.data())
def test_axioms_match_reference(atom_count, data):
    algebra = FiniteBooleanAlgebra(atom_count)
    masks = st.integers(0, algebra.full_mask)
    a, b, c = (algebra.from_mask(data.draw(masks)) for _ in range(3))
    assert axioms_hold_on_triple(a, b, c) == reference_axioms_hold_on_triple(a, b, c)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_axioms_reject_mixed_algebras(position):
    triple = [elem(0), elem(1), elem(2)]
    triple[position] = FiniteBooleanAlgebra(3).element([0])
    with pytest.raises(AlgebraMismatchError):
        axioms_hold_on_triple(*triple)


class TestPartitionsAndCovers:
    def test_partition_examples(self):
        assert is_partition([elem(0), elem(1, 2), elem(3)])
        assert not is_partition([elem(0, 1), elem(1, 2), elem(3)])  # overlap
        assert is_cover([elem(0, 1), elem(1, 2), elem(3)])
        assert not is_cover([elem(0, 1)])
        assert not is_partition([elem(0, 1), A4.bottom, elem(2, 3)])

    def test_partition_type_validates(self):
        with pytest.raises(ValueError):
            Partition((elem(0, 1), elem(1, 2), elem(3)))
        with pytest.raises(ValueError):
            Cover((elem(0, 1),))

    def test_refined_from_element(self):
        c = [elem(0, 1), elem(2, 3)]
        assert is_refined_from(elem(0), c)
        assert not is_refined_from(elem(1, 2), c)

    def test_refined_from_cover(self):
        assert is_refined_from([elem(0), elem(2, 3)], [elem(0, 1), elem(2, 3)])

    def test_refinement_monotone(self):
        # shrinking the refined side or enlarging the refining side never
        # flips a positive verdict
        x = [elem(0), elem(2, 3)]
        c = [elem(0, 1), elem(2, 3)]
        assert is_refined_from(x, c)
        shrunk = [elem(0), elem(2)]
        assert is_refined_from(shrunk, c)
        enlarged = [elem(0, 1), elem(1, 2, 3)]
        assert is_refined_from(x, enlarged)

    @settings(max_examples=200)
    @given(st.integers(2, 6), st.data())
    def test_refinement_monotone_property(self, atoms, data):
        algebra = FiniteBooleanAlgebra(atoms)
        masks = st.integers(0, algebra.full_mask)
        x = [algebra.from_mask(data.draw(masks)) for _ in range(3)]
        c = [algebra.from_mask(data.draw(masks)) for _ in range(3)]
        if not is_refined_from(x, c):
            return
        shrunk = [m.meet(algebra.from_mask(data.draw(masks))) for m in x]
        enlarged = [m.join(algebra.from_mask(data.draw(masks))) for m in c]
        assert is_refined_from(shrunk, c)
        assert is_refined_from(x, enlarged)
        assert is_refined_from(shrunk, enlarged)


def _all_set_partitions(items):
    if not items:
        yield []
        return
    head, *rest = items
    for sub in _all_set_partitions(rest):
        yield [[head]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]


def _partitions_of(algebra):
    for blocks in _all_set_partitions(list(range(algebra.atom_count))):
        yield Partition(tuple(algebra.element(b) for b in blocks))


class TestCommonRefinement:
    def test_example(self):
        p1 = Partition((elem(0, 1), elem(2, 3)))
        p2 = Partition((elem(0, 2), elem(1, 3)))
        assert common_refinement([p1, p2]).blocks == (elem(0), elem(1), elem(2), elem(3))

    def test_single_partition_idempotent(self):
        p = Partition((elem(0, 1), elem(2, 3)))
        assert common_refinement([p]).blocks == p.blocks

    def test_trivial_partition_absorbed(self):
        p1 = Partition((A4.top,))
        p2 = Partition((elem(0), elem(1, 2, 3)))
        assert common_refinement([p1, p2]).blocks == p2.blocks

    @pytest.mark.parametrize("atoms", [2, 3, 4])
    def test_coarsest_refinement_exhaustive(self, atoms):
        algebra = FiniteBooleanAlgebra(atoms)
        all_parts = list(_partitions_of(algebra))
        for p1, p2 in itertools.product(all_parts, repeat=2):
            r = common_refinement([p1, p2])
            assert is_refined_from(r, p1) and is_refined_from(r, p2)
            for q in all_parts:
                if is_refined_from(q, p1) and is_refined_from(q, p2):
                    assert is_refined_from(q, r)


class TestSigmaCriteria:
    def test_form3_two_elements(self):
        matrix = [[elem(0, 1)], [elem(0, 2)]]
        assert kernel_sides(matrix)[2] == (A4.top, A4.top)
        lhs, rhs = reference_sigma_form3([elem(0, 1), elem(0, 2)])
        assert lhs == rhs == A4.top

    def test_form3_single_zero(self):
        assert kernel_sides([[A4.bottom]])[2] == (A4.top, A4.top)
        lhs, rhs = reference_sigma_form3([A4.bottom])
        assert lhs == rhs == A4.top

    def test_report_all_hold(self):
        report = sigma_criteria_check([[elem(0, 1)], [elem(0, 2)]])
        assert report.all_hold
        assert report.n_index == 2 and report.m_index == 1

    @settings(max_examples=150)
    @given(st.integers(1, 4), st.data())
    def test_random_matrices_all_hold(self, atoms, data):
        algebra = FiniteBooleanAlgebra(atoms)
        masks = st.integers(0, algebra.full_mask)
        matrix = [[algebra.from_mask(data.draw(masks)) for _ in range(3)]
                  for _ in range(3)]
        assert sigma_criteria_check(matrix).all_hold

    @settings(max_examples=200)
    @given(st.integers(1, 16), st.integers(1, 4), st.integers(1, 3), st.data())
    def test_kernel_sides_match_reference(self, atoms, rows, cols, data):
        algebra = FiniteBooleanAlgebra(atoms)
        masks = st.integers(0, algebra.full_mask)
        matrix = [[algebra.from_mask(data.draw(masks)) for _ in range(cols)]
                  for _ in range(rows)]
        expected = reference_sides(matrix)
        assert kernel_sides(matrix) == expected
        report = sigma_criteria_check(matrix)
        assert [report.form1, report.form2, report.form3] == [l == r for l, r in expected]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (2, 2)])
    def test_kernel_sides_at_the_shape_edges(self, shape):
        rows, cols = shape
        masks = itertools.cycle([0b0011, 0b0110, 0b1000, 0b0101, 0, 0b1111])
        matrix = [[A4.from_mask(next(masks)) for _ in range(cols)] for _ in range(rows)]
        assert kernel_sides(matrix) == reference_sides(matrix)

    @pytest.mark.parametrize("matrix", [
        [[elem(0), FiniteBooleanAlgebra(3).element([0])]],
        [[elem(0)], [FiniteBooleanAlgebra(3).element([0])]],
        [[FiniteBooleanAlgebra(3).element([0])], [elem(0)]],
    ])
    def test_mixed_algebras_rejected(self, matrix):
        with pytest.raises(AlgebraMismatchError):
            sigma_criteria_check(matrix)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sigma_criteria_check([])
        with pytest.raises(ValueError):
            sigma_criteria_check([[elem(0)], [elem(0), elem(1)]])


def test_json_round_trip():
    e = elem(2, 0)
    assert e.to_json() == {"atoms": [0, 2]}
    assert BoolElem.from_json(e.to_json(), A4) == e
    with pytest.raises(ValueError):
        BoolElem.from_json({"bad": 1}, A4)
