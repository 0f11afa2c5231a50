import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk.boolalg import FiniteBooleanAlgebra
from bvdesk.bvu import truth_eq
from bvdesk.lattice import (AtomicLattice, ComplexVector, LatticeVector,
                            encode_as_bset, gordon_check,
                            is_local_hamel_basis, is_locally_constant,
                            is_locally_linearly_independent,
                            local_hamel_expand, MAX_EXPONENT, rat, truth_vec)

L2 = AtomicLattice(2)
L3 = AtomicLattice(3)


class TestVectorOps:
    def test_sup_inf_abs(self):
        x, y = L3.vector([1, 2, 3]), L3.vector([3, 2, 1])
        assert x.sup(y) == L3.vector([3, 2, 3])
        assert x.inf(y) == L3.vector([1, 2, 1])
        assert L2.vector([-2, 5]).abs() == L2.vector([2, 5])

    def test_band_projection(self):
        pi = FiniteBooleanAlgebra(3).element([0, 2])
        assert L3.vector([1, 2, 3]).band_project(pi) == L3.vector([1, 0, 3])

    def test_f_product(self):
        assert L2.vector([2, 3]).mul(L2.vector([5, 7])) == L2.vector([10, 21])
        x = L3.vector(["1/2", 2, -3])
        assert x.mul(L3.unity()) == x

    def test_semiprimeness_witness(self):
        e0, e1 = L2.vector([1, 0]), L2.vector([0, 1])
        assert e0.mul(e1).is_zero()
        assert e0.disjoint(e1)

    def test_faithful_product(self):
        # x * y = 0 iff the supports are disjoint, coordinatewise
        rng = random.Random(3)
        for _ in range(100):
            x = LatticeVector(tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)))
            y = LatticeVector(tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)))
            assert x.mul(y).is_zero() == x.disjoint(y)

    def test_fraction_coordinates_are_not_rewrapped(self):
        half = Fraction(1, 2)
        x = LatticeVector((half, 3, "-1/4"))
        assert x.coords[0] is half
        assert all(type(c) is Fraction for c in x.coords)
        assert x.coords[1:] == (Fraction(3), Fraction(-1, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            L2.vector([1, 2]).add(L3.vector([1, 2, 3]))

    def test_json_round_trip(self):
        x = L3.vector(["1/2", "-3", "0"])
        assert LatticeVector.from_json(x.to_json()) == x
        assert x.to_json() == {"coords": ["1/2", "-3", "0"]}


class TestRationalStrings:
    def test_plain_and_small_exponents_parse_as_before(self):
        for text in ("16/45", "0.5", "1e3", " -2/3 ", "1.5E-2", "1e+0_3",
                     f"1e-{MAX_EXPONENT}", f"1e{MAX_EXPONENT}", f"1e0000{MAX_EXPONENT}"):
            assert rat(text) == Fraction(text.strip())

    @pytest.mark.parametrize("text", [f"1e{MAX_EXPONENT + 1}", f"1e-{MAX_EXPONENT + 1}",
                                      "1e-9999999", "1e999999",
                                      "1e" + "9" * 100_000, "1E-1_000_000"])
    def test_large_exponents_refused_before_expansion(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            rat(text)
        assert time.perf_counter() - start < 0.1


class TestTruthAndProjectionIdentities:
    def test_truth_vec_examples(self):
        x, y = L3.vector([1, 2, 3]), L3.vector([3, 2, 1])
        assert truth_vec(x, y, "=") == FiniteBooleanAlgebra(3).element([1])
        assert truth_vec(x, y, "<=") == FiniteBooleanAlgebra(3).element([0, 1])
        assert truth_vec(x, x, "=").is_one

    def test_gordon_example(self):
        b = FiniteBooleanAlgebra(3).element([1])
        assert gordon_check(b, L3.vector([1, 2, 3]), L3.vector([3, 2, 1])).ok

    def test_gordon_zero_projection(self):
        b = FiniteBooleanAlgebra(3).bottom
        assert gordon_check(b, L3.vector([1, 2, 3]), L3.vector([9, 9, 9])).ok

    @settings(max_examples=200)
    @given(st.integers(1, 12), st.data())
    def test_gordon_random(self, dim, data):
        algebra = FiniteBooleanAlgebra(dim)
        b = algebra.from_mask(data.draw(st.integers(0, algebra.full_mask)))
        coords = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        x = LatticeVector(tuple(data.draw(coords) for _ in range(dim)))
        y = LatticeVector(tuple(data.draw(coords) for _ in range(dim)))
        assert gordon_check(b, x, y).ok


class TestComplex:
    def test_abs_sq(self):
        z = ComplexVector(AtomicLattice(1).vector([3]), AtomicLattice(1).vector([4]))
        assert z.abs_sq() == AtomicLattice(1).vector([25])

    def test_disjointness(self):
        z = ComplexVector(L2.vector([1, 0]), L2.zero())
        w = ComplexVector(L2.zero(), L2.vector([0, 1]))
        assert z.disjoint(w)
        assert not z.disjoint(ComplexVector(L2.vector([1, 1]), L2.zero()))

    def test_squared_modulus_multiplicative(self):
        rng = random.Random(9)
        for _ in range(50):
            vecs = [LatticeVector(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                        for _ in range(3))) for _ in range(4)]
            z = ComplexVector(vecs[0], vecs[1])
            w = ComplexVector(vecs[2], vecs[3])
            assert z.mul(w).abs_sq() == z.abs_sq().mul(w.abs_sq())

    def test_product_formula(self):
        one = AtomicLattice(1)
        z = ComplexVector(one.vector([1]), one.vector([2]))
        w = ComplexVector(one.vector([3]), one.vector([4]))
        zw = z.mul(w)
        assert zw.re == one.vector([-5]) and zw.im == one.vector([10])

    def test_disjointness_via_abs_sq(self):
        rng = random.Random(13)
        for _ in range(100):
            vecs = [LatticeVector(tuple(Fraction(rng.randint(-1, 1)) for _ in range(3)))
                    for _ in range(4)]
            z = ComplexVector(vecs[0], vecs[1])
            w = ComplexVector(vecs[2], vecs[3])
            assert z.disjoint(w) == z.abs_sq().mul(w.abs_sq()).is_zero()


class TestLocalConstancy:
    def test_example(self):
        report = is_locally_constant(L2.vector([2, 6]), L2.vector([1, 2]))
        assert report.ok
        assert [(b.atoms, c) for b, c in report.witness] == [
            ((0,), Fraction(2)), ((1,), Fraction(3))]

    def test_failure(self):
        report = is_locally_constant(L2.vector([1, 0]), L2.vector([0, 1]))
        assert not report.ok and report.failure_atom == 0

    def test_reflexive(self):
        e = L3.vector(["1/2", 0, 7])
        assert is_locally_constant(e, e).ok

    def test_atom_permutation_invariance(self):
        e, f = L3.vector([2, 6, 0]), L3.vector([1, 2, 5])
        for perm in itertools.permutations(range(3)):
            ep = LatticeVector(tuple(e.coords[i] for i in perm))
            fp = LatticeVector(tuple(f.coords[i] for i in perm))
            assert is_locally_constant(ep, fp).ok == is_locally_constant(e, f).ok

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            is_locally_constant(L2.vector([-1, 0]), L2.vector([1, 1]))

    def test_witness_reconstructs(self):
        e, f = L3.vector([2, 6, 3]), L3.vector([1, 2, 1])
        report = is_locally_constant(e, f)
        total = L3.zero()
        for b, lam in report.witness:
            total = total.sup(f.band_project(b).scale(lam))
        assert total == e


class TestLocalLinearIndependence:
    def test_unity_is_independent(self):
        assert is_locally_linearly_independent([L3.unity()])

    def test_distinct_values_at_one_atom_dependent(self):
        assert not is_locally_linearly_independent(
            [L2.vector([1, 1]), L2.vector([1, 2])])

    def test_disjoint_supports_independent(self):
        assert is_locally_linearly_independent(
            [L2.vector([1, 0]), L2.vector([0, 1])])

    def test_atom_checks_alone_insufficient(self):
        # every single atom passes, yet e1 - e2 + e3 = 0 on the full carrier
        family = [L2.vector([1, 0]), L2.vector([1, 1]), L2.vector([0, 1])]
        assert not is_locally_linearly_independent(family)

    def test_empty_family(self):
        assert is_locally_linearly_independent([])


class TestHamelExpansion:
    def test_unity_is_basis(self):
        for lattice in (AtomicLattice(1), L2, L3, AtomicLattice(5)):
            assert is_local_hamel_basis([lattice.unity()])

    def test_partial_support_is_not_basis(self):
        assert not is_local_hamel_basis([L2.vector([1, 0])])

    def test_expand_over_unity(self):
        exp = local_hamel_expand(L3.vector([2, 2, 5]), [L3.unity()])
        assert [(b.atoms, i, c) for b, i, c in exp.blocks] == [
            ((0, 1), 0, Fraction(2)), ((2,), 0, Fraction(5))]

    def test_expand_unity_itself(self):
        exp = local_hamel_expand(L3.unity(), [L3.unity()])
        assert len(exp.blocks) == 1 and exp.blocks[0][2] == 1

    def test_expand_disjoint_basis(self):
        basis = [L2.vector([1, 0]), L2.vector([0, 1])]
        exp = local_hamel_expand(L2.vector([3, 7]), basis)
        assert exp.reconstruct(basis, 2) == L2.vector([3, 7])
        assert [(b.atoms, i, c) for b, i, c in exp.blocks] == [
            ((0,), 0, Fraction(3)), ((1,), 1, Fraction(7))]

    def test_partition_is_value_level_sets_for_unity_basis(self):
        rng = random.Random(21)
        for _ in range(50):
            dim = rng.randint(1, 6)
            lattice = AtomicLattice(dim)
            x = LatticeVector(tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)))
            exp = local_hamel_expand(x, [lattice.unity()])
            values = {c for _, _, c in exp.blocks}
            assert values == set(x.coords)
            assert exp.reconstruct([lattice.unity()], dim) == x

    def test_non_basis_rejected(self):
        with pytest.raises(ValueError):
            local_hamel_expand(L2.vector([1, 1]), [L2.vector([1, 0])])


class TestBridgeToBooleanValuedUniverse:
    def test_truth_vec_agrees_with_bset_encoding(self):
        pool = [rat(v) for v in ("0", "1", "1/2", "2", "-1", "2/3")]
        rng = random.Random(17)
        for _ in range(25):
            dim = rng.randint(1, 3)
            x = LatticeVector(tuple(rng.choice(pool) for _ in range(dim)))
            y = LatticeVector(tuple(rng.choice(pool) for _ in range(dim)))
            assert truth_eq(encode_as_bset(x), encode_as_bset(y)) == truth_vec(x, y, "=")
