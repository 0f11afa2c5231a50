import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk import operators as ops
from bvdesk.lattice import LatticeVector
from bvdesk.operators import GaussianRational as G
from bvdesk.ratlinalg import nullspace_basis, rank, rref


# -- reference oracles: commutation with every band projection, 2^n of them ----------


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                           start=a[i][0] * 0) for j in range(n))
                 for i in range(n))


def projection_matrix(mask, n):
    """The band projection onto the atoms of ``mask``."""
    return tuple(tuple(Fraction(1 if i == j and mask >> i & 1 else 0)
                       for j in range(n)) for i in range(n))


def reference_band_preserving(m):
    """Whether ``m`` commutes with all 2^n band projections."""
    n = len(m)
    return all(mat_mul(p, m) == mat_mul(m, p)
               for p in (projection_matrix(mask, n) for mask in range(2 ** n)))


def reference_separately_band_preserving(t):
    """Whether pi b(x,y) = b(pi x, y) = b(x, pi y) for all 2^n band
    projections pi and basis pairs x, y."""
    n = len(t)
    basis = [tuple(Fraction(1 if q == i else 0) for q in range(n)) for i in range(n)]
    for mask in range(2 ** n):
        def project(vec):
            return tuple(v if mask >> q & 1 else Fraction(0) for q, v in enumerate(vec))

        for x, y in itertools.product(basis, repeat=2):
            full = ops.bilinear_apply(t, x, y)
            if (project(full) != ops.bilinear_apply(t, project(x), y)
                    or project(full) != ops.bilinear_apply(t, x, project(y))):
                return False
    return True


def reference_leibniz(m, x, y):
    """Whether D(xy) = D(x)y + xD(y) for the pair x, y."""
    lhs = ops.apply(m, tuple(a * b for a, b in zip(x, y)))
    dx = ops.apply(m, tuple(x))
    dy = ops.apply(m, tuple(y))
    return lhs == tuple(a * b + c * d for a, b, c, d in zip(dx, y, x, dy))


class TestRatLinalg:
    def test_rref_identity(self):
        m, pivots = rref([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]])
        assert pivots == [0, 1]
        assert m == [[1, 0], [0, 1]]

    def test_rank(self):
        assert rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1

    def test_nullspace(self):
        basis = nullspace_basis([[Fraction(1), Fraction(1)]], 2)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == 0

    def test_nullspace_of_empty_system(self):
        assert len(nullspace_basis([], 3)) == 3


class TestBandPreserving:
    def test_diagonal(self):
        assert ops.is_band_preserving(ops.diagonal_matrix([Fraction(2), Fraction(3)]))

    def test_off_diagonal(self):
        assert not ops.is_band_preserving(ops.matrix([[0, 1], [0, 0]]))

    def test_zero_matrix(self):
        assert ops.is_band_preserving(ops.matrix([[0, 0], [0, 0]]))

    @settings(max_examples=100)
    @given(st.integers(1, 4), st.data())
    def test_diagonal_criterion_matches_bruteforce(self, n, data):
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
        m = ops.matrix(rows)
        assert ops.is_band_preserving(m) == reference_band_preserving(m)

    @settings(max_examples=100)
    @given(st.integers(1, 3), st.data())
    def test_complex_diagonal_criterion_matches_reference(self, n, data):
        # an entry with a zero real part but a nonzero imaginary part is not zero
        parts = st.integers(-1, 1)
        rows = [[[data.draw(parts), data.draw(parts)] for _ in range(n)] for _ in range(n)]
        m = ops.matrix(rows)
        assert ops.is_band_preserving(m) == reference_band_preserving(m)


class TestMultiplier:
    def test_example(self):
        m = ops.diagonal_matrix([Fraction(2), Fraction(3)])
        assert ops.multiplier_of(m) == LatticeVector((Fraction(2), Fraction(3)))

    def test_identity(self):
        assert ops.multiplier_of(ops.diagonal_matrix([Fraction(1)] * 3)) == LatticeVector(
            (Fraction(1),) * 3)

    def test_acts_by_multiplication(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 6)
            diag = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            m = ops.diagonal_matrix(diag)
            g = ops.multiplier_of(m)
            x = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
            assert ops.apply(m, x) == tuple(a * b for a, b in zip(g.coords, x))

    def test_requires_band_preserving(self):
        with pytest.raises(ValueError):
            ops.multiplier_of(ops.matrix([[0, 1], [0, 0]]))


class TestDerivations:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_dimension_zero(self, n):
        assert ops.derivation_space(n).dimension == 0

    def test_leibniz_oracle_accepts_zero(self):
        n = 3
        zero = ops.matrix([[0] * n for _ in range(n)])
        rng = random.Random(4)
        for _ in range(50):
            x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
            y = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
            assert reference_leibniz(zero, x, y)

    def test_leibniz_oracle_rejects_identity(self):
        # D = I fails: D(xy) = xy but D(x)y + xD(y) = 2xy
        ident = ops.diagonal_matrix([Fraction(1)] * 2)
        x = (Fraction(1), Fraction(2))
        assert not reference_leibniz(ident, x, x)

    def test_leibniz_oracle_rejects_nonzero_diagonal(self):
        m = ops.diagonal_matrix([Fraction(1), Fraction(0)])
        x = (Fraction(1), Fraction(0))
        assert not reference_leibniz(m, x, x)


class TestEndomorphisms:
    def test_band_projection(self):
        verdict = ops.classify_endomorphism(ops.diagonal_matrix([G(1), G(0)]))
        assert verdict.kind == "band projection"
        assert verdict.support.atoms == (0,)

    def test_not_multiplicative_fraction(self):
        verdict = ops.classify_endomorphism(
            ops.diagonal_matrix([G(Fraction(1, 2)), G(1)]))
        assert verdict.kind == "not multiplicative"

    def test_not_multiplicative_imaginary(self):
        verdict = ops.classify_endomorphism(ops.diagonal_matrix([G(0, 1), G(0)]))
        assert verdict.kind == "not multiplicative"

    def test_not_band_preserving(self):
        m = ops.matrix([[["1", "0"], ["1", "0"]], [["0", "0"], ["1", "0"]]])
        assert ops.classify_endomorphism(m).kind == "not band preserving"

    def test_projection_properties(self):
        # verdicts of kind "band projection" square to themselves
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randint(1, 6)
            diag = [G(Fraction(rng.randint(0, 1))) for _ in range(n)]
            m = ops.diagonal_matrix(diag)
            verdict = ops.classify_endomorphism(m)
            assert verdict.kind == "band projection"
            assert mat_mul(m, m) == m
            assert all(c.re in (0, 1) and c.im == 0 for c in verdict.multiplier)


class TestAutomorphisms:
    def test_identity(self):
        assert ops.automorphism_check(
            ops.diagonal_matrix([G(1), G(1)])).kind == "identity"

    def test_not_bijective(self):
        assert ops.automorphism_check(
            ops.diagonal_matrix([G(1), G(0)])).kind == "not bijective"

    def test_not_band_preserving(self):
        m = ops.matrix([[["0", "0"], ["1", "0"]], [["1", "0"], ["0", "0"]]])
        assert ops.automorphism_check(m).kind == "not band preserving"

    def test_not_multiplicative(self):
        m = ops.diagonal_matrix([G(2), G(1)])
        assert ops.automorphism_check(m).kind == "not multiplicative"


class TestBilinear:
    def _diag_tensor(self, w):
        n = len(w)
        entries = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for q in range(n):
            entries[q][q][q] = Fraction(w[q])
        return ops.tensor(entries)

    def test_diagonal_tensor(self):
        t = self._diag_tensor([2, 3])
        assert ops.is_separately_band_preserving(t)
        report = ops.bilinear_report(t)
        assert report.symmetric and report.orthosymmetric
        assert report.multiplier == LatticeVector((Fraction(2), Fraction(3)))

    def test_off_diagonal_rejected(self):
        entries = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]  # b(x, y) = x0*y1*e0
        t = ops.tensor(entries)
        assert not ops.is_separately_band_preserving(t)
        assert not reference_separately_band_preserving(t)

    def test_zero_tensor(self):
        t = self._diag_tensor([0, 0, 0])
        report = ops.bilinear_report(t)
        assert report.separately_band_preserving and report.symmetric
        assert report.orthosymmetric

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_criterion_matches_bruteforce(self, n, data):
        entries = st.integers(-2, 2)
        raw = [[[data.draw(entries) for _ in range(n)] for _ in range(n)]
               for _ in range(n)]
        t = ops.tensor(raw)
        assert (ops.is_separately_band_preserving(t)
                == reference_separately_band_preserving(t))

    def test_multiplier_form(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(1, 5)
            w = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            t = self._diag_tensor(w)
            x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
            y = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
            expected = tuple(wq * a * b for wq, a, b in zip(w, x, y))
            assert ops.bilinear_apply(t, x, y) == expected

    def test_orthosymmetry_on_disjoint_pairs(self):
        t = self._diag_tensor([2, 3, 5])
        x = (Fraction(1), Fraction(0), Fraction(0))
        y = (Fraction(0), Fraction(4), Fraction(0))
        assert ops.bilinear_apply(t, x, y) == (0, 0, 0)

    def test_antisymmetric_diagonal_is_zero(self):
        # a tensor that is both diagonal and antisymmetric vanishes
        n = 3
        for q in range(n):
            entries = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
            entries[q][q][q] = Fraction(1)
            t = ops.tensor(entries)
            antisym = all(t[i][j][k] == -t[j][i][k]
                          for i in range(n) for j in range(n) for k in range(n))
            assert not antisym  # nonzero diagonal tensors cannot be antisymmetric


class TestGaussianRational:
    def test_arithmetic(self):
        i = G(0, 1)
        assert i * i == G(-1)
        assert (G(1, 2) * G(3, -1)) == G(5, 5)
        assert G(Fraction(1, 2)) + G(Fraction(1, 2)) == 1

    def test_comparison_with_scalars(self):
        assert G(2) == 2
        assert G(2) == Fraction(2)
        assert G(2, 1) != 2


def test_matrix_json_round_trip():
    m = ops.matrix([["1/2", "0"], ["0", "-3"]])
    assert ops.matrix_from_json(ops.matrix_to_json(m)) == m
    c = ops.matrix([[["1", "2"], ["0", "0"]], [["0", "0"], ["1", "0"]]])
    assert ops.matrix_from_json(ops.matrix_to_json(c)) == c
    with pytest.raises(ValueError):
        ops.matrix([[1, 2], [3]])
