import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk import operators as ops
from bvdesk.lattice import LatticeVector
from bvdesk.operators import GaussianRational as G
from bvdesk.ratlinalg import nullspace_basis, rank, rref


# -- reference oracles: the dense apply and the Fraction rref -------------------------


def reference_apply(m, vec):
    """The dense image m * vec: every row times every coordinate, each sum
    started at ``row[0] * 0``."""
    if len(vec) != len(m):
        raise ValueError("dimension mismatch")
    return tuple(sum((row[j] * vec[j] for j in range(len(vec))),
                     start=row[0] * 0) for row in m)


def reference_rref(rows):
    """Reduced row echelon form by elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def reference_nullspace_basis(rows, n_cols):
    """The kernel basis read off :func:`reference_rref`, one vector per free
    column."""
    reduced, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc] if fc < len(reduced[r]) else Fraction(0)
        basis.append(tuple(vec))
    return basis


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
    lhs = reference_apply(m, tuple(a * b for a, b in zip(x, y)))
    dx = reference_apply(m, tuple(x))
    dy = reference_apply(m, tuple(y))
    return lhs == tuple(a * b + c * d for a, b, c, d in zip(dx, y, x, dy))


def with_zeros(draw, nonzero):
    """A strategy that gives 0 with a drawn weight, else a ``nonzero`` draw,
    so that each example has its own sparsity."""
    weight = draw(st.integers(0, 4))
    return st.one_of(*[st.just(Fraction(0))] * weight, nonzero)


@st.composite
def apply_inputs(draw):
    """A real or Gaussian matrix of order 1-8 and a vector of Fractions,
    ints and Gaussian rationals, all with zeros."""
    n = draw(st.integers(1, 8))
    part = with_zeros(draw, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)))
    if draw(st.booleans()):
        rows = [[[draw(part), draw(part)] for _ in range(n)] for _ in range(n)]
    else:
        rows = [[draw(part) for _ in range(n)] for _ in range(n)]
    coordinate = st.one_of(part, st.integers(-2, 2),
                           st.builds(G, part, part))
    if draw(st.booleans()):  # a vector of Fractions only
        coordinate = part
    return ops.matrix(rows), tuple(draw(coordinate) for _ in range(n))


@st.composite
def rational_matrices(draw):
    """Rows of rationals: empty, zero, rank-deficient products B C, or
    random, with small or large denominators, and sparse."""
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(0, 7))
    denominator = draw(st.sampled_from([1, 6, 10 ** 15]))
    entry = with_zeros(draw, st.fractions(max_denominator=denominator).filter(
        lambda x: abs(x.numerator) < 10 ** 18))
    kind = draw(st.sampled_from(["random", "rank-deficient", "zero"]))
    if kind == "zero":
        rows = [[Fraction(0)] * n_cols for _ in range(n_rows)]
    elif kind == "rank-deficient":
        r = draw(st.integers(0, max(0, min(n_rows, n_cols) - 1)))
        b = [[draw(entry) for _ in range(r)] for _ in range(n_rows)]
        c = [[draw(entry) for _ in range(n_cols)] for _ in range(r)]
        rows = [[sum((b[i][t] * c[t][j] for t in range(r)), Fraction(0))
                 for j in range(n_cols)] for i in range(n_rows)]
    else:
        rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    return rows, n_cols


class TestSparseKernels:
    @settings(max_examples=300, deadline=None)
    @given(apply_inputs())
    def test_apply_matches_the_dense_oracle_in_value_and_type(self, inputs):
        m, vec = inputs
        got, want = ops.apply(m, vec), reference_apply(m, vec)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]

    def test_apply_edge_cases(self):
        assert ops.apply((), ()) == ()
        with pytest.raises(ValueError, match="dimension mismatch"):
            ops.apply(ops.matrix([[1, 0], [0, 1]]), (Fraction(1),))
        zero = ops.matrix([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
        assert [type(x) for x in ops.apply(zero, (Fraction(1), Fraction(0)))] == [G, G]

    @settings(max_examples=400, deadline=None)
    @given(rational_matrices())
    def test_integer_elimination_matches_the_fraction_oracle(self, matrix):
        rows, n_cols = matrix
        want, want_pivots = reference_rref(rows)
        got, got_pivots = rref(rows)
        assert (got, got_pivots) == (want, want_pivots)
        assert all(type(x) is Fraction for row in got for x in row)
        assert rank(rows) == len(want_pivots)
        want_kernel = reference_nullspace_basis(rows, n_cols)
        assert nullspace_basis(rows, n_cols) == want_kernel
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        assert rank(sparse) == len(want_pivots)
        assert nullspace_basis(sparse, n_cols) == want_kernel

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_derivation_rows_have_the_dense_rank(self, n):
        """The sparse derivation system has the rank the Fraction rref gives
        its dense rows: all n^2 unknowns are pivots."""
        dense = []
        for i, j, k in itertools.product(range(n), repeat=3):
            row = [Fraction(0)] * (n * n)
            if i == j:
                row[k * n + i] += 1
            if k == j:
                row[j * n + i] -= 1
            if k == i:
                row[i * n + j] -= 1
            if any(row):
                dense.append(row)
        assert len(reference_rref(dense)[1]) == n * n == rank(dense)
        assert ops.derivation_space(n).dimension == 0


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

    @pytest.mark.parametrize("wrong", [0, 1])
    def test_self_check_trips_on_a_wrong_image(self, monkeypatch, wrong):
        """An image off by one in coordinate ``wrong`` of the basis image
        e_0 (its diagonal entry, then an entry that must be 0) fails the
        check."""
        m = ops.diagonal_matrix([Fraction(2), Fraction(3)])
        sparse_apply = ops.apply

        def wrong_apply(m, vec):
            image = list(sparse_apply(m, vec))
            if vec[0]:
                image[wrong] += 1
            return tuple(image)

        monkeypatch.setattr(ops, "apply", wrong_apply)
        with pytest.raises(AssertionError, match="multiplier verification"):
            ops.multiplier_of(m)


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


def gaussian_diagonals():
    """Diagonals of 0/1 entries, near misses of idempotency (each satisfies
    one of the two real/imaginary equations), and small Gaussian
    rationals."""
    part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(st.one_of(
        st.sampled_from([G(0), G(1)]),
        st.sampled_from([G(Fraction(-1, 3), Fraction(2, 3)), G(Fraction(-1, 3), Fraction(-2, 3)),
                         G(Fraction(1, 2), Fraction(1, 2)), G(Fraction(1, 2)), G(0, 1)]),
        st.builds(G, part, part)), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(gaussian_diagonals())
def test_verdicts_match_the_fraction_idempotency_oracle(diag):
    m = ops.diagonal_matrix(diag)
    idempotent = all(c * c == c for c in diag)
    endo = ops.classify_endomorphism(m)
    assert endo.kind == ("band projection" if idempotent else "not multiplicative")
    assert endo.multiplier == tuple(diag)
    if idempotent:
        assert set(endo.support.atoms) == {i for i, c in enumerate(diag) if c == 1}
    auto = ops.automorphism_check(m)
    if not idempotent:
        assert auto.kind == "not multiplicative"
    else:
        assert auto.kind == ("identity" if all(c == 1 for c in diag) else "not bijective")


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
        assert G(1) == "1" and G(Fraction(1, 2)) == "1/2"
        # a string that is no rational compares unequal instead of raising
        assert not G(1) == "x" and G(1) != "x"
        assert G(1) != "1/0"

    def test_parts_are_fractions_and_are_not_rewrapped(self):
        third = Fraction(1, 3)
        z = G(third, third)
        assert z.re is third and z.im is third
        for w in (G(2), G("1/2", 3), G(re=1, im="-1/4"), G(True)):
            assert type(w.re) is Fraction and type(w.im) is Fraction
        assert G("1/2", 3) == G(Fraction(1, 2), Fraction(3))

    def test_equality_hash_repr_and_json(self):
        z = G(Fraction(1, 2), -1)
        assert z == G("1/2", "-1") and hash(z) == hash(G("1/2", "-1"))
        assert hash(z) == hash((Fraction(1, 2), Fraction(-1)))
        assert hash(G(2)) == hash((Fraction(2), Fraction(0)))
        assert repr(z) == "(1/2+-1i)" and z.to_json() == ["1/2", "-1"]
        assert z != None  # noqa: E711

    def test_slotted_and_immutable(self):
        z = G(1, 2)
        assert not hasattr(z, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 're'"):
            z.re = Fraction(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            z.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'im'"):
            del z.im
        assert z == G(1, 2)

    def test_pickle_and_copy(self):
        z = G(Fraction(-7, 3), 5)
        copies = [pickle.loads(pickle.dumps(z, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(z), copy.deepcopy(z)]
        for w in copies:
            assert type(w) is G and w == z and repr(w) == repr(z)
            assert type(w.re) is Fraction and type(w.im) is Fraction

    def test_zero_is_falsy(self):
        assert not G(0) and not G(Fraction(0), 0)
        assert G(0, 1) and G(1) and G(Fraction(-1, 2), 0)


def test_matrix_json_round_trip():
    m = ops.matrix([["1/2", "0"], ["0", "-3"]])
    assert ops.matrix_from_json(ops.matrix_to_json(m)) == m
    c = ops.matrix([[["1", "2"], ["0", "0"]], [["0", "0"], ["1", "0"]]])
    assert ops.matrix_from_json(ops.matrix_to_json(c)) == c
    with pytest.raises(ValueError):
        ops.matrix([[1, 2], [3]])
