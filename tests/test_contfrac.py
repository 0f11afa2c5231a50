import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk import contfrac
from bvdesk.boolalg import FiniteBooleanAlgebra, Partition
from bvdesk.contfrac import (RADICAND_CAP, PartialQuotients, PeriodDetectionError,
                             QuadraticSurd, convergent, convergent_error_within,
                             convergent_pair, expand, integer_part, mixed_expansion)

SQRT2_M1 = QuadraticSurd(-1, 1, 1, 2)   # sqrt(2) - 1
PHI_FRAC = QuadraticSurd(-1, 1, 2, 5)   # (sqrt(5) - 1) / 2


# -- reference oracle: the Gauss map that splits the radicand of every surd ------


def reference_split(d):
    f, d0, k = 1, d, 2
    while k * k <= d0:
        while d0 % (k * k) == 0:
            d0 //= k * k
            f *= k
        k += 1
    return f, d0


@dataclass(frozen=True)
class ReferenceSurd:
    """(p + q*sqrt(d))/r, canonicalized from scratch on every construction."""

    p: int
    q: int
    r: int
    d: int

    def __post_init__(self):
        p, q, r, d = self.p, self.q, self.r, self.d
        if r == 0:
            raise ValueError("denominator r must be nonzero")
        f, d = reference_split(d)
        q *= f
        if d == 1:
            p, q = p + q, 0
        if q == 0:
            d = 1
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        for name, value in zip("pqrd", (p, q, r, d)):
            object.__setattr__(self, name, value)

    def sign(self):
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        lhs, rhs = p * p, q * q * d
        if p > 0:
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def sub_fraction(self, value):
        f = Fraction(value)
        return ReferenceSurd(self.p * f.denominator - f.numerator * self.r,
                             self.q * f.denominator, self.r * f.denominator, self.d)

    def compare_fraction(self, value):
        return self.sub_fraction(value).sign()

    def abs_value(self):
        return ReferenceSurd(-self.p, -self.q, self.r, self.d) if self.sign() < 0 else self

    def reciprocal(self):
        p, q, r, d = self.p, self.q, self.r, self.d
        if q == 0:
            return ReferenceSurd(r, 0, p, 1)
        return ReferenceSurd(r * p, -r * q, p * p - q * q * d, d)

    def sub_int(self, n):
        return ReferenceSurd(self.p - n * self.r, self.q, self.r, self.d)


def reference_integer_part(alpha):
    if alpha.q == 0:
        return alpha.p // alpha.r
    root = math.isqrt(alpha.q * alpha.q * alpha.d)
    n = (alpha.p + (root if alpha.q > 0 else -(root + 1))) // alpha.r
    while alpha.compare_fraction(n) < 0:
        n -= 1
    while alpha.compare_fraction(n + 1) >= 0:
        n += 1
    return n


def reference_expand(t):
    """Quotients of an irrational t in (0, 1) until a state repeats."""
    seen, state, quotients = {}, t, []
    while (state.p, state.q, state.r, state.d) not in seen:
        seen[state.p, state.q, state.r, state.d] = len(quotients)
        u = state.reciprocal()
        a = reference_integer_part(u)
        quotients.append(a)
        state = u.sub_int(a)
    start = seen[state.p, state.q, state.r, state.d]
    return PartialQuotients(tuple(quotients[:start]), tuple(quotients[start:]))


def reference_error_within(t, k, pq):
    num, den = convergent_pair(pq, k)
    err = t.sub_fraction(Fraction(num, den)).abs_value()
    return err.compare_fraction(Fraction(1, den * den)) < 0


def reference_mixed_expansion_ok(me, ts):
    """Whether, per atom, the step-vector column equals the fresh expansion
    of the value mixed onto that atom, with the sentinel 0 past its end."""
    atom_count = me.parts.algebra.atom_count
    vectors = [me.step_vector(n) for n in range(1, me.depth + 1)]
    for q in range(atom_count):
        block_index = next(i for i, b in enumerate(me.parts) if b.mask >> q & 1)
        pq = expand(ts[block_index])
        if pq.is_finite and len(pq.preperiod) < me.depth:
            expected = pq.preperiod
        else:
            expected = pq.prefix(me.depth)
        column = tuple(int(v.coords[q]) for v in vectors[:len(expected)])
        if column != expected:
            return False
        if any(int(v.coords[q]) != 0 for v in vectors[len(expected):]):
            return False
    return True


def random_surd_args(rng, d_max):
    """(p, q, r, d) of a random irrational surd in (0, 1); d need not be squarefree."""
    while True:
        d = rng.randint(2, d_max)
        if math.isqrt(d) ** 2 == d:
            continue
        q = rng.choice((1, -1)) * rng.randint(1, 3)
        r = rng.randint(1, 5)
        root = math.isqrt(q * q * d)
        # p chosen so that (p + q*sqrt(d))/r lies in (0, 1)
        p = (-root if q > 0 else root + 1) + rng.randint(0, r - 1)
        surd = QuadraticSurd(p, q, r, d)
        if 0 < surd.compare_fraction(0) and surd.compare_fraction(1) < 0:
            return p, q, r, d


def assert_canonical(s):
    """A derived surd equals what the public constructor builds from its fields."""
    assert s == QuadraticSurd(s.p, s.q, s.r, s.d)


class TestQuadraticSurd:
    def test_canonicalization(self):
        s = QuadraticSurd(2, 2, -4, 9)   # (2 + 2*3)/-4 = -2
        assert s.is_rational and s.to_fraction() == -2
        t = QuadraticSurd(0, 2, 4, 8)    # 2*2*sqrt(2)/4 = sqrt(2)
        assert (t.p, t.q, t.r, t.d) == (0, 1, 1, 2)

    def test_sign_analysis(self):
        assert SQRT2_M1.sign() == 1
        assert QuadraticSurd(1, -1, 1, 2).sign() == -1   # 1 - sqrt(2)
        assert QuadraticSurd(0, 0, 1, 1).sign() == 0
        assert QuadraticSurd(3, -2, 1, 2).sign() == 1    # 3 - 2*sqrt(2) > 0

    def test_compare_fraction(self):
        assert SQRT2_M1.compare_fraction(Fraction(2, 5)) == 1
        assert SQRT2_M1.compare_fraction(Fraction(1, 2)) == -1

    def test_invalid_denominator(self):
        with pytest.raises(ValueError):
            QuadraticSurd(1, 1, 0, 2)

    def test_reciprocal(self):
        u = SQRT2_M1.reciprocal()           # 1/(sqrt(2)-1) = sqrt(2)+1
        assert (u.p, u.q, u.r, u.d) == (1, 1, 1, 2)


class TestIntegerPart:
    def test_rational(self):
        assert integer_part(QuadraticSurd.from_fraction(Fraction(7, 3))) == 2

    def test_sqrt2(self):
        assert integer_part(QuadraticSurd.sqrt_of(2)) == 1

    def test_golden_ratio(self):
        phi = QuadraticSurd(1, 1, 2, 5)
        assert integer_part(phi) == 1

    def test_large_surds(self):
        assert integer_part(QuadraticSurd.sqrt_of(99)) == 9
        assert integer_part(QuadraticSurd(0, 7, 3, 11)) == 7  # 7*sqrt(11)/3 ~ 7.73

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            integer_part(QuadraticSurd.from_fraction(Fraction(0)))
        with pytest.raises(ValueError):
            integer_part(QuadraticSurd(1, -1, 1, 2))


class TestExpand:
    def test_example_16_45(self):
        pq = expand(QuadraticSurd.from_fraction(Fraction(16, 45)))
        assert pq.preperiod == (2, 1, 4, 3) and pq.period == ()

    def test_one_half(self):
        pq = expand(QuadraticSurd.from_fraction(Fraction(1, 2)))
        assert pq.preperiod == (2,)

    def test_sqrt2_minus_one(self):
        pq = expand(SQRT2_M1)
        assert pq.preperiod == () and pq.period == (2,)

    def test_golden_fraction(self):
        pq = expand(PHI_FRAC)
        assert pq.preperiod == () and pq.period == (1,)

    def test_preperiodic_surd(self):
        # sqrt(3) - 1 = [1; 2, 1, 2, ...] shifted into (0,1): [1,2] repeating
        pq = expand(QuadraticSurd(-1, 1, 1, 3))
        assert pq.prefix(6) == (1, 2, 1, 2, 1, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            expand(QuadraticSurd.from_fraction(Fraction(3, 2)))
        with pytest.raises(ValueError):
            expand(QuadraticSurd.from_fraction(Fraction(0)))

    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(contfrac, "STATE_CAP", 1)
        with pytest.raises(PeriodDetectionError):
            expand(QuadraticSurd(-31, 1, 7, 967))

    def test_final_quotient_at_least_two(self):
        # canonical rational form: the map t -> expansion is injective
        for den in range(2, 60):
            for num in range(1, den):
                pq = expand(QuadraticSurd.from_fraction(Fraction(num, den)))
                assert pq.preperiod[-1] >= 2
                assert all(a >= 1 for a in pq.preperiod)


class TestConvergents:
    def test_round_trip_example(self):
        assert convergent([2, 1, 4, 3], 4) == Fraction(16, 45)

    def test_single(self):
        assert convergent([2], 1) == Fraction(1, 2)

    def test_periodic_unrolled(self):
        pq = expand(SQRT2_M1)
        assert convergent(pq, 6) == Fraction(70, 169)

    def test_error_bound_sqrt2(self):
        pq = expand(SQRT2_M1)
        for k in range(1, 11):
            assert convergent_error_within(SQRT2_M1, k, pq)

    def test_error_bound_other_surds(self):
        for surd in (PHI_FRAC, QuadraticSurd(-1, 1, 1, 3), QuadraticSurd(-2, 1, 1, 7)):
            pq = expand(surd)
            for k in range(1, 8):
                assert convergent_error_within(surd, k, pq)

    def test_too_many_terms_rejected(self):
        pq = expand(QuadraticSurd.from_fraction(Fraction(1, 2)))
        with pytest.raises(ValueError):
            convergent(pq, 2)

    @settings(max_examples=300)
    @given(st.fractions(min_value="1/10000", max_value="9999/10000",
                        max_denominator=10_000))
    def test_round_trip_random(self, t):
        pq = expand(QuadraticSurd.from_fraction(t))
        assert convergent(pq, len(pq)) == t

    def test_convergent_denominators_grow(self):
        pq = expand(SQRT2_M1)
        dens = [convergent_pair(pq, k)[1] for k in range(1, 10)]
        assert all(a < b for a, b in zip(dens, dens[1:]))


class TestPartialQuotients:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartialQuotients((0, 2), ())
        with pytest.raises(ValueError):
            PartialQuotients((), (1, 0))

    def test_prefix_errors(self):
        pq = PartialQuotients((2, 3), ())
        assert pq.prefix(2) == (2, 3)
        with pytest.raises(ValueError):
            pq.prefix(3)


class TestMixedExpansion:
    def test_single_block_constant(self):
        algebra = FiniteBooleanAlgebra(3)
        parts = Partition((algebra.top,))
        me = mixed_expansion(parts, [QuadraticSurd.from_fraction(Fraction(16, 45))], 4)
        assert me.rows == ((2, 1, 4, 3),)
        assert reference_mixed_expansion_ok(me, [QuadraticSurd.from_fraction(Fraction(16, 45))])

    def test_two_atom_example(self):
        algebra = FiniteBooleanAlgebra(2)
        parts = Partition((algebra.element([0]), algebra.element([1])))
        ts = [SQRT2_M1, QuadraticSurd.from_fraction(Fraction(1, 2))]
        me = mixed_expansion(parts, ts, 3)
        assert me.rows == ((2, 2, 2), (2,))
        assert reference_mixed_expansion_ok(me, ts)
        assert me.step_vector(1).coords == (Fraction(2), Fraction(2))
        assert me.step_vector(2).coords == (Fraction(2), Fraction(0))

    def test_permuting_atoms_permutes_rows(self):
        algebra = FiniteBooleanAlgebra(2)
        ts = [SQRT2_M1, QuadraticSurd.from_fraction(Fraction(1, 2))]
        fwd = mixed_expansion(
            Partition((algebra.element([0]), algebra.element([1]))), ts, 3)
        rev = mixed_expansion(
            Partition((algebra.element([1]), algebra.element([0]))), ts, 3)
        assert fwd.rows == rev.rows
        assert fwd.row_for_atom(0) == rev.row_for_atom(1)
        assert fwd.row_for_atom(1) == rev.row_for_atom(0)

    def test_length_mismatch(self):
        algebra = FiniteBooleanAlgebra(2)
        parts = Partition((algebra.element([0]), algebra.element([1])))
        with pytest.raises(ValueError):
            mixed_expansion(parts, [SQRT2_M1], 3)


class TestAgainstReference:
    """The split-once Gauss map against the split-every-surd reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_small_radicands(self, seed):
        rng = random.Random(seed)
        self.check(rng, random_surd_args(rng, 5000))

    @pytest.mark.parametrize("seed", range(3))
    def test_large_radicands(self, seed):
        # d up to 1.1e6; a short-period family keeps the reference affordable
        rng = random.Random(1000 + seed)
        while True:
            args = random_surd_args(rng, 1_100_000)
            if args[3] > 900_000 and len(expand(QuadraticSurd(*args)).period) <= 60:
                break
        self.check(rng, args)

    def check(self, rng, args):
        t, ref = QuadraticSurd(*args), ReferenceSurd(*args)
        assert (t.p, t.q, t.r, t.d) == (ref.p, ref.q, ref.r, ref.d)
        pq = expand(t)
        assert pq == reference_expand(ref)
        for k in range(1, 9):
            assert convergent_error_within(t, k, pq) == reference_error_within(ref, k, pq)
        # every derived surd of the Gauss map is canonical and matches the reference
        state, rstate = t, ref
        for a in pq.prefix(12):
            u, ru = state.reciprocal(), rstate.reciprocal()
            frac = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for derived, rderived in ((u, ru), (u.sub_int(a), ru.sub_int(a)),
                                      (state.sub_fraction(frac), rstate.sub_fraction(frac)),
                                      (state.sub_fraction(frac).abs_value(),
                                       rstate.sub_fraction(frac).abs_value())):
                assert_canonical(derived)
                assert (derived.p, derived.q, derived.r, derived.d) == \
                    (rderived.p, rderived.q, rderived.r, rderived.d)
            assert state.compare_fraction(frac) == rstate.compare_fraction(frac)
            state, rstate = u.sub_int(a), ru.sub_int(a)

    def test_rational_derivations_canonical(self):
        half = QuadraticSurd.from_fraction(Fraction(1, 2))
        for s in (half.reciprocal(), half.sub_int(1), half.sub_int(1).abs_value(),
                  half.sub_fraction(Fraction(1, 2))):
            assert_canonical(s)


class TestRadicandCap:
    def test_above_cap_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cap"):
            QuadraticSurd(-10 ** 9, 1, 1, 10 ** 18 + 39)
        with pytest.raises(ValueError):
            QuadraticSurd(0, 1, 1, RADICAND_CAP + 1)
        assert time.perf_counter() - start < 0.1

    def test_cap_itself_accepted(self):
        assert QuadraticSurd(0, 1, 1, RADICAND_CAP).is_rational  # 10^12 = (10^6)^2
