import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bvdesk import pnfin
from bvdesk.pnfin import (BUILTIN_CHAINS, DecreasingChain, DecreasingReport,
                          HorizonError, PrimesFrom, Progression,
                          PseudoIntersectionResult, StrictnessError,
                          chain_from_spec, dyadic_chain,
                          nth_prime, primes_thinned_chain, pseudo_intersection,
                          tails_chain, verify_decreasing)


def evens():
    return Progression(2, 2, "evens")


def ref_evens():
    return ReferenceStream(lambda k: 2 * k, "evens")


def ref_odds():
    return ReferenceStream(lambda k: 2 * k - 1, "odds")


# -- reference oracle: the dict-per-index stream, checked on every element ---------


class ReferenceStream:
    """One dict entry per enumerated index; strictness checked per element."""

    def __init__(self, enumerator, name="stream"):
        self.name = name
        self._enumerator = enumerator
        self._cache = {}
        self.checked_horizon = 0

    def element(self, k):
        if k < 1:
            raise ValueError("indices are 1-based")
        value = self._cache.get(k)
        if value is None:
            value = self._enumerator(k)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{self.name}: enumerator must produce naturals")
            self._cache[k] = value
            prev = self._cache.get(k - 1)
            if prev is not None and prev >= value:
                raise StrictnessError(f"{self.name}: not increasing at {k - 1}")
            nxt = self._cache.get(k + 1)
            if nxt is not None and value >= nxt:
                raise StrictnessError(f"{self.name}: not increasing at {k}")
        return value

    def prefix(self, horizon):
        """The first ``horizon`` values as the enumerator gives them, unchecked:
        the caller checks them, as it must for any level."""
        return [self._enumerator(k) for k in range(1, horizon + 1)]

    def check_prefix(self, horizon):
        if horizon <= self.checked_horizon:
            return
        prev = self.element(max(self.checked_horizon, 1))
        for k in range(max(self.checked_horizon, 1) + 1, horizon + 1):
            cur = self.element(k)
            if cur <= prev:
                raise StrictnessError(f"{self.name}: not increasing at {k}")
            prev = cur
        self.checked_horizon = horizon

    def contains(self, m):
        hi = 1
        while self.element(hi) < m:
            hi *= 2
        return self._index_of(m, hi) is not None

    def _index_of(self, m, hi):
        lo = 1
        while lo <= hi:
            mid = (lo + hi) // 2
            v = self.element(mid)
            if v == m:
                return mid
            if v < m:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    def least_above(self, m, horizon):
        self.check_prefix(min(horizon, 64))
        lo, hi = 1, horizon
        if self.element(horizon) <= m:
            raise HorizonError(f"{self.name}: nothing above {m} within the horizon")
        while lo < hi:
            mid = (lo + hi) // 2
            if self.element(mid) > m:
                hi = mid
            else:
                lo = mid + 1
        return self.element(lo)


def reference_verify_decreasing(chain, depth, horizon):
    """The element-by-element merge of b_{n+1} against b_n."""
    if depth < 2:
        raise ValueError("depth must be at least 2")
    for n in range(1, depth):
        upper = chain.stream(n)
        lower = chain.stream(n + 1)
        lower.check_prefix(horizon)
        j = 1
        for i in range(1, horizon + 1):
            v = lower.element(i)
            while upper.element(j) < v:
                j += 1
            if upper.element(j) != v:
                return DecreasingReport(ok=False, depth=depth, horizon=horizon,
                                        first_violation=(n, v))
        upper.check_prefix(j)
    return DecreasingReport(ok=True, depth=depth, horizon=horizon, first_violation=None)


def reference_pseudo_intersection(chain, count, horizon):
    if count >= 2:
        report = reference_verify_decreasing(chain, count, horizon)
        if not report.ok:
            raise ValueError(f"not decreasing: {report.first_violation}")
    else:
        report = DecreasingReport(ok=True, depth=1, horizon=horizon, first_violation=None)
    elements = [chain.stream(1).element(1)]
    for n in range(2, count + 1):
        elements.append(chain.stream(n).least_above(elements[-1], horizon))
    guarantee = all(chain.stream(n).contains(elements[k - 1])
                    for n in range(1, count + 1) for k in range(n, count + 1))
    return PseudoIntersectionResult(tuple(elements), report, guarantee, horizon)


def reference_chain(level_fn, name):
    """A chain whose level n is a fresh reference stream over ``level_fn(n)``."""
    return DecreasingChain(level=lambda n: ReferenceStream(level_fn(n), f"{name}-{n}"),
                           name=name)


def family_enumerator(family, base, n):
    """Level n of a built-in family as an enumerator, from its closed form."""
    if family == "dyadic":
        return lambda k: k * base ** n
    if family == "tails":
        return lambda k: n + k
    return lambda k: nth_prime(n + k - 1)


def builtin_chain(family, base):
    params = {"base": base} if family == "dyadic" else {}
    return chain_from_spec({"family": family, "params": params})


def random_level_fn(rng):
    """Random strictly increasing levels, each a thinning of the one before
    (a(k) = c*k + jitter below c), with an occasional level that is shifted
    off its predecessor so the chain stops being decreasing there."""
    c = rng.randint(1, 5)
    mult, salt = rng.randrange(1, 10 ** 6), rng.randrange(10 ** 6)
    plans = [(rng.choice((1, 1, 2, 3)), rng.randint(0, 2), rng.random() < 0.1)
             for _ in range(40)]

    def base(k):
        return c * k + (k * mult + salt) % c

    def level_fn(n):
        fn = base
        for step, offset, shifted in plans[:n - 1]:
            fn = (lambda k, f=fn, s=step, o=offset: f(s * k + o)) if not shifted \
                else (lambda k, f=fn: f(k) + 1)
        return fn

    return level_fn


def outcome(fn, *args):
    """A query's value, or the type of the exception it raised."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return type(exc)
    return result.to_json() if hasattr(result, "to_json") else result


class TestStream:
    def test_membership_examples(self):
        assert evens().contains(6)
        assert not evens().contains(7)
        assert not evens().contains(0)
        assert dyadic_chain().stream(3).contains(8)
        assert PrimesFrom(2).contains(3) and not PrimesFrom(3).contains(3)

    def test_membership_beyond_horizon(self):
        # the prefix holds the first horizon elements; membership is unbounded
        assert 20 in evens().prefix(10) and 22 not in evens().prefix(10)
        assert evens().contains(100)
        assert PrimesFrom(2).prefix(3) == [3, 5, 7]
        with pytest.raises(HorizonError):
            evens().least_above(100, 10)

    def test_strictness_violation_detected(self):
        # a level whose prefix is not increasing, below a level that holds it
        constant = DecreasingChain(lambda n: evens() if n == 1
                                   else ReferenceStream(lambda k: 6, "constant"))
        with pytest.raises(StrictnessError, match="constant"):
            verify_decreasing(constant, 2, 3)

    def test_non_natural_rejected(self):
        negatives = DecreasingChain(lambda n: evens() if n == 1
                                    else ReferenceStream(lambda k: -k, "negatives"))
        with pytest.raises(ValueError, match="not a natural") as info:
            verify_decreasing(negatives, 2, 3)
        assert info.type is ValueError

    def test_least_above(self):
        assert evens().least_above(5, 100) == 6
        assert evens().least_above(6, 100) == 8
        assert evens().least_above(-3, 1) == 2
        with pytest.raises(HorizonError):
            evens().least_above(1000, 10)

    def test_unbounded_contains(self):
        s = dyadic_chain().stream(20)
        assert s.contains(2 ** 20)
        assert s.contains(3 * 2 ** 20)
        assert not s.contains(2 ** 20 + 1)


class TestVerifyDecreasing:
    def test_dyadic(self):
        assert verify_decreasing(dyadic_chain(), 4, 100).ok

    def test_tails(self):
        assert verify_decreasing(tails_chain(), 5, 100).ok

    def test_evens_then_odds_fails_at_one(self):
        chain = DecreasingChain(lambda n: ref_evens() if n == 1 else ref_odds())
        report = verify_decreasing(chain, 2, 100)
        assert not report.ok
        assert report.first_violation == (1, 1)  # 1 is in b_2 but not in b_1

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            verify_decreasing(dyadic_chain(), 1, 100)


class TestPseudoIntersection:
    def test_dyadic_example(self):
        assert pseudo_intersection(dyadic_chain(), 4, 1000).elements == (2, 4, 8, 16)

    def test_tails_example(self):
        assert pseudo_intersection(tails_chain(), 4, 1000).elements == (2, 3, 4, 5)

    def test_constant_evens(self):
        chain = DecreasingChain(lambda n: ref_evens())
        assert pseudo_intersection(chain, 3, 1000).elements == (2, 4, 6)

    def test_primes_thinned(self):
        result = pseudo_intersection(primes_thinned_chain(), 6, 1000)
        assert result.elements == (2, 3, 5, 7, 11, 13)
        assert result.tail_membership_ok

    def test_strictly_increasing_and_guarantee(self):
        for factory in BUILTIN_CHAINS.values():
            result = pseudo_intersection(factory(), 12, 2000)
            assert all(a < b for a, b in zip(result.elements, result.elements[1:]))
            assert result.tail_membership_ok

    def test_determinism(self):
        a = pseudo_intersection(dyadic_chain(), 10, 5000).elements
        b = pseudo_intersection(dyadic_chain(), 10, 5000).elements
        assert a == b

    def test_non_decreasing_chain_rejected(self):
        chain = DecreasingChain(lambda n: ref_evens() if n == 1 else ref_odds())
        with pytest.raises(ValueError, match="chain is not decreasing"):
            pseudo_intersection(chain, 3, 100)

    def test_horizon_exhaustion(self):
        # the constant evens chain needs element index k at stage k, so a
        # two-element horizon cannot supply the third selection
        chain = DecreasingChain(lambda n: ref_evens())
        with pytest.raises(HorizonError):
            pseudo_intersection(chain, 3, 2)


class TestBuiltins:
    def test_nth_prime(self):
        assert [nth_prime(k) for k in range(1, 8)] == [2, 3, 5, 7, 11, 13, 17]
        assert nth_prime(100) == 541

    def test_nth_prime_refuses_index_above_cap_before_sieving(self):
        sieved = len(pnfin._PRIMES)
        with pytest.raises(ValueError, match="exceeds cap"):
            nth_prime(pnfin.PRIME_INDEX_CAP + 1)
        assert len(pnfin._PRIMES) == sieved

    def test_sieve_ceiling_covers_the_cap(self):
        # p_k < k (ln k + ln ln k) for k >= 6: at the cap the bound is below
        # the ceiling, so the table never grows past the primes below it
        k = pnfin.PRIME_INDEX_CAP
        assert k * (math.log(k) + math.log(math.log(k))) < pnfin._SIEVE_CEILING

    def test_primes_thinned_levels_nest(self):
        assert verify_decreasing(primes_thinned_chain(), 6, 500).ok

    def test_chain_from_spec(self):
        chain = chain_from_spec({"family": "dyadic", "params": {"base": 3}})
        assert chain.stream(2).element(1) == 9
        assert chain_from_spec({"family": "tails"}).stream(1).element(1) == 2
        with pytest.raises(ValueError):
            chain_from_spec({"family": "unknown"})
        with pytest.raises(ValueError):
            chain_from_spec({"params": {}})
        with pytest.raises(ValueError):
            chain_from_spec({"family": "tails", "params": {"step": 2}})


def assert_level_matches(level, ref, ms, horizons, ks):
    """Every query of a closed-form level against the reference stream:
    value, or the type of the exception raised."""
    for k in ks:
        assert outcome(level.element, k) == outcome(ref.element, k), ("element", k)
    for m in ms:
        assert outcome(level.contains, m) == outcome(ref.contains, m), ("contains", m)
        for horizon in horizons:
            assert outcome(level.least_above, m, horizon) == \
                outcome(ref.least_above, m, horizon), ("least_above", m, horizon)
    for horizon in horizons:
        assert outcome(lambda h: list(level.prefix(h)), horizon) == \
            outcome(ref.prefix, horizon), ("prefix", horizon)


class TestClosedFormLevels:
    """Each built-in level against a reference stream over its closed form."""

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(sorted(BUILTIN_CHAINS)), base=st.integers(2, 7),
           n=st.integers(1, 60), data=st.data())
    def test_levels_match_reference(self, family, base, n, data):
        level = builtin_chain(family, base).stream(n)
        ref = ReferenceStream(family_enumerator(family, base, n), level.name)
        top = ref.element(64)
        near = [ref.element(k) + d for k in (1, 2, 17, 64) for d in (-1, 0, 1)]
        ms = near + data.draw(st.lists(st.integers(-2, 2 * top), max_size=6))
        # index 0, horizons <= 0 (1-based indices refused before any horizon
        # check), small horizons that the answers exceed, and large ones
        horizons = [-1, 0, 1, 2] + data.draw(st.lists(st.integers(1, 3000), max_size=3))
        ks = [-1, 0, 1] + data.draw(st.lists(st.integers(1, 5000), max_size=4))
        assert_level_matches(level, ref, ms, horizons, ks)

    def test_primes_level_past_the_cap(self, monkeypatch):
        # a small cap and ceiling with a fresh table, so the sieve stays cheap
        monkeypatch.setattr(pnfin, "PRIME_INDEX_CAP", 100)
        monkeypatch.setattr(pnfin, "_SIEVE_CEILING", 1600)
        monkeypatch.setattr(pnfin, "_PRIMES", [2, 3, 5, 7, 11, 13])
        level, ref = PrimesFrom(60), ReferenceStream(family_enumerator("primes-thinned", 2, 60))
        past = 100 - 60 + 2  # the 101st prime
        for query, args in [("element", (past,)), ("prefix", (past,)),
                            ("least_above", (5, past))]:
            with pytest.raises(ValueError, match="exceeds cap"):
                getattr(level, query)(*args)
        assert len(pnfin._PRIMES) == 6  # refused before sieving
        assert_level_matches(level, ref, [10 ** 6], [1, past - 1, past], [past - 1, past])
        # the reference's gallop overshoots the cap below the 100th prime;
        # the table answers up to it exactly
        assert level.contains(nth_prime(100))
        with pytest.raises(ValueError, match="exceeds cap"):
            level.contains(nth_prime(100) + 1)
        assert pnfin._PRIMES[-1] < 1600


class TestAgainstReference:
    """The library's chain functions against the element-by-element reference."""

    def check_chain(self, chain_fn, level_fn, name, count, horizon):
        """``chain_fn()`` builds the chain the library's functions get; the
        reference's get fresh reference streams over ``level_fn``."""
        assert outcome(verify_decreasing, chain_fn(), count, horizon) == \
            outcome(reference_verify_decreasing, reference_chain(level_fn, name), count, horizon)
        assert outcome(pseudo_intersection, chain_fn(), count, horizon) == \
            outcome(reference_pseudo_intersection, reference_chain(level_fn, name),
                    count, horizon)

    @pytest.mark.parametrize("name", sorted(BUILTIN_CHAINS))
    def test_builtin_chains(self, name):
        rng = random.Random(name)
        for base in (2, 3, 7):
            self.check_chain(lambda: builtin_chain(name, base),
                             lambda n: family_enumerator(name, base, n), name,
                             rng.randint(2, 40), rng.randint(1, 1500))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_chains(self, seed):
        rng = random.Random(seed)
        level_fn = random_level_fn(rng)
        name = f"random{seed}"
        self.check_chain(lambda: reference_chain(level_fn, name), level_fn, name,
                         rng.randint(2, 8), rng.randint(1, 400))

    @pytest.mark.parametrize("enumerator", [
        lambda k: 5,                                  # constant
        lambda k: -k,                                 # negative
        lambda k: k / 2,                              # not an int
        lambda k: "seven",                            # not a number at all
        lambda k: k if k != 40 else -1,               # negative deep in the prefix
        lambda k: k if k != 40 else 39,               # equal neighbours
        lambda k: 2 * k if k != 1023 else 2048,       # equal neighbours far out
    ])
    def test_adversarial_enumerators(self, enumerator):
        # an adversary below the naturals: the chain functions check the
        # prefix it hands out and fail as the reference does
        def level_fn(n):
            return (lambda k: k - 1) if n == 1 else enumerator
        for count, horizon in [(2, 1), (2, 39), (2, 100), (3, 100), (2, 2048)]:
            self.check_chain(lambda: reference_chain(level_fn, "adversary"), level_fn,
                             "adversary", count, horizon)

    def test_gallop_over_stalled_enumerator_refused(self):
        # element(k) >= k - 1 for strictly increasing naturals, so a gallop
        # past index top + 1 that is still at most top has found a fault; the
        # stalled level checks nothing itself, so only that bound ends the search
        def stalled(k):
            return min(k, 5)
        upper = SimpleNamespace(name="stalled", element=stalled,
                                prefix=lambda horizon: list(map(stalled, range(1, horizon + 1))))
        chain = DecreasingChain(lambda n: upper if n == 1 else evens())
        with pytest.raises(StrictnessError, match="stalled"):
            verify_decreasing(chain, 2, 100)

    def test_negative_progression_rejected(self):
        chain = DecreasingChain(lambda n: evens() if n == 1 else Progression(-4, 2, "from-4"))
        with pytest.raises(ValueError, match="not a natural"):
            verify_decreasing(chain, 2, 10)

    def test_least_above_huge_horizon(self):
        start = time.perf_counter()
        assert evens().least_above(5, 10 ** 12) == 6
        assert evens().least_above(10 ** 9, 10 ** 12) == 10 ** 9 + 2
        assert time.perf_counter() - start < 1
