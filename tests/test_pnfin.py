import math
import random
import time

import pytest

from bvdesk import pnfin
from bvdesk.pnfin import (BUILTIN_CHAINS, DecreasingChain, DecreasingReport,
                          HorizonError, InfiniteSubsetStream,
                          PseudoIntersectionResult, StrictnessError,
                          chain_from_spec, dyadic_chain,
                          nth_prime, primes_thinned_chain, pseudo_intersection,
                          tails_chain, verify_decreasing)


def evens():
    return InfiniteSubsetStream(lambda k: 2 * k, "evens")


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

    def membership(self, m, horizon):
        self.check_prefix(horizon)
        if m > self.element(horizon):
            raise HorizonError(f"{self.name}: {m} beyond the horizon")
        return self._index_of(m, horizon) is not None

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


class Counted:
    """An enumerator wrapper that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, k):
        self.calls += 1
        return self.fn(k)


def twin_chains(level_fn, name):
    """The same chain of enumerators twice: new streams, reference streams.

    ``level_fn(n)`` returns the enumerator of level n; the call counts of
    both sides are kept per level.
    """
    counts = {"new": {}, "ref": {}}

    def make(cls, side):
        def level(n):
            fn = Counted(level_fn(n))
            counts[side][n] = fn
            return cls(fn, f"{name}-{n}")
        return DecreasingChain(level=level, name=name)

    return make(InfiniteSubsetStream, "new"), make(ReferenceStream, "ref"), counts


def builtin_level_fn(factory):
    chain = factory()
    return lambda n: chain.level(n)._enumerator


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
        assert evens().membership(6, 10)
        assert not evens().membership(7, 10)
        powers = InfiniteSubsetStream(lambda k: 2 ** k, "powers")
        assert powers.membership(8, 5)

    def test_membership_beyond_horizon(self):
        with pytest.raises(HorizonError):
            evens().membership(100, 10)

    def test_strictness_violation_detected(self):
        constant = InfiniteSubsetStream(lambda k: 5, "constant")
        with pytest.raises(StrictnessError):
            constant.check_prefix(3)

    def test_non_natural_rejected(self):
        with pytest.raises(ValueError):
            InfiniteSubsetStream(lambda k: -k, "negatives").element(1)

    def test_least_above(self):
        assert evens().least_above(5, 100) == 6
        assert evens().least_above(6, 100) == 8
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
        chain = DecreasingChain(
            lambda n: evens() if n == 1
            else InfiniteSubsetStream(lambda k: 2 * k - 1, "odds"))
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
        chain = DecreasingChain(lambda n: evens())
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
        chain = DecreasingChain(
            lambda n: evens() if n == 1
            else InfiniteSubsetStream(lambda k: 2 * k - 1, "odds"))
        with pytest.raises(ValueError):
            pseudo_intersection(chain, 3, 100)

    def test_horizon_exhaustion(self):
        # the constant evens chain needs element index k at stage k, so a
        # two-element horizon cannot supply the third selection
        chain = DecreasingChain(lambda n: evens())
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


class TestAgainstReference:
    """The list-prefix stream against the dict-per-index reference."""

    @staticmethod
    def assert_calls_bounded(counts):
        # at most twice the reference's enumerations per level, plus a
        # first chunk: extensions at most double the prefix
        for n, ref in counts["ref"].items():
            assert counts["new"][n].calls <= 2 * ref.calls + 16, n

    def check_chain(self, level_fn, name, count, horizon, rng):
        new, ref, counts = twin_chains(level_fn, name)
        assert outcome(verify_decreasing, new, count, horizon) == \
            outcome(reference_verify_decreasing, ref, count, horizon)
        new, ref, counts = twin_chains(level_fn, name)
        assert outcome(pseudo_intersection, new, count, horizon) == \
            outcome(reference_pseudo_intersection, ref, count, horizon)
        self.assert_calls_bounded(counts)
        for n in (1, 2, count):
            a, b = new.stream(n), ref.stream(n)
            top = b.element(horizon)
            for m in [rng.randrange(top + 2) for _ in range(20)] + [top, 8 * top]:
                assert outcome(a.least_above, m, horizon) == outcome(b.least_above, m, horizon)
                assert outcome(a.contains, m) == outcome(b.contains, m)
                assert outcome(a.membership, m, horizon // 2) == \
                    outcome(b.membership, m, horizon // 2)
            for k in [rng.randrange(1, 8 * horizon) for _ in range(20)]:
                assert a.element(k) == b.element(k)

    @pytest.mark.parametrize("name", sorted(BUILTIN_CHAINS))
    def test_builtin_chains(self, name):
        rng = random.Random(name)
        self.check_chain(builtin_level_fn(BUILTIN_CHAINS[name]), name, 12, 1500, rng)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_chains(self, seed):
        rng = random.Random(seed)
        self.check_chain(random_level_fn(rng), f"random{seed}", rng.randint(2, 8),
                         rng.randint(1, 400), rng)

    @pytest.mark.parametrize("enumerator", [
        lambda k: 5,                                  # constant
        lambda k: -k,                                 # negative
        lambda k: k / 2,                              # not an int
        lambda k: "seven",                            # not a number at all
        lambda k: k if k != 40 else -1,               # negative deep in the prefix
        lambda k: k if k != 40 else 39,               # equal neighbours
        lambda k: 2 * k if k != 1023 else 2048,       # fault at a far galloped index
    ])
    def test_adversarial_enumerators(self, enumerator):
        queries = [("check_prefix", 100), ("contains", 2048), ("contains", 3),
                   ("least_above", 50, 10 ** 6), ("membership", 60, 100),
                   ("element", 1023), ("element", 1)]
        for name, *args in queries:
            # the reference keeps unchecked values after a fault, so each
            # query starts from fresh streams
            a = InfiniteSubsetStream(enumerator, "adversary")
            b = ReferenceStream(enumerator, "adversary")
            got = outcome(getattr(a, name), *args)
            assert got == outcome(getattr(b, name), *args), name
            assert outcome(getattr(a, name), *args) == got, name

    def test_gallop_over_stalled_enumerator_refused(self):
        # element(k) >= k - 1 for strictly increasing naturals, so a gallop
        # past index m that is still below m has found a fault (the
        # reference gallops forever here)
        s = InfiniteSubsetStream(lambda k: k if k < 4 else 5, "stalled")
        with pytest.raises(StrictnessError):
            s.contains(2048)

    def test_far_fault_raises_strictness(self):
        # f(1023) = f(1024) = 2048: galloping sees index 1024 first
        def enumerator(k):
            return 2 * k if k != 1023 else 2048
        for cls in (InfiniteSubsetStream, ReferenceStream):
            # the bisection meets the equal neighbour far beyond the prefix
            with pytest.raises(StrictnessError):
                cls(enumerator).contains(2048)
            # a prefix grown up to the far element is checked against it
            s = cls(enumerator)
            assert not s.contains(2049)
            with pytest.raises(StrictnessError):
                s.check_prefix(1023)

    def test_far_elements_absorbed_by_prefix(self):
        s = InfiniteSubsetStream(lambda k: 3 * k)
        assert s.contains(3 * 1000) and not s.contains(3 * 1000 + 1)
        s.check_prefix(2000)
        assert [s.element(k) for k in (1, 999, 1000, 1001, 2000)] == \
            [3, 2997, 3000, 3003, 6000]
        assert s.membership(3 * 1500, 2000)

    def test_least_above_huge_horizon(self):
        start = time.perf_counter()
        assert evens().least_above(5, 10 ** 12) == 6
        assert evens().least_above(10 ** 9, 10 ** 12) == 10 ** 9 + 2
        assert time.perf_counter() - start < 1
