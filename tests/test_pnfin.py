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


def odds():
    return Progression(1, 2, "odds")


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


def enumerator_of(level):
    """A closed-form level as an enumerator, for the reference stream."""
    if isinstance(level, Progression):
        return lambda k: level.first + (k - 1) * level.step
    return lambda k: nth_prime(level.offset + k)


def mirror(chain):
    """A reference chain over the closed forms of ``chain``'s levels."""
    return reference_chain(lambda n: enumerator_of(chain.stream(n)), chain.name)


def progression_of(enumerator, name):
    """The progression whose first two elements are the enumerator's."""
    return Progression(enumerator(1), enumerator(2) - enumerator(1), name)


def random_progression_below(rng, upper, name):
    """A random progression that nests in ``upper``, starts outside it, or
    starts inside it with a step that ``upper``'s step does not divide."""
    a, d = upper.first + upper.step * rng.randint(0, 4), upper.step * rng.randint(1, 3)
    kind = rng.choice(("nests", "nests", "misses first", "misses second"))
    if kind == "misses first" and upper.step > 1:
        a += rng.randint(1, upper.step - 1)
    elif kind == "misses first" and upper.first > 0:
        a = rng.randint(0, upper.first - 1)
    elif kind == "misses second" and upper.step > 1:
        d += rng.randint(1, upper.step - 1)
    return Progression(a, d, name)


def random_progression_chain(rng, depth, name):
    """Level 1 a random progression; each next level one below the last."""
    levels = [Progression(rng.randint(0, 9), rng.randint(1, 5), f"{name}-1")]
    for n in range(2, depth + 1):
        levels.append(random_progression_below(rng, levels[-1], f"{name}-{n}"))
    return DecreasingChain(lambda n: levels[n - 1], name=name)


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
        # the horizon bounds least_above to the first horizon elements;
        # membership is unbounded
        assert evens().least_above(18, 10) == 20 == evens().element(10)
        assert evens().contains(100)
        assert [PrimesFrom(2).element(k) for k in (1, 2, 3)] == [3, 5, 7]
        with pytest.raises(HorizonError):
            evens().least_above(20, 10)

    def test_strictness_violation_detected(self):
        # a level that is not increasing, below a level that holds its first
        # element; the step is checked at every horizon, even one element
        for step, text in [(0, "element\\(1\\) = 6 >= element\\(2\\) = 6"),
                           (-2, "element\\(1\\) = 6 >= element\\(2\\) = 4")]:
            constant = DecreasingChain(lambda n: evens() if n == 1
                                       else Progression(6, step, "constant"))
            for horizon in (1, 3):
                with pytest.raises(StrictnessError, match="constant: " + text):
                    verify_decreasing(constant, 2, horizon)

    def test_non_natural_rejected(self):
        negatives = DecreasingChain(lambda n: evens() if n == 1
                                    else Progression(-1, -1, "negatives"))
        with pytest.raises(ValueError, match="element\\(1\\) = -1 is not a natural") as info:
            verify_decreasing(negatives, 2, 3)
        assert info.type is ValueError
        # a decreasing progression whose second element is already negative
        down = DecreasingChain(lambda n: evens() if n == 1 else Progression(1, -2, "down"))
        with pytest.raises(ValueError, match="down: element\\(2\\) = -1 is not a natural"):
            verify_decreasing(down, 2, 3)

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
        chain = DecreasingChain(lambda n: evens() if n == 1 else odds())
        report = verify_decreasing(chain, 2, 100)
        assert not report.ok
        assert report.first_violation == (1, 1)  # 1 is in b_2 but not in b_1

    def test_horizons_below_one_pass(self):
        # no element is checked, so even a chain that is not decreasing passes
        for chain in (dyadic_chain(), primes_thinned_chain(),
                      DecreasingChain(lambda n: evens() if n == 1 else odds())):
            for horizon in (0, -3):
                assert verify_decreasing(chain, 4, horizon).ok

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
        chain = DecreasingChain(lambda n: evens() if n == 1 else odds())
        with pytest.raises(ValueError, match="chain is not decreasing"):
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
        for query, args in [("element", (past,)), ("least_above", (5, past)),
                            ("first_outside", (PrimesFrom(1), past))]:
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
        # random progression chains, nesting or not, against the reference
        # over the same closed forms
        rng = random.Random(seed)
        depth, horizon = rng.randint(2, 8), rng.choice((1, 2, rng.randint(1, 400)))
        chain = random_progression_chain(rng, depth, f"random{seed}")
        for count in range(2, depth + 1):
            assert outcome(verify_decreasing, chain, count, horizon) == \
                outcome(reference_verify_decreasing, mirror(chain), count, horizon)
            assert outcome(pseudo_intersection, chain, count, horizon) == \
                outcome(reference_pseudo_intersection, mirror(chain), count, horizon)

    def test_progression_pairs(self):
        # nesting or not, at horizon 1 and above: the first missing element
        # is the first element or the second, as the reference finds it
        rng = random.Random(26)
        seen = set()
        for trial in range(600):
            upper = Progression(rng.randint(0, 12), rng.randint(1, 6), "upper")
            lower = random_progression_below(rng, upper, "lower")
            horizon = rng.choice((1, 2, 3, rng.randint(1, 60)))
            chain = DecreasingChain(lambda n: upper if n == 1 else lower)
            report = verify_decreasing(chain, 2, horizon)
            assert report == reference_verify_decreasing(mirror(chain), 2, horizon), trial
            missing = report.first_violation and report.first_violation[1]
            seen.add((horizon == 1, {None: None, lower.first: "a",
                                     lower.first + lower.step: "a + d"}[missing]))
        assert seen == {(h1, kind) for h1 in (True, False) for kind in (None, "a")} \
            | {(False, "a + d")}

    def test_primes_views_at_any_two_offsets(self):
        for m in range(1, 13):
            for n in range(1, 13):
                chain = DecreasingChain({1: PrimesFrom(n), 2: PrimesFrom(m)}.get)
                for horizon in (1, 2, 7, 50):
                    report = verify_decreasing(chain, 2, horizon)
                    assert report == reference_verify_decreasing(mirror(chain), 2, horizon)
                    assert report.ok == (m >= n)

    def test_mixed_pairs_refused(self, monkeypatch):
        # no built-in chain mixes the two level types; a mixed pair is
        # refused before any element of either level is read
        def stalled(*args):
            raise AssertionError("read an element of a refused pair")
        for cls in (Progression, PrimesFrom):
            for query in ("element", "contains", "least_above", "first_outside"):
                monkeypatch.setattr(cls, query, stalled)
        for upper, lower in [(Progression(2, 1, "from-2"), PrimesFrom(1)),
                             (PrimesFrom(2), Progression(3, 2, "odd-from-3"))]:
            chain = DecreasingChain({1: upper, 2: lower, 3: lower}.get, name="mixed")
            for horizon in (0, 1, 40):
                with pytest.raises(TypeError, match="mixed: levels 1 and 2 are a "
                                   f"{type(upper).__name__} and a {type(lower).__name__}"):
                    verify_decreasing(chain, 2, horizon)
            with pytest.raises(TypeError, match="share one type"):
                pseudo_intersection(chain, 3, 100)

    @pytest.mark.parametrize("enumerator", [
        lambda k: 5,                                  # constant
        lambda k: -k,                                 # negative
        lambda k: 40 - k,                             # decreasing naturals
        lambda k: 1 - k,                              # natural, then negative
        lambda k: k - 2,                              # increasing from a negative
        lambda k: 2 - 2 * k,                          # zero, then negative
        lambda k: 10 ** 6 - 10 ** 5 * k,              # decreasing far out
    ])
    def test_adversarial_enumerators(self, enumerator):
        # an adversary below the naturals, as a progression with the
        # enumerator's closed form: the chain functions refuse it as the
        # reference does once the reference lists its second element, and
        # at horizon 1 as they do at horizon 2, since the step is checked
        def level_fn(n):
            return (lambda k: k - 1) if n == 1 else enumerator

        def chain_fn():
            return DecreasingChain(lambda n: progression_of(level_fn(n), "adversary"))
        for count, horizon in [(2, 2), (2, 39), (2, 100), (3, 100), (2, 2048)]:
            self.check_chain(chain_fn, level_fn, "adversary", count, horizon)
        assert outcome(verify_decreasing, chain_fn(), 2, 1) == \
            outcome(verify_decreasing, chain_fn(), 2, 2)
        assert outcome(verify_decreasing, chain_fn(), 2, 2) in (ValueError, StrictnessError)

    def test_gallop_over_stalled_enumerator_refused(self):
        # a level of any other type is refused before any of its elements is
        # read, so no search can run on a level that checks nothing itself
        def stalled(k):
            raise AssertionError("read an element of a refused level")
        upper = SimpleNamespace(name="stalled", element=stalled, contains=stalled)
        for chain in (DecreasingChain(lambda n: upper if n == 1 else evens()),
                      DecreasingChain(lambda n: evens() if n == 1 else upper),
                      DecreasingChain(lambda n: ReferenceStream(lambda k: 2 * k))):
            with pytest.raises(TypeError, match="Progression or a PrimesFrom"):
                verify_decreasing(chain, 2, 100)
            with pytest.raises(TypeError):
                pseudo_intersection(chain, 3, 100)

    def test_negative_progression_rejected(self):
        negative = Progression(-4, 2, "from-4")
        for levels in ({1: evens(), 2: negative}, {1: negative, 2: evens()},
                       {1: negative, 2: PrimesFrom(1)}):
            with pytest.raises(ValueError, match="from-4: element\\(1\\) = -4 is not a natural"):
                verify_decreasing(DecreasingChain(levels.get), 2, 10)

    def test_progression_chain_at_a_huge_horizon(self):
        # no listing reaches 10^12 elements; the closed forms answer at once
        start = time.perf_counter()
        for factory in (dyadic_chain, tails_chain):
            assert verify_decreasing(factory(), 50, 10 ** 12).ok
        shifted = DecreasingChain(lambda n: Progression(2 ** n + (n == 30), 2 ** n, f"s{n}"))
        assert verify_decreasing(shifted, 50, 10 ** 12).first_violation == (29, 2 ** 30 + 1)
        assert time.perf_counter() - start < 1

    def test_primes_refused_one_step_over_the_index_cap(self, monkeypatch):
        # the lower level's last checked element is the primes' index
        # depth - 1 + horizon; one step over the cap is refused with the
        # cap's text, before the table grows past the cap's ceiling
        monkeypatch.setattr(pnfin, "PRIME_INDEX_CAP", 100)
        monkeypatch.setattr(pnfin, "_SIEVE_CEILING", 1600)
        monkeypatch.setattr(pnfin, "_PRIMES", [2, 3, 5, 7, 11, 13])
        for depth in (2, 5):
            assert verify_decreasing(primes_thinned_chain(), depth, 101 - depth).ok
            with pytest.raises(ValueError, match="^prime index 101 exceeds cap 100$"):
                verify_decreasing(primes_thinned_chain(), depth, 102 - depth)
        assert pnfin._PRIMES[-1] < 1600

    def test_primes_horizon_checked_by_index_without_sieving(self, monkeypatch):
        # a fresh table: a horizon far past the answer grows it no further than the answer
        monkeypatch.setattr(pnfin, "_PRIMES", [2, 3, 5, 7, 11, 13])
        assert PrimesFrom(1).least_above(13, 7) == 17  # the answer is the first prime past the table
        horizon = pnfin.PRIME_INDEX_CAP - 1
        assert PrimesFrom(2).least_above(3, horizon) == 5
        assert PrimesFrom(2).first_outside(PrimesFrom(1), horizon) is None
        assert PrimesFrom(1).first_outside(PrimesFrom(2), horizon) == 2
        assert verify_decreasing(primes_thinned_chain(), 2, horizon).ok
        assert pseudo_intersection(primes_thinned_chain(), 2, horizon).elements == (2, 3)
        # and an m far past a small horizon's last element grows it no further than that
        with pytest.raises(HorizonError):
            PrimesFrom(1).least_above(8 * 10 ** 6, 3)
        assert len(pnfin._PRIMES) < 1000
        with pytest.raises(ValueError, match=f"^prime index {horizon + 2} exceeds cap "):
            PrimesFrom(3).least_above(3, horizon)
        with pytest.raises(HorizonError):  # every prime up to m precedes the horizon
            PrimesFrom(2).least_above(100, 3)

    def test_primes_least_above_past_the_table(self, monkeypatch):
        # m beyond the largest prime the table may hold is past every horizon
        monkeypatch.setattr(pnfin, "PRIME_INDEX_CAP", 100)
        monkeypatch.setattr(pnfin, "_SIEVE_CEILING", 1600)
        monkeypatch.setattr(pnfin, "_PRIMES", [2, 3, 5, 7, 11, 13])
        with pytest.raises(HorizonError, match="no element above 1000000 within horizon 3"):
            PrimesFrom(1).least_above(10 ** 6, 3)
        assert PrimesFrom(1).least_above(nth_prime(99), 100) == nth_prime(100)

    def test_primes_least_above_offset_past_the_table(self, monkeypatch):
        # the table grows to the level's first element even when m lies below
        # the table's last prime
        for n in (7, 10):  # one past the table's end, and further
            monkeypatch.setattr(pnfin, "_PRIMES", [2, 3, 5, 7, 11, 13])
            assert PrimesFrom(n).least_above(5, 3) == nth_prime(n)
        monkeypatch.setattr(pnfin, "_PRIMES", [2, 3, 5, 7, 11, 13])
        chain = DecreasingChain({1: PrimesFrom(1), 2: PrimesFrom(100)}.get)
        assert verify_decreasing(chain, 2, 5).ok
        assert pseudo_intersection(chain, 2, 5).elements == (2, nth_prime(100))

    def test_least_above_huge_horizon(self):
        start = time.perf_counter()
        assert evens().least_above(5, 10 ** 12) == 6
        assert evens().least_above(10 ** 9, 10 ** 12) == 10 ** 9 + 2
        assert time.perf_counter() - start < 1
