"""Pseudo-intersections of decreasing chains of infinite subsets of N.

Infinite sets are represented only by strictly increasing total enumerators
(1-based index -> natural number); arbitrary membership predicates are
rejected by design, so membership and "least element above m" are decidable
by monotone search over indices.  Strictness is verified on every prefix
actually enumerated; inclusion between chain levels is verified on finite
prefixes up to an explicit horizon, and reports state that horizon rather
than claiming the full inclusion.

The pseudo-intersection of a decreasing chain b_1 >= b_2 >= ... is built by

    m_1 = min b_1,    m_{n+1} = least element of b_{n+1} exceeding m_n,

so m_k lies in b_n for all n <= k: the selected set differs from each b_n
only in the finitely many elements picked before stage n.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import eq, ge
from typing import Callable


class HorizonError(ValueError):
    """Raised when a query cannot be answered within the given horizon."""


class StrictnessError(ValueError):
    """Raised when an enumerator fails to be strictly increasing."""


#: Largest number of elements one bulk extension of a prefix enumerates
#: beyond what is asked for; bounds the overshoot of a value-driven search.
_CHUNK = 512


class InfiniteSubsetStream:
    """A strictly increasing enumerator with a memoized, checked prefix.

    Elements 1..n are held densely in a list, extended in bulk; each
    extension checks its new values, and the one before them, for being
    naturals in strictly increasing order.  Elements beyond the prefix that
    galloping or bisection reaches are kept in a small dict, checked
    against whichever neighbours are known.
    """

    def __init__(self, enumerator: Callable[[int], int], name: str = "stream"):
        self.name = name
        self._enumerator = enumerator
        self._prefix: list[int] = []
        self._far: dict[int, int] = {}

    def element(self, k: int) -> int:
        """The k-th element (1-based)."""
        if k < 1:
            raise ValueError("indices are 1-based")
        prefix = self._prefix
        if k <= len(prefix):
            return prefix[k - 1]
        if k == len(prefix) + 1:
            self.check_prefix(k)
            return prefix[k - 1]
        value = self._far.get(k)
        if value is None:
            value = self._enumerator(k)
            self._check_values(k, self._far.get(k - 1, -1), (value,))
            nxt = self._far.get(k + 1)
            if nxt is not None and value >= nxt:
                raise self._not_increasing(k, value, nxt)
            self._far[k] = value
        return value

    def check_prefix(self, horizon: int) -> None:
        """Enumerate and check elements 1..horizon (memoized), reusing far elements."""
        prefix, far = self._prefix, self._far
        start = len(prefix) + 1
        if horizon < start:
            return
        if len(far) < horizon - start:
            absorbed = sorted(k for k in far if k <= horizon)
        else:
            absorbed = [k for k in range(start, horizon + 1) if k in far]
        new: list[int] = []
        for k in absorbed:
            new += map(self._enumerator, range(start, k))
            new.append(far[k])
            start = k + 1
        new += map(self._enumerator, range(start, horizon + 1))
        last = prefix[-1] if prefix else -1
        if (not all(map(isinstance, new, repeat(int)))
                or last >= new[0] or any(map(ge, new, new[1:]))):
            self._check_values(len(prefix) + 1, last, new)
        nxt = far.get(horizon + 1)
        if nxt is not None and new[-1] >= nxt:
            raise self._not_increasing(horizon, new[-1], nxt)
        for k in absorbed:
            del far[k]
        prefix += new

    def _check_values(self, k: int, last: int, values) -> None:
        """Check that the values of indices k, k+1, ... are naturals increasing
        from ``last``; raise for the first that is not."""
        for value in values:
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{self.name}: enumerator must produce naturals")
            if last >= value:
                raise self._not_increasing(k - 1, last, value)
            last = value
            k += 1

    def _not_increasing(self, k: int, value: int, nxt: int) -> StrictnessError:
        return StrictnessError(
            f"{self.name}: enumerator({k}) = {value} >= enumerator({k + 1}) = {nxt}")

    def membership(self, m: int, horizon: int) -> bool:
        """True iff m appears among the first ``horizon`` elements.

        Requires m <= element(horizon); larger queries raise
        :class:`HorizonError` (enlarge the horizon to decide them).
        """
        self.check_prefix(horizon)
        top = self.element(horizon)
        if m > top:
            raise HorizonError(f"{self.name}: {m} exceeds element({horizon}) = {top}")
        prefix = self._prefix
        return prefix[bisect_left(prefix, m, 0, horizon)] == m

    def contains(self, m: int) -> bool:
        """Unbounded membership by galloping search over the total enumerator.

        Sound because the enumerator is strictly increasing and total; only
        O(log position) enumerator evaluations are made, so sparse levels of
        closed-form chains stay cheap even at astronomically large values.
        """
        prefix = self._prefix
        if prefix and m <= prefix[-1]:
            return prefix[bisect_left(prefix, m)] == m
        hi = 1
        while (v := self.element(hi)) < m:
            if hi > m:  # strictly increasing naturals have element(k) >= k - 1
                raise StrictnessError(f"{self.name}: element({hi}) = {v} is below {m}")
            hi *= 2
        return self._index_of(m, hi) is not None

    def _index_of(self, m: int, hi: int) -> int | None:
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

    def least_above(self, m: int, horizon: int) -> int:
        """The least element exceeding m, searched within the horizon."""
        self.check_prefix(min(horizon, 64))
        prefix = self._prefix
        n = min(len(prefix), max(horizon, 0))
        if n and prefix[n - 1] > m:
            return prefix[bisect_right(prefix, m, 0, n)]
        if self.element(horizon) <= m:
            raise HorizonError(
                f"{self.name}: no element above {m} within horizon {horizon}")
        lo, hi = n + 1, horizon
        while lo < hi:
            mid = (lo + hi) // 2
            if self.element(mid) > m:
                hi = mid
            else:
                lo = mid + 1
        return self.element(lo)

    def _first_missing(self, values: list[int]) -> int | None:
        """The first of the increasing ``values`` that is not an element.

        The prefix is extended in bounded chunks only as far as the values
        up to the first missing one require.
        """
        prefix = self._prefix
        i = 0
        while i < len(values):
            if not prefix or prefix[-1] < values[i]:
                # a bounded chunk, at most doubling the prefix
                self.check_prefix(len(prefix) + min(max(len(prefix), 16), _CHUNK))
                continue
            j = bisect_right(values, prefix[-1], i)
            batch = values[i:j]
            lo = bisect_left(prefix, batch[0])
            merged = prefix[lo:bisect_right(prefix, batch[-1], lo)] + batch
            merged.sort()  # merges the two increasing runs in one pass
            # every value present pairs with its equal in the prefix
            if sum(map(eq, merged, merged[1:])) != len(batch):
                return next(v for v in batch if prefix[bisect_left(prefix, v)] != v)
            i = j
        return None


@dataclass
class DecreasingChain:
    """A chain n -> b_n (1-based) of nominally decreasing infinite subsets."""

    level: Callable[[int], InfiniteSubsetStream]
    name: str = "chain"
    _levels: dict[int, InfiniteSubsetStream] = field(default_factory=dict)

    def stream(self, n: int) -> InfiniteSubsetStream:
        if n < 1:
            raise ValueError("chain levels are 1-based")
        s = self._levels.get(n)
        if s is None:
            s = self.level(n)
            self._levels[n] = s
        return s


@dataclass(frozen=True)
class DecreasingReport:
    """Prefix-verified inclusion verdict for a chain."""

    ok: bool
    depth: int
    horizon: int
    first_violation: tuple[int, int] | None  # (level n, offending element of b_{n+1})

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "depth": self.depth,
            "horizon": self.horizon,
            "first_violation": list(self.first_violation) if self.first_violation else None,
        }


def verify_decreasing(chain: DecreasingChain, depth: int, horizon: int) -> DecreasingReport:
    """Check b_{n+1} subset of b_n on prefixes, for n = 1 .. depth-1.

    The first ``horizon`` elements of b_{n+1} are merged against b_n (whose
    prefix is extended as far as those values require); the first element of
    b_{n+1} missing from b_n is reported.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    for n in range(1, depth):
        lower = chain.stream(n + 1)
        lower.check_prefix(horizon)
        missing = chain.stream(n)._first_missing(lower._prefix[:max(horizon, 0)])
        if missing is not None:
            return DecreasingReport(ok=False, depth=depth, horizon=horizon,
                                    first_violation=(n, missing))
    return DecreasingReport(ok=True, depth=depth, horizon=horizon, first_violation=None)


@dataclass(frozen=True)
class PseudoIntersectionResult:
    """The selected elements plus the checked tail-membership guarantee."""

    elements: tuple[int, ...]
    decreasing: DecreasingReport
    tail_membership_ok: bool
    horizon: int

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "decreasing": self.decreasing.to_json(),
            "tail_membership_ok": self.tail_membership_ok,
            "horizon": self.horizon,
        }


def pseudo_intersection(chain: DecreasingChain, count: int,
                        horizon: int = 10_000) -> PseudoIntersectionResult:
    """Select m_1 < m_2 < ... < m_count with m_k in b_n for all n <= k.

    Precondition: the chain passes the prefix inclusion check at the given
    horizon (verified here; failing chains raise).  The selection scans each
    level within the horizon; the guarantee m_k in b_n is then checked for
    every pair n <= k by unbounded membership on the total enumerators.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if count >= 2:
        report = verify_decreasing(chain, depth=count, horizon=horizon)
        if not report.ok:
            raise ValueError(
                f"chain is not decreasing on the checked prefix: {report.first_violation}")
    else:
        report = DecreasingReport(ok=True, depth=1, horizon=horizon, first_violation=None)
    elements = [chain.stream(1).element(1)]
    for n in range(2, count + 1):
        elements.append(chain.stream(n).least_above(elements[-1], horizon))
    guarantee = all(
        chain.stream(n).contains(elements[k - 1])
        for n in range(1, count + 1)
        for k in range(n, count + 1)
    )
    return PseudoIntersectionResult(
        elements=tuple(elements),
        decreasing=report,
        tail_membership_ok=guarantee,
        horizon=horizon,
    )


# -- built-in chain families -----------------------------------------------------

#: Largest prime index :func:`nth_prime` serves: 2^19, above the index
#: ``bvdesk pnfin pi`` can reach under ``cli.PI_CAP``.
PRIME_INDEX_CAP = 1 << 19
#: Sieve bound covering the first PRIME_INDEX_CAP primes: for k >= 6,
#: p_k < k (ln k + ln ln k) (Rosser 1941), which is below 16 k at k = 2^19.
_SIEVE_CEILING = 16 * PRIME_INDEX_CAP

_PRIMES: list[int] = [2, 3, 5, 7, 11, 13]


def nth_prime(k: int) -> int:
    """The k-th prime (1-based), from a sieve that grows up to a fixed ceiling.

    Indices above ``PRIME_INDEX_CAP`` are refused before any sieving.
    """
    if k < 1:
        raise ValueError("prime indices are 1-based")
    if k > PRIME_INDEX_CAP:
        raise ValueError(f"prime index {k} exceeds cap {PRIME_INDEX_CAP}")
    while len(_PRIMES) < k:
        _extend_primes()
    return _PRIMES[k - 1]


def _extend_primes() -> None:
    limit = min(max(2 * _PRIMES[-1], 100), _SIEVE_CEILING)
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    _PRIMES.clear()
    _PRIMES.extend(i for i, flag in enumerate(sieve) if flag)


def dyadic_chain(base: int = 2) -> DecreasingChain:
    """Level n enumerates the positive multiples of base^n."""
    if base < 2:
        raise ValueError("base must be at least 2")

    def level(n: int) -> InfiniteSubsetStream:
        step = base ** n
        return InfiniteSubsetStream(lambda k, step=step: k * step,
                                    name=f"multiples-of-{base}^{n}")

    return DecreasingChain(level=level, name="dyadic")


def tails_chain() -> DecreasingChain:
    """Level n enumerates {m : m > n}."""

    def level(n: int) -> InfiniteSubsetStream:
        return InfiniteSubsetStream(lambda k, n=n: n + k, name=f"tail-above-{n}")

    return DecreasingChain(level=level, name="tails")


def primes_thinned_chain() -> DecreasingChain:
    """Level n enumerates the primes from the n-th onward.

    Each level drops one more initial prime, thinning the previous level
    while keeping the chain decreasing and every level infinite.
    """

    def level(n: int) -> InfiniteSubsetStream:
        return InfiniteSubsetStream(lambda k, n=n: nth_prime(n + k - 1),
                                    name=f"primes-from-{n}")

    return DecreasingChain(level=level, name="primes-thinned")


BUILTIN_CHAINS: dict[str, Callable[[], DecreasingChain]] = {
    "dyadic": dyadic_chain,
    "tails": tails_chain,
    "primes-thinned": primes_thinned_chain,
}


def chain_from_spec(spec: dict) -> DecreasingChain:
    """Build a chain from a JSON spec {"family": name, "params": {...}}."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError('chain spec must be {"family": ..., "params": {...}}')
    family = spec["family"]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError('chain spec "params" must be an object')
    if family == "dyadic":
        if params.keys() - {"base"} or type(params.get("base", 2)) is not int:
            raise ValueError('the dyadic family takes one integer parameter, "base"')
        return dyadic_chain(**params)
    if family == "tails":
        if params:
            raise ValueError("the tails family takes no parameters")
        return tails_chain()
    if family == "primes-thinned":
        if params:
            raise ValueError("the primes-thinned family takes no parameters")
        return primes_thinned_chain()
    raise ValueError(f"unknown chain family {family!r}; "
                     f"choose from {sorted(BUILTIN_CHAINS)}")
