"""Pseudo-intersections of decreasing chains of infinite subsets of N.

Infinite sets are represented only by levels that know their shape: an
arithmetic progression (first, step), or the primes from the n-th onward,
read from one shared prime table.  Each answers ``element(k)`` (1-based),
``contains(m)`` and ``least_above(m, horizon)`` exactly, by arithmetic or
bisection; nothing is memoized per level.
Inclusion between chain levels is decided on the first ``horizon`` elements
of the lower level from the two closed forms, without listing them, and
reports state that horizon rather than claiming the full inclusion.  The
levels of one chain share one of these two types; the library takes no
other level.

The pseudo-intersection of a decreasing chain b_1 >= b_2 >= ... is built by

    m_1 = min b_1,    m_{n+1} = least element of b_{n+1} exceeding m_n,

so m_k lies in b_n for all n <= k: the selected set differs from each b_n
only in the finitely many elements picked before stage n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable


class HorizonError(ValueError):
    """Raised when a query cannot be answered within the given horizon."""


class StrictnessError(ValueError):
    """Raised when a level's elements fail to be strictly increasing."""


class Progression:
    """The naturals first, first + step, first + 2 step, ... (step >= 1)."""

    def __init__(self, first: int, step: int, name: str):
        self.first, self.step, self.name = first, step, name

    def _check_naturals(self) -> None:
        """Raise unless first >= 0 and step >= 1, naming the first element
        that is not a natural or not above the one before."""
        for k, value in (1, self.first), (2, self.first + self.step):
            if value < 0:
                raise ValueError(f"{self.name}: element({k}) = {value} is not a natural")
        if self.step < 1:
            raise StrictnessError(f"{self.name}: element(1) = {self.first} >= "
                                  f"element(2) = {self.first + self.step}")

    def first_outside(self, upper: Progression, horizon: int) -> int | None:
        """The first of the first ``horizon`` >= 1 elements that ``upper``
        lacks; None when it holds them all."""
        # a + k d lies in (a', d') for every k < horizon iff a does and, past
        # k = 0, d' divides d; else a or a + d is the first one missing
        if not upper.contains(self.first):
            return self.first
        if horizon > 1 and self.step % upper.step:
            return self.first + self.step
        return None

    def element(self, k: int) -> int:
        """The k-th element (1-based)."""
        if k < 1:
            raise ValueError("indices are 1-based")
        return self.first + (k - 1) * self.step

    def contains(self, m: int) -> bool:
        return m >= self.first and (m - self.first) % self.step == 0

    def least_above(self, m: int, horizon: int) -> int:
        """The least element exceeding m; :class:`HorizonError` unless it is
        among the first ``horizon`` elements."""
        if self.element(horizon) <= m:
            raise HorizonError(
                f"{self.name}: no element above {m} within horizon {horizon}")
        if m < self.first:
            return self.first
        return m + self.step - (m - self.first) % self.step


class PrimesFrom:
    """The primes from the n-th onward: a view of the shared prime table."""

    def __init__(self, n: int):
        self.offset = n - 1
        self.name = f"primes-from-{n}"

    def element(self, k: int) -> int:
        return nth_prime(self._index(k))

    def _index(self, k: int) -> int:
        """The prime index of the k-th element, refused as :meth:`element`
        refuses it, without sieving."""
        if k < 1:
            raise ValueError("indices are 1-based")
        if self.offset + k > PRIME_INDEX_CAP:
            raise ValueError(f"prime index {self.offset + k} exceeds cap {PRIME_INDEX_CAP}")
        return self.offset + k

    def contains(self, m: int) -> bool:
        count = _prime_count(m)
        return count > self.offset and _PRIMES[count - 1] == m

    def least_above(self, m: int, horizon: int) -> int:
        """Grows the prime table to this level's first element and past m,
        or to the ``horizon``-th element, whichever comes first."""
        last = self._index(horizon)
        while len(_PRIMES) < last and (len(_PRIMES) <= self.offset or _PRIMES[-1] <= m):
            _extend_primes()
        if len(_PRIMES) >= last and _PRIMES[last - 1] <= m:
            raise HorizonError(
                f"{self.name}: no element above {m} within horizon {horizon}")
        return _PRIMES[bisect_right(_PRIMES, m, self.offset)]

    def first_outside(self, upper: PrimesFrom, horizon: int) -> int | None:
        self._index(horizon)
        return None if self.offset >= upper.offset else self.element(1)


#: A chain level: an infinite subset of N, listed in increasing order from
#: index 1.
Level = Progression | PrimesFrom


@dataclass
class DecreasingChain:
    """A chain n -> b_n (1-based) of nominally decreasing infinite subsets."""

    level: Callable[[int], Level]
    name: str = "chain"
    _levels: dict[int, Level] = field(default_factory=dict)

    def stream(self, n: int) -> Level:
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

    Each pair of levels is decided from the closed forms, once both are
    checked to be levels of one type and each progression to list strictly
    increasing naturals.  The first element of b_{n+1} missing from b_n is
    reported.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    for n in range(1, depth):
        upper, lower = chain.stream(n), chain.stream(n + 1)
        for level in (lower, upper):
            if isinstance(level, Progression):
                level._check_naturals()
            elif not isinstance(level, PrimesFrom):
                raise TypeError(f"{chain.name}: a level must be a Progression or a "
                                f"PrimesFrom, not {type(level).__name__}")
        if type(lower) is not type(upper):
            raise TypeError(f"{chain.name}: levels {n} and {n + 1} are a "
                            f"{type(upper).__name__} and a {type(lower).__name__}; "
                            f"the levels of a chain share one type")
        if horizon < 1:
            continue
        missing = lower.first_outside(upper, horizon)
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
    every pair n <= k by exact membership on the levels.
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
    _PRIMES.extend(compress(range(limit + 1), sieve))


def _prime_count(m: int) -> int:
    """The number of primes at most m, from the table grown as far as m.

    Refused like :func:`nth_prime` when m lies beyond the
    ``PRIME_INDEX_CAP``-th prime, which the table may not be grown to pass.
    """
    while _PRIMES[-1] < m and len(_PRIMES) < PRIME_INDEX_CAP:
        _extend_primes()
    top = min(len(_PRIMES), PRIME_INDEX_CAP)
    if _PRIMES[top - 1] < m:
        raise ValueError(f"prime index {top + 1} exceeds cap {PRIME_INDEX_CAP}")
    return bisect_right(_PRIMES, m, 0, top)


def dyadic_chain(base: int = 2) -> DecreasingChain:
    """Level n enumerates the positive multiples of base^n."""
    if base < 2:
        raise ValueError("base must be at least 2")

    def level(n: int) -> Progression:
        step = base ** n
        return Progression(step, step, f"multiples-of-{base}^{n}")

    return DecreasingChain(level=level, name="dyadic")


def tails_chain() -> DecreasingChain:
    """Level n enumerates {m : m > n}."""

    return DecreasingChain(level=lambda n: Progression(n + 1, 1, f"tail-above-{n}"),
                           name="tails")


def primes_thinned_chain() -> DecreasingChain:
    """Level n enumerates the primes from the n-th onward.

    Each level drops one more initial prime, thinning the previous level
    while keeping the chain decreasing and every level infinite.
    """
    return DecreasingChain(level=PrimesFrom, name="primes-thinned")


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
