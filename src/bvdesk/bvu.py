"""Bounded-rank Boolean-valued sets with exact truth-value evaluation.

A B-valued set is a finite map from B-valued sets of strictly smaller rank
to elements of a fixed finite Boolean algebra B.  Truth values of membership
and equality are computed by the usual mutual recursion:

    [[x in y]] = sup_{t in dom(y)} ( y(t) ^ [[t = x]] )
    [[x = y]]  = inf_{t in dom(x)} ( x(t) => [[t in y]] )
               ^ inf_{t in dom(y)} ( y(t) => [[t in x]] )

Equality uses infima over the domains (the empty infimum is 1, which is
forced by reflexivity [[x = x]] = 1); a join-based variant would make the
empty set unequal to itself.

The module provides standard names of hereditarily finite sets, mixings
along partitions of unity, ascent/descent between plain sets of B-valued
sets and single B-valued sets, the two arrow-cancellation checks, and a
restricted-transfer checker comparing classical truth over hereditarily
finite sets with the Boolean truth value over standard names.

Because B = P(n), a B-valued set x also splits into n hereditarily finite
stalks x_i = { t_i : t in dom x, i in x(t) } (V^(B1 x B2) is V^(B1) x
V^(B2)): atom i lies in [[x in y]] iff x_i in y_i and in [[x = y]] iff
x_i = y_i.  Descent and the atom mixings enumerate their classes through
the stalks, one mixing per class; canonical forms and the arrow checks
compare classes by their stalks, and :func:`eval_atomwise` evaluates a
formula classically on the stalks, atom by atom.

Truth values are computed on the algebra's int masks (meet ``&``, join
``|``, implication ``~a | b``); a :class:`BoolElem` is built only where a
public function returns one.

B-valued sets are hash-consed: structurally identical sets are the same
object, which makes the truth-value memo tables cheap and reliable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import formula as F
from .boolalg import BoolElem, FiniteBooleanAlgebra, Partition, is_partition

#: Default resource caps; exceeding them raises :class:`ResourceCapError`.
RANK_CAP = 6
DOM_CAP = 32
#: Most classes :func:`descent` and :func:`atom_mixings` may return.
DESCENT_CAP = 4096


class ResourceCapError(ValueError):
    """Raised when a construction exceeds the rank, domain-size or class cap."""


class EvalError(ValueError):
    """Raised on unbound constants or other evaluation failures."""


class BSet:
    """An immutable, interned B-valued set.

    Do not instantiate directly; use :func:`bset`, :func:`standard_name`,
    :func:`mix`, or :func:`ascent`.  Identity coincides with structural
    equality thanks to interning.
    """

    __slots__ = ("algebra", "dom", "support", "rank", "uid")

    algebra: FiniteBooleanAlgebra
    dom: tuple[tuple["BSet", BoolElem], ...]
    #: The entries of ``dom`` with a nonzero value, as (child, mask) pairs.
    support: tuple[tuple["BSet", int], ...]
    rank: int
    uid: int

    def children(self) -> tuple["BSet", ...]:
        return tuple(t for t, _ in self.dom)

    def __repr__(self) -> str:
        if not self.dom:
            return "{}"
        inner = ", ".join(f"{t!r}@{b!r}" for t, b in self.dom)
        return "{" + inner + "}"

    def to_json(self) -> dict:
        return {"dom": [[t.to_json(), b.to_json()] for t, b in self.dom]}


_INTERN: dict[tuple, BSet] = {}
_UIDS = itertools.count()


def bset(algebra: FiniteBooleanAlgebra,
         pairs: Iterable[tuple[BSet, BoolElem]] = (),
         *,
         max_rank: int | None = None,
         max_dom: int | None = None) -> BSet:
    """Intern-constructing factory for B-valued sets.

    Duplicate children are merged by joining their values.  The children
    must already live over the same algebra.
    """
    n = algebra.atom_count
    merged: dict[int, tuple[BSet, int]] = {}
    for child, val in pairs:
        if child.algebra.atom_count != n:
            raise ValueError("child B-valued set lives over a different algebra")
        if val.algebra.atom_count != n:
            raise ValueError("value lies in a different algebra")
        got = merged.get(child.uid)
        merged[child.uid] = (child, val.mask if got is None else got[1] | val.mask)
    return _intern(algebra, merged, max_rank, max_dom)


def _intern(algebra: FiniteBooleanAlgebra, merged: dict[int, tuple[BSet, int]],
            max_rank: int | None = None, max_dom: int | None = None) -> BSet:
    """The interned set whose entries are the (child, mask) values of
    ``merged``, a dict keyed by child uid over children of ``algebra``."""
    max_rank = RANK_CAP if max_rank is None else max_rank
    max_dom = DOM_CAP if max_dom is None else max_dom
    if len(merged) > max_dom:
        raise ResourceCapError(f"domain size {len(merged)} exceeds cap {max_dom}")
    entries = [merged[uid] for uid in sorted(merged)]
    key = (algebra.atom_count, tuple([(t.uid, m) for t, m in entries]))
    obj = _INTERN.get(key)
    rank = obj.rank if obj is not None else 1 + max([t.rank for t, _ in entries], default=-1)
    if rank > max_rank:
        raise ResourceCapError(f"rank {rank} exceeds cap {max_rank}")
    if obj is None:
        obj = object.__new__(BSet)
        object.__setattr__(obj, "algebra", algebra)
        object.__setattr__(obj, "dom", tuple([(t, BoolElem(algebra, m)) for t, m in entries]))
        object.__setattr__(obj, "support", tuple([e for e in entries if e[1]]))
        object.__setattr__(obj, "rank", rank)
        object.__setattr__(obj, "uid", next(_UIDS))
        _INTERN[key] = obj
    return obj


# -- truth values ------------------------------------------------------------

# Masks of [[x in y]] and [[x = y]] keyed by (x.uid, y.uid), for the recursion.
_MEM_CACHE: dict[tuple[int, int], int] = {}
_EQ_CACHE: dict[tuple[int, int], int] = {}
# The elements truth_mem and truth_eq have returned, by the same keys, so that
# a repeated query is a single lookup.
_MEM_ANSWERS: dict[tuple[int, int], BoolElem] = {}
_EQ_ANSWERS: dict[tuple[int, int], BoolElem] = {}
# Canonical forms keyed by uid: built from the masks above, cleared with them.
_CANON: dict[int, "BSet"] = {}


def clear_truth_caches() -> None:
    for table in (_MEM_CACHE, _EQ_CACHE, _MEM_ANSWERS, _EQ_ANSWERS, _CANON):
        table.clear()


def _check_same(x: BSet, y: BSet) -> None:
    if x.algebra.atom_count != y.algebra.atom_count:
        raise ValueError("B-valued sets live over different algebras")


def truth_mem(x: BSet, y: BSet) -> BoolElem:
    """The Boolean truth value [[x in y]]."""
    key = (x.uid, y.uid)
    got = _MEM_ANSWERS.get(key)
    if got is None:
        _check_same(x, y)
        got = _MEM_ANSWERS[key] = BoolElem(y.algebra, _mem(x, y))
    return got


def truth_eq(x: BSet, y: BSet) -> BoolElem:
    """The Boolean truth value [[x = y]].

    Computed structurally even for x is y (reflexivity is a theorem of the
    recursion, not a special case; the cache keeps the cost negligible).
    """
    key = (x.uid, y.uid)
    got = _EQ_ANSWERS.get(key)
    if got is None:
        _check_same(x, y)
        got = _EQ_ANSWERS[key] = BoolElem(x.algebra, _eq(x, y))
    return got


def _mem(x: BSet, y: BSet) -> int:
    """[[x in y]] = sup_t y(t) ^ [[t = x]] as a mask; x, y share an algebra."""
    key = (x.uid, y.uid)
    acc = _MEM_CACHE.get(key)
    if acc is None:
        acc = 0
        for t, b in y.support:
            if b & ~acc:
                acc |= b & _eq(t, x)
        _MEM_CACHE[key] = acc
    return acc


def _eq(x: BSet, y: BSet) -> int:
    """[[x = y]] = inf_t (x(t) => [[t in y]]) ^ inf_t (y(t) => [[t in x]])
    as a mask; x, y share an algebra."""
    key = (x.uid, y.uid)
    acc = _EQ_CACHE.get(key)
    if acc is None:
        acc = x.algebra.full_mask
        for t, b in x.support:
            if b & acc:
                acc &= ~b | _mem(t, y)
        for t, b in y.support:
            if b & acc:
                acc &= ~b | _mem(t, x)
        _EQ_CACHE[key] = acc
    return acc


def equivalent(x: BSet, y: BSet) -> bool:
    """Truth-value equivalence: [[x = y]] = 1."""
    _check_same(x, y)
    return _eq(x, y) == x.algebra.full_mask


# -- standard names ----------------------------------------------------------


def hf_literal(obj) -> frozenset:
    """Normalize a hereditarily finite set literal to nested frozensets.

    Nonnegative integers denote von Neumann naturals; lists, tuples, sets,
    and frozensets denote sets of their (recursively normalized) members.
    """
    if isinstance(obj, bool):
        raise TypeError("booleans are not hereditarily finite set literals")
    if isinstance(obj, int):
        if obj < 0:
            raise ValueError("negative integers have no von Neumann encoding")
        return frozenset(hf_literal(k) for k in range(obj))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return frozenset(hf_literal(m) for m in obj)
    raise TypeError(f"cannot interpret {obj!r} as a hereditarily finite set")


_NAME_CACHE: dict[tuple[int, frozenset], BSet] = {}


def standard_name(algebra: FiniteBooleanAlgebra, h,
                  *, max_rank: int | None = None) -> BSet:
    """The standard name of a hereditarily finite set: all values are 1."""
    hf = h if isinstance(h, frozenset) else hf_literal(h)
    key = (algebra.atom_count, hf)
    hit = _NAME_CACHE.get(key)
    if hit is not None:
        # a cached name must still respect the cap requested by this caller
        if hit.rank > (RANK_CAP if max_rank is None else max_rank):
            raise ResourceCapError(
                f"rank {hit.rank} exceeds cap {RANK_CAP if max_rank is None else max_rank}")
        return hit
    top = algebra.top
    children = [standard_name(algebra, m, max_rank=max_rank) for m in hf]
    result = bset(algebra, [(c, top) for c in children], max_rank=max_rank)
    _NAME_CACHE[key] = result
    return result


# -- mixing, ascent, descent -------------------------------------------------


def mix(parts: Partition | Sequence[BoolElem], xs: Sequence[BSet],
        *, max_rank: int | None = None, max_dom: int | None = None) -> BSet:
    """Mixing of the family ``xs`` by the partition of unity ``parts``.

    The result m satisfies [[m = xs[i]]] >= parts[i] for every i.
    """
    blocks = tuple(parts.blocks if isinstance(parts, Partition) else parts)
    if len(blocks) != len(xs):
        raise ValueError(f"partition has {len(blocks)} blocks but {len(xs)} sets given")
    masks = _mixing_masks(blocks, xs)
    return _mix(blocks[0].algebra, masks, xs, max_rank, max_dom)


def _mixing_masks(blocks: Sequence[BoolElem], xs: Iterable[BSet]) -> list[int]:
    """The masks of ``blocks``, once they are checked to be a partition of
    unity and every set of ``xs`` to live over their algebra."""
    if not is_partition(blocks):
        raise ValueError("mixing requires a partition of unity")
    n = blocks[0].algebra.atom_count
    if any(x.algebra.atom_count != n for x in xs):
        raise ValueError("B-valued sets live over different algebras")
    return [b.mask for b in blocks]


def _mix(algebra: FiniteBooleanAlgebra, masks: Sequence[int], xs: Sequence[BSet],
         max_rank: int | None = None, max_dom: int | None = None) -> BSet:
    """Mixing of ``xs`` by the partition of unity with block masks ``masks``:
    each child t of some x gets the value sup_i masks[i] ^ [[t in xs[i]]]."""
    merged: dict[int, tuple[BSet, int]] = {}
    for x in xs:
        for t, _ in x.dom:
            if t.uid not in merged:
                val = 0
                for b, z in zip(masks, xs):
                    val |= b & _mem(t, z)
                merged[t.uid] = (t, val)
    return _intern(algebra, merged, max_rank, max_dom)


def ascent(algebra: FiniteBooleanAlgebra, xs: Sequence[BSet]) -> BSet:
    """The B-valued set with domain ``xs`` and all values 1."""
    top = algebra.top
    return bset(algebra, [(x, top) for x in xs])


def stalks(x: BSet, memo: dict[int, tuple[frozenset, ...]]) -> tuple[frozenset, ...]:
    """The per-atom stalks x_i = { t_i : t in dom x, i in x(t) } of ``x``.

    Atom i lies in [[x = y]] iff x_i = y_i and in [[x in y]] iff x_i in y_i.
    ``memo`` maps uid to stalks; it belongs to the caller, who may share it
    between calls.
    """
    got = memo.get(x.uid)
    if got is None:
        kids = [(stalks(t, memo), mask) for t, mask in x.support]
        got = tuple([frozenset([s[i] for s, mask in kids if mask >> i & 1])
                     for i in range(x.algebra.atom_count)])
        memo[x.uid] = got
    return got


def _class_mixings(algebra: FiniteBooleanAlgebra, candidates: Sequence[BSet],
                   memo: dict, allowed: tuple[frozenset, ...] | None = None
                   ) -> list[BSet]:
    """One atom mixing per equivalence class of mixings of ``candidates``.

    The mixing choosing c_i at atom i has stalk (c_i)_i at i, so its class
    is fixed by one stalk per atom.  Per atom, keep the first candidate of
    each distinct stalk (in ``allowed[i]`` when given); the product of these
    lists is the lexicographically first choice of every class, in order.
    """
    atom_masks = _mixing_masks([algebra.atom(i) for i in range(algebra.atom_count)],
                               candidates)
    per_atom = []
    for i in range(algebra.atom_count):
        first: dict[frozenset, BSet] = {}
        for t in candidates:
            s = stalks(t, memo)[i]
            if allowed is None or s in allowed[i]:
                first.setdefault(s, t)
        per_atom.append(tuple(first.values()))
    count = math.prod(len(c) for c in per_atom)
    if count > DESCENT_CAP:
        raise ResourceCapError(f"{count} mixing classes exceed cap {DESCENT_CAP}")
    return [_mix(algebra, atom_masks, choice) for choice in itertools.product(*per_atom)]


def descent(x: BSet) -> list[BSet]:
    """All members of full membership truth, up to truth-value equivalence.

    Over a finite algebra every partition refines the partition into atoms,
    so mixings of dom(x) indexed by single atoms exhaust the candidates; the
    mixing choosing c_i at atom i is a full member iff (c_i)_i in x_i.
    Returns one representative per equivalence class y with [[y in x]] = 1,
    the first mixing of its class in lexicographic order of choices.
    """
    memo: dict = {}
    return _class_mixings(x.algebra, [t for t, _ in x.dom], memo, stalks(x, memo))


def atom_mixings(algebra: FiniteBooleanAlgebra, xs: Sequence[BSet]) -> list[BSet]:
    """All mixings of ``xs`` over the atom partition, up to equivalence."""
    return _class_mixings(algebra, xs, {})


@dataclass(frozen=True)
class EscherReport:
    """Outcome of the two arrow-cancellation checks for a finite family."""

    up_down_ok: bool
    down_up_ok: bool
    up_down_classes: int
    expected_classes: int

    @property
    def ok(self) -> bool:
        return self.up_down_ok and self.down_up_ok

    def to_json(self) -> dict:
        return {
            "up_down_ok": self.up_down_ok,
            "down_up_ok": self.down_up_ok,
            "up_down_classes": self.up_down_classes,
            "expected_classes": self.expected_classes,
        }


def escher_check(algebra: FiniteBooleanAlgebra, xs: Sequence[BSet]) -> EscherReport:
    """Verify ascent-then-descent = mixings, and descent-then-ascent identity.

    The first direction compares descent(ascent(xs)) with the atom-indexed
    mixings of xs, as sets modulo truth-value equivalence, that is as sets
    of stalk tuples.  The second rebuilds y := ascent(xs) from its descent
    and checks [[y' = y]] = 1, that is equal stalks.
    """
    y = ascent(algebra, xs)
    down = descent(y)
    expected = atom_mixings(algebra, xs)
    memo: dict = {}
    matches = (len(down) == len(expected)
               and {stalks(d, memo) for d in down} == {stalks(e, memo) for e in expected})
    y_again = ascent(algebra, down)
    return EscherReport(
        up_down_ok=matches,
        down_up_ok=stalks(y_again, memo) == stalks(y, memo),
        up_down_classes=len(down),
        expected_classes=len(expected),
    )


def canonicalize(x: BSet) -> BSet:
    """Canonical representative of the equivalence class of ``x``.

    Children are canonicalized recursively, merged when truth-equivalent
    (equal stalks; the first in dom order represents its class), revalued
    by their membership truth [[t in x]], and zero-valued entries are
    dropped.  Satisfies [[canonicalize(x) = x]] = 1.

    Canonical forms are memoized by uid in a table that
    :func:`clear_truth_caches` clears; a repeated call is one lookup.
    """
    got = _CANON.get(x.uid)
    return got if got is not None else _canonical(x, _CANON, {})


def _canonical(x: BSet, done: dict[int, BSet], memo: dict) -> BSet:
    got = done.get(x.uid)
    if got is None:
        reps: dict[tuple[frozenset, ...], BSet] = {}
        for t, _ in x.dom:
            ct = _canonical(t, done, memo)
            reps.setdefault(stalks(ct, memo), ct)
        merged = {}
        for ct in reps.values():
            val = _mem(ct, x)
            if val:
                merged[ct.uid] = (ct, val)
        got = done[x.uid] = _intern(x.algebra, merged)
    return got


# -- formula evaluation -------------------------------------------------------


def _resolve(term: F.Var, env: Mapping[str, BSet]) -> BSet:
    try:
        return env[term.name]
    except KeyError:
        raise EvalError(f"unbound constant {term.name!r}") from None


def eval_formula(f: F.Formula, env: Mapping[str, BSet],
                 algebra: FiniteBooleanAlgebra | None = None) -> BoolElem:
    """Boolean truth value of a formula under a name environment.

    Connectives map to the algebra operations (implication a => b is
    a* v b); quantifiers over a B-valued set z use its domain:

        [[forall v in z : p]] = inf_{t in dom z} ( z(t) => [[p(t)]] )
        [[exists v in z : p]] = sup_{t in dom z} ( z(t) ^  [[p(t)]] )

    Every set of the environment must live over the algebra.
    """
    algebra = _eval_algebra(f, env, algebra)
    return BoolElem(algebra, _eval(f, dict(env), algebra.full_mask))


def _eval_algebra(f: F.Formula, env: Mapping[str, BSet],
                  algebra: FiniteBooleanAlgebra | None) -> FiniteBooleanAlgebra:
    """The algebra of an evaluation of ``f``: given, or that of the
    environment, once the environment is checked to bind every free name
    (quantifiers skip children, so evaluation may not reach them all)."""
    if algebra is None:
        if not env:
            raise EvalError("cannot infer the algebra from an empty environment")
        algebra = next(iter(env.values())).algebra
    if any(x.algebra.atom_count != algebra.atom_count for x in env.values()):
        raise ValueError("B-valued sets live over different algebras")
    missing = sorted(F.free_names(f) - env.keys())
    if missing:
        raise EvalError(f"unbound constant {missing[0]!r}")
    return algebra


def _eval(f: F.Formula, env: dict[str, BSet], full: int) -> int:
    """Truth value of ``f`` as a mask below ``full``, the algebra's top."""
    if isinstance(f, F.Eq):
        return _eq(_resolve(f.left, env), _resolve(f.right, env))
    if isinstance(f, F.Mem):
        return _mem(_resolve(f.left, env), _resolve(f.right, env))
    if isinstance(f, F.Not):
        return full ^ _eval(f.body, env, full)
    if isinstance(f, F.And):
        return _eval(f.left, env, full) & _eval(f.right, env, full)
    if isinstance(f, F.Or):
        return _eval(f.left, env, full) | _eval(f.right, env, full)
    if isinstance(f, F.Implies):
        return (full ^ _eval(f.left, env, full)) | _eval(f.right, env, full)
    if isinstance(f, F.Iff):
        return full ^ (_eval(f.left, env, full) ^ _eval(f.right, env, full))
    if isinstance(f, (F.Forall, F.Exists)):
        z = _resolve(f.bound, env)
        saved = env.get(f.var)
        forall = isinstance(f, F.Forall)
        acc = full if forall else 0
        # a child whose value adds nothing to acc is not evaluated
        for t, b in z.support:
            if forall and b & acc:
                env[f.var] = t
                acc &= ~b | _eval(f.body, env, full)
            elif not forall and b & ~acc:
                env[f.var] = t
                acc |= b & _eval(f.body, env, full)
        if saved is None:
            env.pop(f.var, None)
        else:
            env[f.var] = saved
        return acc
    raise TypeError(f"not a formula node: {f!r}")


def existential_witnesses(f: F.Exists, env: Mapping[str, BSet],
                          algebra: FiniteBooleanAlgebra | None = None
                          ) -> tuple[BoolElem, list[tuple[BSet, BoolElem]], BSet | None]:
    """Finite-candidate witness report for a top-level existential.

    Returns the truth value, the per-candidate contributions
    z(t) ^ [[p(t)]] for t in dom(z), and a candidate attaining the full
    join if one exists (None when the join is only attained by mixing).
    """
    algebra = _eval_algebra(f, env, algebra)
    full = algebra.full_mask
    env2 = dict(env)
    z = _resolve(f.bound, env2)
    masks: list[tuple[BSet, int]] = []
    for t, b in z.dom:
        env2[f.var] = t
        masks.append((t, b.mask & _eval(f.body, env2, full)))
    total = 0
    for _, m in masks:
        total |= m
    attained = next((t for t, m in masks if m == total), None)
    contributions = [(t, BoolElem(algebra, m)) for t, m in masks]
    return BoolElem(algebra, total), contributions, attained


def eval_atomwise(f: F.Formula, env: Mapping[str, BSet],
                  algebra: FiniteBooleanAlgebra | None = None) -> BoolElem:
    """Boolean truth value of a formula computed one atom at a time.

    Atom i lies in the value iff the formula holds classically when every
    name denotes its stalk at i (for B = 2^n, V^(B) is the product of n
    classical universes).  It shares no code with :func:`eval_formula`
    beyond :func:`stalks`, and serves as its independent check.
    """
    algebra = _eval_algebra(f, env, algebra)
    memo: dict = {}
    per_atom = {name: stalks(x, memo) for name, x in env.items()}
    mask = 0
    for i in range(algebra.atom_count):
        if classical_eval(f, {name: st[i] for name, st in per_atom.items()}):
            mask |= 1 << i
    return BoolElem(algebra, mask)


# -- classical evaluation and restricted transfer ------------------------------


def classical_eval(f: F.Formula, env: Mapping[str, frozenset]) -> bool:
    """Evaluate a formula classically over hereditarily finite sets."""
    if isinstance(f, F.Eq):
        return env[f.left.name] == env[f.right.name]
    if isinstance(f, F.Mem):
        return env[f.left.name] in env[f.right.name]
    if isinstance(f, F.Not):
        return not classical_eval(f.body, env)
    if isinstance(f, F.And):
        return classical_eval(f.left, env) and classical_eval(f.right, env)
    if isinstance(f, F.Or):
        return classical_eval(f.left, env) or classical_eval(f.right, env)
    if isinstance(f, F.Implies):
        return (not classical_eval(f.left, env)) or classical_eval(f.right, env)
    if isinstance(f, F.Iff):
        return classical_eval(f.left, env) == classical_eval(f.right, env)
    if isinstance(f, (F.Forall, F.Exists)):
        bound = env[f.bound.name]
        env2 = dict(env)
        results = []
        for m in bound:
            env2[f.var] = m
            results.append(classical_eval(f.body, env2))
        return all(results) if isinstance(f, F.Forall) else any(results)
    raise TypeError(f"not a formula node: {f!r}")


@dataclass(frozen=True)
class TransferReport:
    """Comparison of classical truth with the Boolean truth value."""

    classical: bool
    truth_value: BoolElem
    two_valued: bool

    @property
    def ok(self) -> bool:
        return self.two_valued and (self.classical == self.truth_value.is_one)

    def to_json(self) -> dict:
        return {
            "classical": self.classical,
            "truth_value": self.truth_value.to_json(),
            "two_valued": self.two_valued,
            "ok": self.ok,
        }


def bounded_transfer_check(f: F.Formula, h_env: Mapping[str, object],
                           algebra: FiniteBooleanAlgebra,
                           *, max_rank: int | None = None) -> TransferReport:
    """Check restricted transfer for a formula over hereditarily finite sets.

    The formula is evaluated classically over ``h_env`` and Boolean-valued
    over the standard names of the same sets; the verdict requires the two
    to agree and the truth value to be two-valued (0 or 1).  All formulas
    expressible in the DSL are bounded, so no boundedness check is needed.
    ``max_rank`` lifts the default rank cap for large constants (the name
    of the natural n has rank n).
    """
    hf_env = {name: hf_literal(value) for name, value in h_env.items()}
    bv_env = {name: standard_name(algebra, hf, max_rank=max_rank)
              for name, hf in hf_env.items()}
    classical = classical_eval(f, hf_env)
    value = eval_formula(f, bv_env, algebra)
    two_valued = value.is_zero or value.is_one
    return TransferReport(classical=classical, truth_value=value, two_valued=two_valued)


# -- JSON environments ---------------------------------------------------------


def bset_from_json(obj: dict, algebra: FiniteBooleanAlgebra) -> BSet:
    """Decode a B-valued set literal: {"dom": [[<bset>, <boolelem>], ...]}
    or the standard-name shorthand {"hf": <nested arrays or int>}."""
    if not isinstance(obj, dict):
        raise ValueError("B-valued set JSON must be an object")
    if "hf" in obj:
        return standard_name(algebra, _hf_from_json(obj["hf"]))
    if "dom" in obj:
        if not isinstance(obj["dom"], list):
            raise ValueError('"dom" must be an array of [<bset>, <boolelem>] pairs')
        pairs = []
        for entry in obj["dom"]:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError("dom entries must be [<bset>, <boolelem>] pairs")
            child = bset_from_json(entry[0], algebra)
            val = BoolElem.from_json(entry[1], algebra)
            pairs.append((child, val))
        return bset(algebra, pairs)
    raise ValueError('B-valued set JSON needs a "dom" or "hf" key')


def _hf_from_json(obj, depth: int = 0) -> frozenset:
    """The literal ``obj`` found inside ``depth`` arrays.  A literal whose
    rank would exceed RANK_CAP is refused before it is built: it is at least
    ``depth``, and ``n + depth`` for the natural n, whose literal takes 2^n
    steps to build."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        if obj + depth > RANK_CAP:
            raise ResourceCapError(f"rank at least {obj + depth} exceeds cap {RANK_CAP}")
        return hf_literal(obj)
    if isinstance(obj, list):
        if depth > RANK_CAP:
            raise ResourceCapError(f"rank at least {depth} exceeds cap {RANK_CAP}")
        return frozenset(_hf_from_json(m, depth + 1) for m in obj)
    raise ValueError("hf literals are nested arrays or nonnegative integers")


def env_from_json(obj: Mapping[str, dict], algebra: FiniteBooleanAlgebra) -> dict[str, BSet]:
    if not isinstance(obj, dict):
        raise ValueError("an environment is a JSON object: name -> B-valued set literal")
    return {name: bset_from_json(spec, algebra) for name, spec in obj.items()}
