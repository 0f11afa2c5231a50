"""A state machine over bvu's process-wide tables.

Sets are built, extended, mixed, ascended, descended, canonicalized and
named in a random order, interleaved with clear_truth_caches and with RANK_CAP raised
and restored; some sets are built over the algebra a fresh
FiniteBooleanAlgebra(n) call returns.  After every step, every pair of sets
built so far must have the truth values of the reference recursion, each
truth value must be its algebra's shared element for its mask, [[x = y]] and
[[y = x]] must be one object, and a repeated query must not recompute; each
set's canonical form must be its own canonical form, keep its stalks and
hold children with distinct stalks, and structurally equal sets must be the
same object.  Nothing returned, canonical forms included, may lie above
RANK_CAP.
"""

import itertools
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, initialize, invariant,
                                 multiple, precondition, rule)

from bvdesk import bvu
from bvdesk.boolalg import FiniteBooleanAlgebra
from bvdesk.bvu import (ResourceCapError, ascent, bset, canonicalize, descent,
                        eval_atomwise, eval_formula, mix, stalks, standard_name,
                        truth_eq, truth_mem)
from test_bvu import (random_blocks, random_formula, reference_canonicalize,
                      reference_eval, reference_truth_eq, reference_truth_mem)

DEFAULT_RANK_CAP = bvu.RANK_CAP
RAISED_RANK_CAP = DEFAULT_RANK_CAP + 2


class BVUniverse(RuleBasedStateMachine):
    sets = Bundle("sets")

    def __init__(self):
        super().__init__()
        self.built = []  # every set a rule returned, in order

    def returned(self, *xs):
        for x in xs:
            assert x.rank <= bvu.RANK_CAP
            if x not in self.built:
                self.built.append(x)
        return xs[0] if len(xs) == 1 else multiple(*xs)

    @initialize(target=sets, atoms=st.integers(1, 4))
    def start(self, atoms):
        self.algebra = FiniteBooleanAlgebra(atoms)
        return self.returned(bset(self.algebra, ()))

    def capped(self, rank, make):
        """make() if ``rank`` is within RANK_CAP; otherwise make() must refuse."""
        if rank <= bvu.RANK_CAP:
            return self.returned(make())
        with pytest.raises(ResourceCapError):
            make()
        return multiple()

    @rule(target=sets, children=st.lists(st.tuples(sets, st.integers(0, 15)), max_size=4))
    def build(self, children):
        full = self.algebra.full_mask
        pairs = [(t, self.algebra.from_mask(m & full)) for t, m in children]
        rank = 1 + max((t.rank for t, _ in pairs), default=-1)
        return self.capped(rank, lambda: bset(self.algebra, pairs))

    def refused(self, *inputs):
        """A refusal is right only when a set above RANK_CAP goes in: sets
        built while the cap was raised outlive its restoring."""
        assert any(x.rank > bvu.RANK_CAP for x in inputs)
        return multiple()

    @rule(target=sets, children=st.lists(st.tuples(sets, st.integers(0, 15)), max_size=3))
    def build_over_a_fresh_call(self, children):
        """The constructor hands out the live algebra, so sets and values
        made through a new call mix with everything built before."""
        algebra = FiniteBooleanAlgebra(self.algebra.atom_count)
        assert algebra is self.algebra
        pairs = [(t, algebra.from_mask(m & algebra.full_mask)) for t, m in children]
        rank = 1 + max((t.rank for t, _ in pairs), default=-1)
        return self.capped(rank, lambda: bset(algebra, pairs))

    @rule(target=sets, seed=st.integers(0, 10_000), xs=st.lists(sets, min_size=3, max_size=3))
    def mix_family(self, seed, xs):
        blocks = random_blocks(random.Random(seed), self.algebra)
        xs = xs[:len(blocks)]
        try:
            m = mix(blocks, xs)
        except ResourceCapError:
            return self.refused(*xs)
        for b, x in zip(blocks, xs):
            assert b.leq(truth_eq(m, x))
        return self.returned(m)

    @rule(target=sets, xs=st.lists(sets, max_size=3))
    def ascend(self, xs):
        rank = 1 + max((x.rank for x in xs), default=-1)
        return self.capped(rank, lambda: ascent(self.algebra, xs))

    @rule(target=sets, x=sets)
    def descend(self, x):
        try:
            down = descent(x)
        except ResourceCapError as exc:
            return multiple() if "mixing classes" in str(exc) else self.refused(x)
        for y in down:
            assert truth_mem(y, x).is_one
        return self.returned(*down[:2]) if down else multiple()

    @rule(target=sets, x=sets)
    def canonical(self, x):
        try:
            c = canonicalize(x)
        except ResourceCapError:
            return self.refused(x)
        assert c is reference_canonicalize(x)
        return self.returned(c)

    @rule(target=sets, x=sets, k=st.integers(0, 63))
    def extend(self, x, k):
        """x with one of its full members y added at 1 is x again, with a
        larger domain; an ascent of the two canonicalizes to one child."""
        if x.rank + 1 > bvu.RANK_CAP:  # the ascent would be over the cap
            return multiple()
        try:
            down = descent(x)
        except ResourceCapError:
            return multiple()
        memo = {}
        children = {stalks(c, memo) for c in x.children()}
        # prefer a member that is none of x's children, up to equivalence
        down = [y for y in down if stalks(y, memo) not in children] or down
        if not down:
            return multiple()
        y = down[k % len(down)]
        wider = bset(self.algebra, [*x.dom, (y, self.algebra.top)])
        assert truth_eq(wider, x).is_one
        assert len(canonicalize(ascent(self.algebra, [x, wider])).entries) == 1
        return self.returned(wider)

    @rule(target=sets, n=st.integers(0, RAISED_RANK_CAP))
    def name(self, n):
        return self.capped(n, lambda: standard_name(self.algebra, n))

    @rule(seed=st.integers(0, 10_000), xs=st.lists(sets, min_size=3, max_size=3))
    def evaluate(self, seed, xs):
        env = dict(zip(("a", "b", "c"), xs))
        f = random_formula(random.Random(seed), list(env), 2)
        value = eval_formula(f, env, self.algebra)
        assert value == reference_eval(f, env, self.algebra) == eval_atomwise(f, env)

    @rule()
    def clear(self):
        bvu.clear_truth_caches()
        assert not (bvu._MEM_CACHE or bvu._EQ_CACHE or bvu._CANON)

    @precondition(lambda self: bvu.RANK_CAP == DEFAULT_RANK_CAP)
    @rule(target=sets)
    def raise_rank_cap(self):
        """Raise the cap and build a name that only the raised cap allows."""
        bvu.RANK_CAP = RAISED_RANK_CAP
        return self.returned(standard_name(self.algebra, RAISED_RANK_CAP))

    @precondition(lambda self: bvu.RANK_CAP != DEFAULT_RANK_CAP)
    @rule()
    def restore_rank_cap(self):
        bvu.RANK_CAP = DEFAULT_RANK_CAP

    @invariant()
    def truth_values_are_the_reference(self):
        for x, y in itertools.product(self.built, repeat=2):
            assert truth_eq(x, y) == reference_truth_eq(x, y)
            assert truth_mem(x, y) == reference_truth_mem(x, y)

    @invariant()
    def truth_values_are_shared_elements(self):
        answers = {}
        for x, y in itertools.product(self.built, repeat=2):
            eq, mem = answers[x, y] = truth_eq(x, y), truth_mem(x, y)
            assert eq is truth_eq(y, x)
            for value in (eq, mem):
                assert value.algebra is self.algebra
                assert value is self.algebra.from_mask(value.mask)
        assert all(a <= b for a, b in bvu._EQ_CACHE)
        # a warm query, in either order, is a table read
        real = bvu._eq, bvu._mem
        try:
            bvu._eq = bvu._mem = lambda *args: pytest.fail("a warm truth query recomputed")
            for (x, y), (eq, mem) in answers.items():
                assert truth_eq(x, y) is eq and truth_eq(y, x) is eq
                assert truth_mem(x, y) is mem
        finally:
            bvu._eq, bvu._mem = real

    @invariant()
    def canonical_forms_are_fixed_points_below_the_cap(self):
        memo = {}
        for x in self.built:
            try:
                c = canonicalize(x)
            except ResourceCapError:
                self.refused(x)
                continue
            assert c.rank <= bvu.RANK_CAP
            assert canonicalize(c) is c and stalks(c, memo) == stalks(x, memo)
            assert len({stalks(t, memo) for t in c.children()}) == len(c.entries)

    @invariant()
    def structurally_equal_sets_are_one_object(self):
        for x in self.built:
            try:
                assert bset(self.algebra, x.dom) is x
            except ResourceCapError:
                self.refused(x)

    def teardown(self):
        bvu.RANK_CAP = DEFAULT_RANK_CAP


BVUniverse.TestCase.settings = settings(max_examples=100, stateful_step_count=30,
                                        deadline=None)
TestBVUniverse = BVUniverse.TestCase
