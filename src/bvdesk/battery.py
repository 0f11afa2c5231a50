"""Shipped battery of bounded formulas over hereditarily finite sets.

Each item carries a hand-verified classical truth value; the battery is
run by evaluating every formula classically and Boolean-valued over
standard names, requiring agreement and two-valuedness throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as F
from .boolalg import FiniteBooleanAlgebra
from .bvu import TransferReport, bounded_transfer_check

#: Hereditarily finite constants shared by the battery formulas.
#: Integers are von Neumann naturals; nested lists are set literals.
BASE_ENV: dict[str, object] = {
    "empty": 0,
    "zero": 0,
    "one": 1,
    "two": 2,
    "three": 3,
    "four": 4,
    "sing1": [1],           # {1}, not a natural
    "pair": [[], [[]]],     # {0, {0}} spelled as a literal; equals 2
}


@dataclass(frozen=True)
class BatteryItem:
    name: str
    text: str
    expected: bool  # hand-verified classical truth


BATTERY: tuple[BatteryItem, ...] = (
    BatteryItem("empty-member", "empty in one", True),
    BatteryItem("no-member-of-empty", "one in empty", False),
    BatteryItem("zero-is-empty", "zero = empty", True),
    BatteryItem("zero-not-one", "!(zero = one)", True),
    BatteryItem("one-in-two", "one in two", True),
    BatteryItem("two-in-three", "two in three", True),
    BatteryItem("three-not-in-two", "three in two", False),
    BatteryItem("two-subset-of-two", "forall t in two : t in two", True),
    BatteryItem("two-subset-of-three", "forall t in two : t in three", True),
    BatteryItem("one-found-in-two", "exists t in two : t = one", True),
    BatteryItem("nothing-in-empty", "exists t in empty : t = t", False),
    BatteryItem("vacuous-forall", "forall t in empty : t in empty", True),
    BatteryItem("three-transitive", "forall a in three : forall b in a : b in three", True),
    BatteryItem("three-trichotomy",
                "forall a in three : forall b in three : (a in b | b in a | a = b)", True),
    BatteryItem("literal-extensionality", "pair = two", True),
    BatteryItem("singleton-not-one", "sing1 = one", False),
    BatteryItem("singleton-member", "forall t in sing1 : t = one", True),
    BatteryItem("true-implication", "one in two -> two in three", True),
    BatteryItem("failed-implication", "two in three -> one in empty", False),
    BatteryItem("vacuous-implication", "one in empty -> three in two", True),
    BatteryItem("small-member-exists",
                "exists a in three : (forall b in a : b in one)", True),
    BatteryItem("four-has-distinct-pairs",
                "forall a in four : (exists b in four : !(a = b))", True),
    BatteryItem("no-self-membership", "!(exists t in three : t = three)", True),
    BatteryItem("membership-asymmetry",
                "forall a in two : forall b in two : ((a in b) -> !(b in a))", True),
)


@dataclass(frozen=True)
class BatteryOutcome:
    item: BatteryItem
    report: TransferReport

    @property
    def ok(self) -> bool:
        return self.report.ok and self.report.classical == self.item.expected


def run_battery(algebra: FiniteBooleanAlgebra) -> list[BatteryOutcome]:
    outcomes = []
    for item in BATTERY:
        f = F.parse(item.text)
        names = F.free_names(f)
        env = {n: BASE_ENV[n] for n in names}
        report = bounded_transfer_check(f, env, algebra)
        outcomes.append(BatteryOutcome(item=item, report=report))
    return outcomes
