"""Prefix-by-prefix evaluation of session recommenders.

Every test session of length ``t`` yields ``t - 1`` measurement points: the
recommender sees ``items[:cut]`` for each cut in ``1..t-1`` and is judged
against what actually followed.  Nothing at or after the cut is ever passed
to the recommender, so models cannot peek at their own ground truth.

Relevance comes in two flavours.  By default every item from the cut to the
end of the session counts (list metrics MAP/PREC/REC look at this set), while
hit rate and MRR always target the single immediately-next item.  With
``next_item_only=True`` the list metrics collapse onto the next item as well.
All reported numbers are micro-averages over measurement points.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Protocol, Sequence

from .data import Dataset


class Recommender(Protocol):
    def recommend(self, prefix: Sequence[int], n: int) -> list[int]: ...


# ---------------------------------------------------------------------------
# per-point metrics
# ---------------------------------------------------------------------------

def hit_at_n(next_item: int, ranked: Sequence[int]) -> float:
    return 1.0 if next_item in ranked else 0.0

def reciprocal_rank_at_n(next_item: int, ranked: Sequence[int]) -> float:
    for position, item in enumerate(ranked, start=1):
        if item == next_item:
            return 1.0 / position
    return 0.0

def precision_at_n(relevant: set, ranked: Sequence[int], n: int) -> float:
    """Fraction of the n slots filled with relevant items.

    The denominator is always ``n`` even if the recommender returned fewer
    items (possible only when the vocabulary itself is smaller than n).
    """
    return sum(1 for item in ranked if item in relevant) / n

def recall_at_n(relevant: set, ranked: Sequence[int]) -> float:
    if not relevant:
        raise ValueError("relevant set must not be empty")
    return sum(1 for item in ranked if item in relevant) / len(relevant)

def average_precision_at_n(relevant: set, ranked: Sequence[int], n: int) -> float:
    if not relevant:
        raise ValueError("relevant set must not be empty")
    hits = 0
    total = 0.0
    for position, item in enumerate(ranked, start=1):
        if item in relevant:
            hits += 1
            total += hits / position
    return total / min(len(relevant), n)


# ---------------------------------------------------------------------------
# the evaluation loop
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    n: int
    points: int
    map: float
    precision: float
    recall: float
    hit_rate: float
    mrr: float
    coverage: int

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(recommender: Recommender, test: Dataset, n: int = 20,
             next_item_only: bool = False) -> EvalReport:
    if n < 1:
        raise ValueError("n must be positive")
    points = 0
    sums = {"map": 0.0, "precision": 0.0, "recall": 0.0, "hit": 0.0, "rr": 0.0}
    recommended: set[int] = set()

    for session in test.sessions:
        items = session.items
        for cut in range(1, len(items)):
            ranked = list(recommender.recommend(items[:cut], n))[:n]
            next_item = items[cut]
            relevant = {next_item} if next_item_only else set(items[cut:])

            sums["hit"] += hit_at_n(next_item, ranked)
            sums["rr"] += reciprocal_rank_at_n(next_item, ranked)
            sums["precision"] += precision_at_n(relevant, ranked, n)
            sums["recall"] += recall_at_n(relevant, ranked)
            sums["map"] += average_precision_at_n(relevant, ranked, n)
            recommended.update(ranked)
            points += 1

    if points == 0:
        raise ValueError("test dataset has no measurement points")
    return EvalReport(
        n=n,
        points=points,
        map=sums["map"] / points,
        precision=sums["precision"] / points,
        recall=sums["recall"] / points,
        hit_rate=sums["hit"] / points,
        mrr=sums["rr"] / points,
        coverage=len(recommended),
    )
