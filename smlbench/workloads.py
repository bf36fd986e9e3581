"""Workload definitions and the benchmark's own input generator.

Every workload is a raw CSV event log generated from the run's seed, so the
program under test only ever sees generated inputs and enters them through
``data.ingest`` exactly as ``sml preprocess`` does.

The generator plants three properties the measured code paths depend on:

* Zipf–Mandelbrot item popularity, ``p(rank) ~ (rank + q) ** -a``, mixed
  with a uniform share ``1 - head_share``: the popular head makes SKNN
  neighbour sets large and gives training a popularity signal, while the
  uniform share keeps enough of the tail above ``data.preprocess``'s
  minimum item count that the vocabulary after preprocessing lands near
  the workload's target size;
* a planted successor for every item (a permutation of popularity ranks
  that is fixed per workload; the seed only relabels the items): each event
  after the first follows its predecessor's successor with probability
  ``FOLLOW``, otherwise it is a fresh popularity draw, so training has a
  sequential signal to learn and recall after training beats recall before;
* geometric session lengths, ``2 + Geometric(p_len) - 1`` events, capped at
  15 (the default ``max_session_length`` of ``data.preprocess``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_LENGTH = 15
FOLLOW = 0.55
STRUCTURE_SEED = 20210107
# the model every workload trains, as `sml train --dim 64 --batch-size 32
# --lr 0.01` sets it; at the CLI's default lr of 0.001 one short epoch barely
# moves recall, and the checks require training to beat the untrained model
DIM = 64
BATCH_SIZE = 32
LEARNING_RATE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    # generated input
    n_items: int          # raw catalogue before preprocessing
    n_sessions: int
    zipf_a: float
    zipf_q: float
    head_share: float     # share of fresh draws from the Zipf law, rest uniform
    p_len: float          # geometric length parameter (mean length ~ 1 + 1/p)
    # `sml train` flags
    encoder: str
    loss: str
    strategy: str
    # work per measured round; slices in sessions, each in the generator's
    # length mix; every prefix of a query session is one recommend query
    train_sessions: int
    eval_sessions: int
    sknn_sessions: int
    query_sessions: int
    load_repeats: int
    train_epochs: int = 1
    min_item_count: int = 5     # `sml preprocess --min-item-count`
    setup_every: int = 1        # rounds per set-up


WORKLOADS = {
    w.name: w for w in (
        # desk scale: per-example tape building and backward carry training;
        # Adam, the index build and top-n are cheap, so retrieval or
        # optimizer work should leave it unchanged
        Workload(
            name="desk",
            n_items=2400, n_sessions=9000, zipf_a=1.0, zipf_q=8.0,
            head_share=1.0, p_len=0.3,
            encoder="MaxPool", loss="Triplet", strategy="posneg",
            train_sessions=900, eval_sessions=400, sknn_sessions=300,
            query_sessions=400, load_repeats=5),
        # the vocabulary of the public e-commerce logs, same model: dense Adam
        # over the 40k-row table, the per-item index build on every validate
        # and load, and full-sort top-n dominate; tape cost is as on desk
        Workload(
            name="catalog",
            n_items=45000, n_sessions=62000, zipf_a=1.1, zipf_q=2.0,
            head_share=0.5, p_len=0.3,
            encoder="MaxPool", loss="Triplet", strategy="posneg",
            # a tail this long only survives a lower item-count floor
            min_item_count=2,
            train_sessions=640, eval_sessions=40, sknn_sessions=150,
            query_sessions=40, load_repeats=1, setup_every=2),
        # the same layers used differently: a recurrent tape, a listwise
        # loss, one example per cut, and serving led by encode_session
        Workload(
            name="sequence",
            n_items=2400, n_sessions=6000, zipf_a=1.0, zipf_q=8.0,
            head_share=1.0, p_len=0.12,
            encoder="GRU", loss="NCAS", strategy="sliding_window",
            train_sessions=80, eval_sessions=120, sknn_sessions=300,
            query_sessions=150, load_repeats=5),
    )
}


def length_quotas(w: Workload, n: int) -> dict[int, int]:
    """Sessions of each length in a slice of ``n``, in the generator's mix.

    Geometric lengths capped at ``MAX_LENGTH``, rounded by largest
    remainder so the quotas sum to ``n``.
    """
    pmf = {length: w.p_len * (1.0 - w.p_len) ** (length - 2)
           for length in range(2, MAX_LENGTH)}
    pmf[MAX_LENGTH] = (1.0 - w.p_len) ** (MAX_LENGTH - 2)
    raw = {length: n * p for length, p in pmf.items()}
    quotas = {length: int(x) for length, x in raw.items()}
    by_remainder = sorted(raw, key=lambda length: (quotas[length] - raw[length], length))
    for length in by_remainder[:n - sum(quotas.values())]:
        quotas[length] += 1
    return quotas


def stratified(sessions, w: Workload, n: int) -> list:
    """The earliest sessions of each length, up to the quotas of a slice of n.

    Every seed's slice then has the same length mix, so per-point and
    per-example costs, which grow with prefix length, compare across seeds.
    """
    left = length_quotas(w, n)
    picked = []
    for session in sessions:
        if left.get(len(session), 0) > 0:
            left[len(session)] -= 1
            picked.append(session)
    return picked


def training_slice(sessions, w: Workload, n: int, validation_fraction: float) -> list:
    """A training slice of n whose validation tail has a fixed length mix too.

    ``trainer.train`` holds out the chronologically last share of its
    sessions for per-epoch validation; this takes that many sessions from
    the end of ``sessions`` (in the length mix of a slice that size) and the
    rest from the start, so the holdout, and so the cost of validating, is
    the same on every seed.
    """
    n_val = max(1, math.ceil(n * validation_fraction - 1e-9))
    head = stratified(sessions, w, n - n_val)
    tail = stratified(sessions[::-1], w, n_val)
    if max(s.start_time for s in head) >= min(s.start_time for s in tail):
        raise ValueError("training slice overlaps its validation tail")
    return head + tail[::-1]


def popularity(w: Workload) -> np.ndarray:
    """Probability of a fresh draw hitting each popularity rank."""
    weights = (np.arange(1, w.n_items + 1, dtype=np.float64) + w.zipf_q) ** -w.zipf_a
    return w.head_share * weights / weights.sum() + (1.0 - w.head_share) / w.n_items


def planted_structure(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(item id of each popularity rank, planted successor of each item id).

    The successor of each popularity rank is fixed per workload, not per
    seed: which ranks follow which, and so how popular each rank ends up,
    is the same on every seed, and the seed only picks the item id of every
    rank.  A seed-drawn successor map would, by chance, chain head items to
    head items on some seeds and not on others, and SKNN's neighbour sets,
    so its cost per point, would swing with it.
    """
    tag = sum(w.name.encode())
    successor_rank = np.random.default_rng([STRUCTURE_SEED, tag]).permutation(w.n_items)
    item_of_rank = np.random.default_rng([seed, tag, 1]).permutation(w.n_items)
    successor = np.empty(w.n_items, dtype=np.int64)
    successor[item_of_rank] = item_of_rank[successor_rank]
    return item_of_rank, successor


def generate_sessions(w: Workload, seed: int) -> list[np.ndarray]:
    """Item-id sequences of every session, deterministic in (workload, seed)."""
    item_of_rank, successor = planted_structure(w, seed)
    rng = np.random.default_rng([seed, sum(w.name.encode())])
    probs = popularity(w)
    lengths = np.minimum(1 + rng.geometric(w.p_len, size=w.n_sessions),
                         MAX_LENGTH)

    # fill all sessions position by position; positions past a session's
    # length are generated and then dropped, which keeps this vectorised
    fresh = item_of_rank[rng.choice(w.n_items, size=(w.n_sessions, MAX_LENGTH),
                                    p=probs)]
    follow = rng.random((w.n_sessions, MAX_LENGTH)) < FOLLOW
    items = np.empty((w.n_sessions, MAX_LENGTH), dtype=np.int64)
    items[:, 0] = fresh[:, 0]
    for t in range(1, MAX_LENGTH):
        items[:, t] = np.where(follow[:, t], successor[items[:, t - 1]],
                               fresh[:, t])
    return [items[k, :lengths[k]] for k in range(w.n_sessions)]


def write_event_log(sessions: list[np.ndarray], path: str) -> int:
    """Write sessions as a raw ``session_id,timestamp,item_id`` CSV.

    Sessions start 100 time units apart in order, so the chronological
    split of ``data.split_train_test`` holds out the last ones.  Returns the
    number of events written.
    """
    lines = ["session_id,timestamp,item_id"]
    for k, items in enumerate(sessions):
        base = 100 * k
        lines.extend(f"s{k:06d},{base + t},p{int(item):05d}"
                     for t, item in enumerate(items))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines) - 1
