"""Training examples as padded index arrays (:class:`Examples`).

``posneg`` cuts every session once at a uniformly random point,
``sliding_window`` at every point with the prefix capped at ``window_size``
events.  The items after a cut are positives, each paired with a negative
drawn uniformly, without replacement, from the rest of the vocabulary.  One
generator keyed on (seed, epoch) draws a whole epoch: cuts, negatives, shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoders
from .data import Dataset, DataError
from .index import top_k

STRATEGIES = ("posneg", "sliding_window")


@dataclass(frozen=True)
class SamplerConfig:
    strategy: str = "posneg"
    samples_per_session: int = 8
    window_size: int = 4               # sliding_window only
    exclude_prefix_negatives: bool = False
    knn_augment: bool = False
    knn_k: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown sampling strategy {self.strategy!r}")
        if self.samples_per_session < 1:
            raise ValueError("samples_per_session must be positive")
        if self.window_size < 1:
            raise ValueError("window_size must be positive")
        if self.knn_k < 1:
            raise ValueError("knn_k must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True, eq=False)
class Examples:
    """Examples as right-padded index matrices, -1 for padding: ``prefixes``
    ``[N, L]`` with their ``lengths``, and ``positives`` and ``negatives``
    ``[N, P]``, paired by column.  A row slice is a block of the same widths.
    """
    prefixes: np.ndarray
    lengths: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        if not (np.array_equal(self.positives >= 0, self.negatives >= 0)
                and np.all(self.lengths >= 1) and (self.positives >= 0).any(axis=1).all()):
            raise ValueError("every example needs a non-empty prefix and a positive, "
                             "paired with a negative")

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, rows: slice) -> Examples:
        return Examples(*(a[rows] for a in (self.prefixes, self.lengths,
                                              self.positives, self.negatives)))


def unseen(candidates: np.ndarray, excluded: np.ndarray | None = None) -> np.ndarray:
    """Mask of the candidates neither in their row of ``excluded`` nor equal
    to an earlier candidate (padding, -1, never is): one stable sort per row
    of ``[excluded..., candidates...]``; a seen one equals its predecessor."""
    excluded = candidates[:, :0] if excluded is None else excluded
    both = np.concatenate([excluded, candidates], axis=1)
    order = np.argsort(both, axis=1, kind="stable")
    ranked = np.take_along_axis(both, order, axis=1)
    seen = np.zeros(both.shape, dtype=bool)
    np.put_along_axis(seen, order[:, 1:], ranked[:, 1:] == ranked[:, :-1], axis=1)
    return ~seen[:, excluded.shape[1]:] & (candidates >= 0)


def first_unseen(draws: np.ndarray, excluded: np.ndarray,
                 count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first ``count`` :func:`unseen` draws, in draw order and
    padded to ``max(count)``, and whether the row found that many."""
    fresh = unseen(draws, excluded)
    rank = np.cumsum(fresh, axis=1)
    picked = np.full((len(draws), count.max()), -1)
    row, col = np.nonzero(fresh & (rank <= count[:, None]))
    picked[row, rank[row, col] - 1] = draws[row, col]
    return picked, rank[:, -1] >= count


def knn_augment_positives(prefix, positives, item_matrix: np.ndarray, k: int,
                          needed: int) -> list[int]:
    """Items nearest to the current positives, to top the list up to ``needed``.

    Candidates are the k nearest items of each positive in the rows of
    ``item_matrix`` (the current item embeddings), ranked by their closest
    positive, ties to the lower index; prefix items and existing positives
    are never suggested.
    """
    missing = needed - len(positives)
    if missing <= 0:
        return []
    banned = list(set(prefix) | set(positives))
    k = min(k, len(item_matrix) - len(banned))
    best = np.full(len(item_matrix), np.inf, dtype=item_matrix.dtype)
    for p in set(positives):
        dists = 1.0 - item_matrix @ item_matrix[p]
        dists[banned] = np.inf
        near = top_k(-dists, k)
        best[near] = np.minimum(best[near], dists[near])
    found = np.flatnonzero(best < np.inf)
    return found[top_k(-best[found], missing)].tolist()


def check_negatives(train: Dataset, cfg: SamplerConfig) -> None:
    """Raise :class:`DataError` unless every example :func:`build_epoch` can
    make from ``train`` leaves an item to draw as its negative."""
    vocab_size = len(train.vocab)
    if vocab_size < 2:
        raise DataError(f"the vocabulary has {vocab_size} item; training needs "
                        f"at least two, so that a positive has a negative")
    # a cut excludes its prefix and first positive: a whole session at its
    # last cut, or a window and the item after it
    for s in train.sessions if cfg.exclude_prefix_negatives else ():
        span = len(s) if cfg.strategy == "posneg" else min(cfg.window_size + 1, len(s))
        if any(len(set(s.items[end - span:end])) >= vocab_size
               for end in range(span, len(s) + 1)):
            raise DataError(f"session {s.session_id!r} covers the vocabulary: no "
                            f"negative is left with exclude_prefix_negatives")


def _gather(flat: np.ndarray, start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Row i is ``flat[start[i]:start[i] + count[i]]``, padded with -1."""
    index = start[:, None] + np.arange(count.max())
    live = index < (start + count)[:, None]
    return np.where(live, flat[np.where(live, index, 0)], -1)


def build_epoch(train: Dataset, cfg: SamplerConfig, epoch: int,
                model: encoders.Model | None = None) -> Examples:
    """All training examples for one epoch, shuffled, fully reproducible; the
    widths are the data's longest prefix and longest (capped) positive list."""
    if cfg.knn_augment and model is None:
        raise ValueError("knn_augment needs the current model")
    rng = np.random.default_rng([cfg.rng_seed, epoch])
    vocab_size = len(train.vocab)
    sizes = np.array([len(s.items) for s in train.sessions])
    flat = np.concatenate([s.items for s in train.sessions])
    if cfg.strategy == "posneg":
        owner, cut, first = np.arange(len(sizes)), rng.integers(1, sizes), 0
    else:
        owner = np.repeat(np.arange(len(sizes)), sizes - 1)
        cut = np.arange(len(owner)) - (np.cumsum(sizes - 1) - sizes)[owner]
        first = np.maximum(cut - cfg.window_size, 0)
    base, lengths = (np.cumsum(sizes) - sizes)[owner], cut - first
    prefixes = _gather(flat, base + first, lengths)
    positives = _gather(flat, base + cut,
                        np.minimum(sizes[owner] - cut, cfg.samples_per_session))
    if cfg.knn_augment:
        matrix = encoders.item_embedding_matrix(model)
        rows = [p[p >= 0].tolist() for p in positives]
        rows = [row + knn_augment_positives(prefix[:n], row, matrix, cfg.knn_k,
                                            cfg.samples_per_session)
                for row, prefix, n in zip(rows, prefixes, lengths)]
        width = max(map(len, rows))
        positives = np.array([row + [-1] * (width - len(row)) for row in rows])

    # a vocabulary too small to give each positive its own negative keeps the
    # most positives nearest the cut (one at least) with count + |excluded| <= V
    banned = prefixes if cfg.exclude_prefix_negatives else prefixes[:, :0]
    excluded = (unseen(banned).sum(axis=1, keepdims=True)
                + np.cumsum(unseen(positives, banned), axis=1))
    fits = (positives >= 0) & (np.arange(1, positives.shape[1] + 1) + excluded <= vocab_size)
    count = np.maximum(fits.sum(axis=1), 1)
    if np.any(excluded[:, 0] >= vocab_size):
        raise ValueError("an example's excluded items cover the vocabulary")
    positives = np.where(np.arange(positives.shape[1]) < count[:, None],
                         positives, -1)[:, :count.max()]

    # sequential rejection, uniform without replacement over the eligible
    # items; a row that comes up short is drawn again, whole
    negatives, todo = np.full_like(positives, -1), np.arange(len(count))
    excluded = np.concatenate([banned, positives], axis=1)
    while len(todo):
        draws = rng.integers(0, vocab_size, size=(len(todo), 2 * positives.shape[1]))
        picked, done = first_unseen(draws, excluded[todo], count[todo])
        negatives[todo[done], :picked.shape[1]] = picked[done]
        todo = todo[~done]
    order = rng.permutation(len(count))
    return Examples(prefixes[order], lengths[order], positives[order], negatives[order])
