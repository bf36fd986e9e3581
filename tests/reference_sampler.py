"""The per-session sampler that the array sampler in ``sml.sampling``
replaced, kept as the reference its output distributions are tested
against.

Each session draws from its own generator keyed on (seed, epoch, session
position); examples are (prefix, positives, negatives) lists.
"""

import numpy as np

from sml import encoders
from sml.sampling import knn_augment_positives


def example_at_split(items, split, samples_per_session):
    """Prefix and up to ``samples_per_session`` continuation items at a cut."""
    if not 1 <= split <= len(items) - 1:
        raise ValueError(f"split {split} outside [1, {len(items) - 1}]")
    return list(items[:split]), list(items[split:split + samples_per_session])


def split_session(items, rng, samples_per_session):
    """Cut a session at a uniform point in [1, len-1]."""
    if len(items) < 2:
        raise ValueError("session too short to split")
    split = int(rng.integers(1, len(items)))
    return example_at_split(items, split, samples_per_session)


def sample_negatives(excluded, vocab_size, count, rng):
    """Uniform, without replacement, from [0, vocab_size) minus ``excluded``."""
    if count < 1:
        raise ValueError("count must be positive")
    excluded = {i for i in excluded if 0 <= i < vocab_size}
    eligible = vocab_size - len(excluded)
    if count > eligible:
        raise ValueError(
            f"cannot draw {count} negatives from {eligible} eligible items")

    # rejection sampling is uniform and fast while the eligible set is large;
    # otherwise enumerate it and let the generator pick directly
    if vocab_size <= 1024 or eligible < 2 * count:
        pool = np.array([i for i in range(vocab_size) if i not in excluded])
        picked = rng.choice(pool, size=count, replace=False)
        return [int(i) for i in picked]

    out = []
    seen = set(excluded)
    while len(out) < count:
        for cand in rng.integers(0, vocab_size, size=2 * (count - len(out))):
            cand = int(cand)
            if cand in seen:
                continue
            seen.add(cand)
            out.append(cand)
            if len(out) == count:
                break
    return out


def sliding_window_examples(items, window_size, samples_per_session):
    """One (window, positives) pair per cut point.

    The prefix is capped at the last ``window_size`` events before the cut;
    cuts near the session start simply yield shorter windows.
    """
    pairs = []
    for split in range(1, len(items)):
        window = list(items[max(0, split - window_size):split])
        positives = list(items[split:split + samples_per_session])
        pairs.append((window, positives))
    return pairs


def build_epoch(train, cfg, epoch, model=None):
    """All (prefix, positives, negatives) examples for one epoch, shuffled."""
    vocab_size = len(train.vocab)
    item_matrix = (encoders.item_embedding_matrix(model)
                   if cfg.knn_augment else None)

    examples = []
    for position, session in enumerate(train.sessions):
        rng = np.random.default_rng([cfg.rng_seed, epoch, position])
        if cfg.strategy == "posneg":
            pairs = [split_session(session.items, rng, cfg.samples_per_session)]
        else:
            pairs = sliding_window_examples(session.items, cfg.window_size,
                                            cfg.samples_per_session)
        for prefix, positives in pairs:
            if cfg.knn_augment and len(positives) < cfg.samples_per_session:
                positives = positives + knn_augment_positives(
                    prefix, positives, item_matrix, cfg.knn_k,
                    cfg.samples_per_session)
            banned = set(prefix) if cfg.exclude_prefix_negatives else set()
            excluded = banned | set(positives)
            # a vocabulary too small to give every positive its own negative
            # keeps the positives nearest the cut
            while len(positives) > max(1, vocab_size - len(excluded)):
                positives = positives[:-1]
                excluded = banned | set(positives)
            negatives = sample_negatives(excluded, vocab_size, len(positives), rng)
            examples.append((prefix, positives, negatives))

    shuffle_rng = np.random.default_rng([cfg.rng_seed, epoch])
    order = shuffle_rng.permutation(len(examples))
    return [examples[i] for i in order]
