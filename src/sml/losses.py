"""Ranking losses expressed over cosine distances.

Training scores a block of examples at once (:func:`session_loss`): one
loss node over a ``[B, 2P]`` distance matrix, with the position weights
sqrt(1/(1+j)), the batch mean and a mask for padding folded in.  Each
loss computes its value and its derivative with respect to the distances
in numpy.  The pairwise losses are minimised when positives (observed next
items) are pulled close and sampled negatives pushed away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders, sampling

LOSS_KINDS = ("Triplet", "BPR", "TOP1", "Contrastive", "NCAS")


@dataclass(frozen=True)
class LossConfig:
    kind: str = "Triplet"
    margin: float = 0.3            # 0 gives the no-margin triplet hinge
    use_swap: bool = False
    position_weighting: bool = True
    epsilon: float = 0.3          # NCAS target smoothing
    kld_model_first: bool = False  # NCAS: KLD(model || target) instead

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0.0 <= self.margin < math.inf:
            raise ValueError("margin must be finite and non-negative")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.kind == "NCAS" and self.kld_model_first and self.epsilon == 0.0:
            raise ValueError("NCAS with kld_model_first needs epsilon > 0: "
                             "KLD(model || target) diverges for a zero-mass target")


def _sigmoid(x):
    # tanh form avoids exp overflow for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# Each pairwise term maps distance arrays of one shape to its values and its
# slopes with respect to each distance, entry by entry.

def _bpr(dist_pos, dist_neg):
    # -ln(sigmoid(dist_neg - dist_pos)); always positive
    gap = dist_pos - dist_neg
    slope = _sigmoid(gap)
    return np.logaddexp(0.0, gap), (slope, -slope)


def _top1(dist_pos, dist_neg):
    # sigmoid(dist_pos - dist_neg) + sigmoid((1 - dist_neg)^2); the second
    # term regularises negatives toward distance 1 (score 0)
    rank = _sigmoid(dist_pos - dist_neg)
    slack = 1.0 - dist_neg
    reg = _sigmoid(slack * slack)
    rank_slope = rank * (1.0 - rank)
    reg_slope = reg * (1.0 - reg) * 2.0 * slack  # d reg / d slack
    return rank + reg, (rank_slope, -rank_slope - reg_slope)


def _contrastive(dist_pos, dist_neg, margin):
    # dist_pos + max(0, dist_neg - margin)
    excess = dist_neg - margin
    return dist_pos + np.maximum(excess, 0), (np.ones_like(dist_pos), excess > 0)


def _triplet(dist_pos, dist_neg, dist_pos_neg=None, margin=0.3):
    # max(0, dist_pos - dist_neg + margin); with dist_pos_neg, the swap: the
    # closer of the two negatives counts, and an exact tie routes to dist_neg
    negative = dist_neg
    if dist_pos_neg is not None:
        take_neg = dist_neg <= dist_pos_neg
        negative = np.minimum(dist_neg, dist_pos_neg)
    gap = dist_pos - negative + margin
    active = (gap > 0).astype(gap.dtype)
    slopes = ((active, -active) if dist_pos_neg is None
              else (active, -active * take_neg, -active * ~take_neg))
    return np.maximum(gap, 0), slopes


def position_weight(j: int) -> float:
    """Weight of the j-th sampled positive (0-based): sqrt(1/(1+j))."""
    return math.sqrt(1.0 / (1.0 + j))


def ncas_from_distances(tape, dists: ad.Tensor, positive_flags,
                        epsilon: float = 0.3, model_first: bool = False,
                        mask=None) -> ad.Tensor:
    """KL divergence between a smoothed target and softmax(-distances).

    ``dists`` holds session-to-candidate distances: one candidate vector, or
    a ``[B, K]`` matrix with one row per session, whose divergences are
    averaged.  ``positive_flags`` has the same shape, and so does ``mask``,
    which marks each row's real candidates (all of them when None); the
    other entries get no probability and no gradient.  A row's target is
    uniform over its flagged positives, smoothed to
    (1 - eps) * target + eps / n over its n candidates.  By default the loss
    is KLD(target || model); ``model_first`` flips the arguments.
    """
    d = dists.values
    flags = np.asarray(positive_flags, dtype=bool)
    live = np.ones(d.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if d.ndim not in (1, 2) or flags.shape != d.shape or live.shape != d.shape:
        raise ValueError("dists must be a vector or a matrix, matched by the "
                         "flags and the mask")
    n = live.sum(axis=-1, keepdims=True)
    flags = flags & live
    n_pos = flags.sum(axis=-1, keepdims=True)
    if np.any(n_pos == 0):
        raise ValueError("every candidate list needs a positive candidate")

    target = np.where(live, (1.0 - epsilon) * flags / n_pos + epsilon / n, 0.0)
    log_target = np.log(np.where(target > 0, target, 1.0))
    # log-softmax of the logits -dists over each row's candidates, shifted
    # by their maximum first; masked entries stay finite and weigh nothing
    lowest = np.where(live, d, np.inf).min(axis=-1, keepdims=True)
    shifted = np.where(live, lowest - d, 0.0)
    weights = np.exp(shifted) * live
    total = weights.sum(axis=-1, keepdims=True)
    log_model = shifted - np.log(total)
    probs = weights / total
    if model_first:
        if np.any(live & (target == 0.0)):
            raise ValueError("KLD(model || target) diverges for a zero-mass target; "
                             "use epsilon > 0")
        gap = log_model - log_target
        value = np.sum(probs * gap, axis=-1, keepdims=True)
        slope = probs * (value - gap)
    else:
        value = np.sum(target * (log_target - log_model), axis=-1)
        slope = target - probs
    return ad.fused(tape, "ncas_from_distances", (dists,), value.sum() / value.size,
                    (slope / value.size,))


def session_loss(tape, model: encoders.Model, batch: sampling.Examples,
                 cfg: LossConfig) -> ad.Tensor:
    """Mean loss of a block of training examples, as one tape graph.

    One :func:`encoders.encode_sessions` call on the prefix matrix, one
    :func:`encoders.encode_items` call on the distinct candidates, and one
    ``[B, 2P]`` distance matrix (positives, then negatives) feed one loss
    node.  Padding slots weigh nothing; NCAS also masks repeated positives.
    """
    if not len(batch):
        raise ValueError("a batch needs at least one example")
    width = batch.positives.shape[1]
    ids = np.concatenate([batch.positives, batch.negatives], axis=1)
    # padding slots gather a real candidate, which their zero weight ignores
    items, slots = np.unique(np.where(ids >= 0, ids, ids[0, 0]), return_inverse=True)
    slots = slots.reshape(ids.shape)

    sessions = encoders.encode_sessions(model, batch.prefixes, batch.lengths, tape)
    item_vecs = encoders.encode_items(model, items, tape)
    dists = ad.cosine_distance(tape, item_vecs, sessions, slots)
    if cfg.kind == "NCAS":
        keep = sampling.unseen(ids)
        return ncas_from_distances(tape, dists, keep & (np.arange(2 * width) < width),
                                   cfg.epsilon, cfg.kld_model_first, keep)

    dist_pos, dist_neg = dists.values[:, :width], dists.values[:, width:]
    weights = (batch.positives >= 0) / len(batch)
    if cfg.position_weighting:
        weights = weights * [position_weight(j) for j in range(width)]
    inputs = (dists,)
    if cfg.kind == "Triplet":
        dist_pos_neg = None
        if cfg.use_swap:
            inputs += (ad.cosine_distance(
                tape, ad.embedding_lookup(tape, item_vecs, slots[:, :width].ravel()),
                ad.embedding_lookup(tape, item_vecs, slots[:, width:].ravel())),)
            dist_pos_neg = inputs[1].values.reshape(dist_pos.shape)
        values, slopes = _triplet(dist_pos, dist_neg, dist_pos_neg, cfg.margin)
    elif cfg.kind == "Contrastive":
        values, slopes = _contrastive(dist_pos, dist_neg, cfg.margin)
    else:
        values, slopes = (_bpr if cfg.kind == "BPR" else _top1)(dist_pos, dist_neg)
    grads = [np.concatenate([weights * slopes[0], weights * slopes[1]], axis=1)]
    grads += [(weights * slope).ravel() for slope in slopes[2:]]  # swap distances
    return ad.fused(tape, "session_loss", inputs, np.sum(weights * values), grads)
