"""Ranking losses expressed over cosine distances.

The pairwise losses consume distance tensors ``dist_pos`` (session to
observed next item) and ``dist_neg`` (session to a sampled negative) of any
one shape and act elementwise, so one call scores every position of an
example; they are minimised when positives are pulled close and negatives
pushed away.  Each loss computes its value and its derivative with
respect to the distances it receives in numpy and records one tape node
(``ad.fused``).  The per-session objective weights sampled positions
j = 0, 1, ... by sqrt(1/(1+j)) so that the immediate continuation dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders

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


def bpr_loss(tape, dist_pos: ad.Tensor, dist_neg: ad.Tensor) -> ad.Tensor:
    """-ln(sigmoid(dist_neg - dist_pos)); always positive."""
    gap = dist_pos.values - dist_neg.values
    slope = _sigmoid(gap)
    return ad.fused(tape, "bpr_loss", (dist_pos, dist_neg),
                    np.logaddexp(0.0, gap), (slope, -slope))


def top1_loss(tape, dist_pos: ad.Tensor, dist_neg: ad.Tensor) -> ad.Tensor:
    """sigmoid(dist_pos - dist_neg) + sigmoid((1 - dist_neg)^2).

    The second term regularises negatives toward distance 1 (score 0).
    """
    rank = _sigmoid(dist_pos.values - dist_neg.values)
    slack = 1.0 - dist_neg.values
    reg = _sigmoid(slack * slack)
    rank_slope = rank * (1.0 - rank)
    reg_slope = reg * (1.0 - reg) * 2.0 * slack  # d reg / d slack
    return ad.fused(tape, "top1_loss", (dist_pos, dist_neg), rank + reg,
                    (rank_slope, -rank_slope - reg_slope))


def contrastive_loss(tape, dist: ad.Tensor, same_class: bool,
                     margin: float = 0.3) -> ad.Tensor:
    """Pull same-class pairs together, push different pairs past the margin."""
    values, slope = dist.values, np.ones_like(dist.values)
    if not same_class:
        excess = dist.values - margin
        values, slope = np.maximum(excess, 0), excess > 0
    return ad.fused(tape, "contrastive_loss", (dist,), values, (slope,))


def triplet_loss(tape, dist_pos: ad.Tensor, dist_neg: ad.Tensor,
                 dist_pos_neg: ad.Tensor | None = None, margin: float = 0.3,
                 use_swap: bool = False) -> ad.Tensor:
    """max(0, dist_pos - dist_neg' + margin).

    With ``use_swap`` the effective negative distance is
    min(dist_neg, dist_pos_neg); an exact tie routes the gradient to
    ``dist_neg``.
    """
    inputs, negative = (dist_pos, dist_neg), dist_neg.values
    if use_swap:
        if dist_pos_neg is None:
            raise ValueError("use_swap requires dist_pos_neg")
        inputs += (dist_pos_neg,)
        take_neg = dist_neg.values <= dist_pos_neg.values
        negative = np.minimum(dist_neg.values, dist_pos_neg.values)
    gap = dist_pos.values - negative + margin
    active = (gap > 0).astype(gap.dtype)
    slopes = ((active, -active * take_neg, -active * ~take_neg) if use_swap
              else (active, -active))
    return ad.fused(tape, "triplet_loss", inputs, np.maximum(gap, 0), slopes)


def position_weight(j: int) -> float:
    """Weight of the j-th sampled positive (0-based): sqrt(1/(1+j))."""
    return math.sqrt(1.0 / (1.0 + j))


def ncas_from_distances(tape, dists: ad.Tensor, positive_flags: list[bool],
                        epsilon: float = 0.3, model_first: bool = False) -> ad.Tensor:
    """KL divergence between a smoothed target and softmax(-distances).

    ``dists`` is the vector of session-to-candidate distances.  The target
    is uniform over the flagged positives, smoothed to
    (1 - eps) * target + eps / n over the whole candidate list.  By default
    the loss is KLD(target || model); ``model_first`` flips the arguments.
    """
    if dists.ndim != 1:
        raise ValueError("dists must be a vector")
    n = dists.shape[0]
    if n == 0:
        raise ValueError("candidate list is empty")
    if len(positive_flags) != n:
        raise ValueError("positive_flags length must match candidates")
    n_pos = sum(bool(f) for f in positive_flags)
    if n_pos == 0:
        raise ValueError("at least one candidate must be positive")

    hard = np.array([1.0 / n_pos if f else 0.0 for f in positive_flags])
    target = (1.0 - epsilon) * hard + epsilon / n

    # log-softmax of the logits -dists, shifted by their maximum first
    shifted = dists.values.min() - dists.values
    log_model = shifted - np.log(np.exp(shifted).sum())
    probs = np.exp(log_model)
    if model_first:
        if np.any(target == 0.0):
            raise ValueError("KLD(model || target) diverges for a zero-mass target; "
                             "use epsilon > 0")
        gap = log_model - np.log(target)
        value = np.sum(probs * gap)
        slope = probs * (value - gap)
    else:
        keep = target > 0
        value = np.sum(target[keep] * (np.log(target[keep]) - log_model[keep]))
        slope = target - probs
    return ad.fused(tape, "ncas_from_distances", (dists,), value, (slope,))


def session_loss(tape, model: encoders.Model, prefix, positives: list[int],
                 negatives: list[int], cfg: LossConfig) -> ad.Tensor:
    """Loss of one training example under any configured loss kind.

    The pairwise losses act on vectors of distances, one entry per position.
    """
    if len(positives) != len(negatives):
        raise ValueError("positives and negatives must pair up")
    if not positives:
        raise ValueError("example has no positives")

    # distinct candidates, positives first; a repeated positive keeps one
    # slot, and for NCAS adds nothing to a set-softmax target
    items = list(dict.fromkeys(positives + negatives))
    session_vec = encoders.encode_session(model, prefix, tape)
    item_vecs = encoders.encode_items(model, items, tape)
    dists = ad.cosine_distance(tape, item_vecs, session_vec)
    if cfg.kind == "NCAS":
        flags = [item in positives for item in items]
        return ncas_from_distances(tape, dists, flags, cfg.epsilon,
                                   cfg.kld_model_first)

    slot = {item: k for k, item in enumerate(items)}
    pos_slots = [slot[p] for p in positives]
    neg_slots = [slot[n] for n in negatives]
    dist_pos = ad.embedding_lookup(tape, dists, pos_slots)
    dist_neg = ad.embedding_lookup(tape, dists, neg_slots)
    if cfg.kind == "Contrastive":
        terms = ad.add(tape, contrastive_loss(tape, dist_pos, True, cfg.margin),
                       contrastive_loss(tape, dist_neg, False, cfg.margin))
    elif cfg.kind == "Triplet":
        dist_pos_neg = None
        if cfg.use_swap:
            dist_pos_neg = ad.cosine_distance(
                tape, ad.embedding_lookup(tape, item_vecs, pos_slots),
                ad.embedding_lookup(tape, item_vecs, neg_slots))
        terms = triplet_loss(tape, dist_pos, dist_neg, dist_pos_neg,
                             cfg.margin, cfg.use_swap)
    elif cfg.kind == "BPR":
        terms = bpr_loss(tape, dist_pos, dist_neg)
    else:
        terms = top1_loss(tape, dist_pos, dist_neg)
    if cfg.position_weighting:
        weights = [position_weight(j) for j in range(len(positives))]
        terms = ad.mul(tape, terms, ad.constant(weights, dtype=terms.dtype))
    return ad.reduce_sum(tape, terms)
