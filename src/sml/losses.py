"""Ranking losses expressed over cosine distances.

The pairwise losses consume distance tensors ``dist_pos`` (session to
observed next item) and ``dist_neg`` (session to a sampled negative) of any
one shape and act elementwise, so one call scores every position of an
example; they are minimised when positives are pulled close and negatives
pushed away.  The per-session objective weights sampled positions
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


def _const_like(reference: ad.Tensor, value: float) -> ad.Tensor:
    return ad.constant(np.full(reference.shape, value, dtype=reference.dtype))


def bpr_loss(tape, dist_pos: ad.Tensor, dist_neg: ad.Tensor) -> ad.Tensor:
    """-ln(sigmoid(dist_neg - dist_pos)); always positive."""
    gap = ad.sub(tape, dist_neg, dist_pos)
    return ad.scale(tape, ad.log(tape, ad.sigmoid(tape, gap)), -1.0)


def top1_loss(tape, dist_pos: ad.Tensor, dist_neg: ad.Tensor) -> ad.Tensor:
    """sigmoid(dist_pos - dist_neg) + sigmoid((1 - dist_neg)^2).

    The second term regularises negatives toward distance 1 (score 0).
    """
    rank = ad.sigmoid(tape, ad.sub(tape, dist_pos, dist_neg))
    slack = ad.sub(tape, _const_like(dist_neg, 1.0), dist_neg)
    reg = ad.sigmoid(tape, ad.mul(tape, slack, slack))
    return ad.add(tape, rank, reg)


def contrastive_loss(tape, dist: ad.Tensor, same_class: bool,
                     margin: float = 0.3) -> ad.Tensor:
    """Pull same-class pairs together, push different pairs past the margin."""
    if same_class:
        return dist
    return ad.relu(tape, ad.sub(tape, dist, _const_like(dist, margin)))


def triplet_loss(tape, dist_pos: ad.Tensor, dist_neg: ad.Tensor,
                 dist_pos_neg: ad.Tensor | None = None, margin: float = 0.3,
                 use_swap: bool = False) -> ad.Tensor:
    """max(0, dist_pos - dist_neg' + margin).

    With ``use_swap`` the effective negative distance is
    min(dist_neg, dist_pos_neg); an exact tie routes the gradient to
    ``dist_neg``.
    """
    effective = dist_neg
    if use_swap:
        if dist_pos_neg is None:
            raise ValueError("use_swap requires dist_pos_neg")
        effective = ad.minimum(tape, dist_neg, dist_pos_neg)
    gap = ad.sub(tape, dist_pos, effective)
    if margin != 0.0:
        gap = ad.add(tape, gap, _const_like(gap, margin))
    return ad.relu(tape, gap)


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

    logits = ad.scale(tape, dists, -1.0)
    log_model = ad.log_softmax(tape, logits)
    target_c = ad.constant(target.astype(log_model.dtype))

    if model_first:
        if np.any(target == 0.0):
            raise ValueError("KLD(model || target) diverges for a zero-mass target; "
                             "use epsilon > 0")
        log_target = ad.constant(np.log(target).astype(log_model.dtype))
        model_probs = ad.exp(tape, log_model)
        gap = ad.sub(tape, log_model, log_target)
        return ad.reduce_sum(tape, ad.mul(tape, model_probs, gap))

    entropy = float(np.sum(target[target > 0] * np.log(target[target > 0])))
    cross = ad.reduce_sum(tape, ad.mul(tape, target_c, log_model))
    return ad.add(tape, _const_like(cross, entropy), ad.scale(tape, cross, -1.0))


def _encode_candidates(tape, model: encoders.Model, prefix,
                       candidates: list[int]) -> tuple[ad.Tensor, ad.Tensor]:
    """Candidate encodings (rows) and their distances to the encoded session."""
    session_vec = encoders.encode_session(model, prefix, tape)
    item_vecs = encoders.encode_items(model, candidates, tape)
    return item_vecs, ad.cosine_distance(tape, item_vecs, session_vec)


def ncas_loss(tape, model: encoders.Model, prefix, candidates: list[int],
              positive_flags: list[bool], epsilon: float = 0.3,
              model_first: bool = False) -> ad.Tensor:
    """Candidate-set softmax loss against the encoded session."""
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate items must be distinct")
    _, dists = _encode_candidates(tape, model, prefix, candidates)
    return ncas_from_distances(tape, dists, positive_flags, epsilon, model_first)


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
    if cfg.kind == "NCAS":
        flags = [item in positives for item in items]
        return ncas_loss(tape, model, prefix, items, flags, cfg.epsilon,
                         cfg.kld_model_first)

    item_vecs, dists = _encode_candidates(tape, model, prefix, items)
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
