"""Mini-batch training loop with validation-driven learning-rate decay.

Each epoch samples fresh examples, walks them in batches of
``batch_size`` (one tape per batch, loss averaged over the batch), and
applies one Adam step per batch.  After every epoch the recall@eval_n of
the current model on a held-out chronological tail of the training
sessions decides the schedule: an epoch that fails to beat the best score by at
least ``improvement_threshold`` (relative) multiplies the learning rate
by ``lr_decay_factor``, and the run stops once that has happened
``max_lr_reductions`` times.  The returned parameters are the checkpoint
of the best validation epoch, not necessarily the last one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import evaluation, losses, sampling
from .data import Dataset, chronological_split
from .encoders import Model
from .index import SmlRecommender


class DivergenceError(RuntimeError):
    """Training overflowed or produced a non-finite loss; results would be
    garbage."""


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 150
    learning_rate: float = 0.001
    lr_decay_factor: float = 0.1
    improvement_threshold: float = 0.005   # relative validation improvement
    validation_fraction: float = 0.05
    max_lr_reductions: int = 3
    eval_n: int = 20

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ValueError("lr_decay_factor must lie in (0, 1]")
        if not 0.0 <= self.improvement_threshold < math.inf:
            raise ValueError("improvement_threshold must be finite and non-negative")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")
        if self.max_lr_reductions < 0:
            raise ValueError("max_lr_reductions must be non-negative")
        if self.eval_n < 1:
            raise ValueError("eval_n must be positive")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_recall: float    # recall@eval_n on the validation holdout
    lr: float


@dataclass
class TrainResult:
    model: Model
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = 0.0
    stop_reason: str = "no_epochs"


def split_validation(train_data: Dataset,
                     fraction: float) -> tuple[Dataset, Dataset]:
    """Hold out the chronologically last ``fraction`` of sessions.

    Both halves keep the full training vocabulary: the holdout is only ever
    scored, never used to fit anything, so no vocabulary closure is needed.
    """
    grad, val = chronological_split(train_data.sessions, fraction)
    return Dataset(grad, train_data.vocab), Dataset(val, train_data.vocab)


def validate(model: Model, val_sessions: Dataset, n: int = 20) -> float:
    """Recall@n of the current model over the holdout sessions."""
    recommender = SmlRecommender.from_model(model)
    return evaluation.evaluate(recommender, val_sessions, n=n).recall


def _mean_loss(tape: ad.Tape, terms: list[ad.Tensor]) -> ad.Tensor:
    total = ad.reduce_sum(tape, ad.stack_scalars(tape, terms))
    return ad.scale(tape, total, 1.0 / len(terms))


def _snapshot(model: Model) -> dict[str, np.ndarray]:
    return {name: t.values.copy() for name, t in model.params.items()}


def _restore(model: Model, arrays: dict[str, np.ndarray]) -> None:
    for name, tensor in model.params.items():
        tensor.values = arrays[name].copy()


def train(train_data: Dataset, model: Model,
          loss_cfg: losses.LossConfig | None = None,
          sampler_cfg: sampling.SamplerConfig | None = None,
          train_cfg: TrainConfig | None = None) -> TrainResult:
    loss_cfg = loss_cfg or losses.LossConfig()
    sampler_cfg = sampler_cfg or sampling.SamplerConfig()
    train_cfg = train_cfg or TrainConfig()
    if not train_data.sessions:
        raise ValueError("training dataset is empty")

    result = TrainResult(model)
    if train_cfg.max_epochs == 0:
        return result

    grad_data, val_data = split_validation(train_data,
                                           train_cfg.validation_fraction)
    lr = train_cfg.learning_rate
    reductions = 0
    best_arrays = _snapshot(model)
    result.stop_reason = "max_epochs"

    # an overflow or a NaN made from finite numbers is a divergence, even
    # when it saturates into finite outputs (a tanh of inf is 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(train_cfg.max_epochs):
                where = f"epoch {epoch} (sampling)"
                examples = sampling.build_epoch(
                    grad_data, sampler_cfg, epoch,
                    model if sampler_cfg.knn_augment else None)

                loss_sum = 0.0
                for lo in range(0, len(examples), train_cfg.batch_size):
                    batch = examples[lo:lo + train_cfg.batch_size]
                    where = f"epoch {epoch} (batch starting at example {lo})"
                    tape = ad.Tape()
                    terms = [losses.session_loss(tape, model, ex.prefix, ex.positives,
                                                 ex.negatives, loss_cfg)
                             for ex in batch]
                    batch_loss = _mean_loss(tape, terms)
                    if not np.isfinite(batch_loss.values):
                        raise DivergenceError(f"non-finite loss in {where}")
                    ad.backward(tape, batch_loss)
                    ad.adam_step(model.params, lr=lr)
                    loss_sum += float(batch_loss.values) * len(batch)

                train_loss = loss_sum / len(examples)
                where = f"epoch {epoch} (validation)"
                val_rec = validate(model, val_data, n=train_cfg.eval_n)
                result.history.append(EpochRecord(epoch, train_loss, val_rec, lr))

                if val_rec > result.best_val or result.best_epoch < 0:
                    result.best_val = val_rec
                    result.best_epoch = epoch
                    best_arrays = _snapshot(model)

                # schedule: compare against the best score seen BEFORE this epoch
                prior_best = max((r.val_recall for r in result.history[:-1]),
                                 default=None)
                improved_enough = (
                    prior_best is None
                    or val_rec > prior_best * (1.0 + train_cfg.improvement_threshold))
                if not improved_enough:
                    lr *= train_cfg.lr_decay_factor
                    reductions += 1
                    if reductions >= train_cfg.max_lr_reductions:
                        result.stop_reason = "lr_reductions"
                        break
    except FloatingPointError as exc:
        raise DivergenceError(f"numeric overflow in {where}: {exc}") from exc

    _restore(model, best_arrays)
    return result


def history_csv(history: list[EpochRecord], eval_n: int) -> str:
    lines = [f"epoch,train_loss,val_rec{eval_n},lr"]
    lines += [f"{r.epoch},{r.train_loss!r},{r.val_recall!r},{r.lr!r}"
              for r in history]
    return "\n".join(lines) + "\n"
