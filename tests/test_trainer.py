"""Training loop: schedule, checkpointing, determinism, divergence guard."""

import math

import numpy as np
import pytest

from sml import data, losses, sampling, synth, trainer
from conftest import make_model
from test_baselines import make_dataset


def small_corpus():
    # fifteen cycle-rule sessions over a dozen items, enough to train on
    sessions = [[(s + j) % 12 for j in range(2 + s % 4)] for s in range(15)]
    corpus = make_dataset(sessions, vocab_size=12)
    for k, s in enumerate(corpus.sessions):  # distinct, increasing start times
        s.timestamps = [k * 100 + j for j in range(len(s.items))]
    return corpus


def quick_cfg(**overrides):
    defaults = dict(batch_size=4, max_epochs=3, validation_fraction=0.2,
                    eval_n=5)
    defaults.update(overrides)
    return trainer.TrainConfig(**defaults)


def quick_sampler():
    return sampling.SamplerConfig(samples_per_session=2, rng_seed=3)


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        dict(batch_size=0),
        dict(max_epochs=-1),
        dict(learning_rate=0.0),
        dict(lr_decay_factor=0.0),
        dict(lr_decay_factor=1.5),
        dict(improvement_threshold=-0.1),
        dict(validation_fraction=0.0),
        dict(validation_fraction=1.0),
        dict(max_lr_reductions=-1),
        dict(eval_n=0),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            trainer.TrainConfig(**bad)

    @pytest.mark.parametrize("field", ["learning_rate", "improvement_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            trainer.TrainConfig(**{field: value})


class TestSplitValidation:
    def test_holds_out_chronological_tail(self):
        corpus = small_corpus()
        grad, val = trainer.split_validation(corpus, 0.2)
        assert len(val.sessions) == 3
        assert len(grad.sessions) == 12
        assert max(s.start_time for s in grad.sessions) < min(
            s.start_time for s in val.sessions)

    def test_partition_preserves_sessions(self):
        corpus = small_corpus()
        grad, val = trainer.split_validation(corpus, 0.2)
        got = sorted(s.session_id for s in grad.sessions + val.sessions)
        want = sorted(s.session_id for s in corpus.sessions)
        assert got == want

    def test_vocab_is_shared_not_rebuilt(self):
        corpus = small_corpus()
        grad, val = trainer.split_validation(corpus, 0.2)
        assert grad.vocab is corpus.vocab
        assert val.vocab is corpus.vocab

    def test_tiny_fraction_still_holds_out_one(self):
        corpus = small_corpus()
        _, val = trainer.split_validation(corpus, 0.001)
        assert len(val.sessions) == 1

    def test_single_session_cannot_split(self):
        corpus = make_dataset([[0, 1, 2]], vocab_size=4)
        with pytest.raises(data.EmptyDatasetError, match="hold out 1 of 1"):
            trainer.split_validation(corpus, 0.5)


class TestTrainLoop:
    def test_zero_epochs_returns_untouched_model(self):
        model = make_model(vocab=12, dim=8, seed=0)
        before = {n: t.values.copy() for n, t in model.params.items()}
        result = trainer.train(small_corpus(), model,
                               train_cfg=quick_cfg(max_epochs=0))
        assert result.history == []
        assert result.stop_reason == "no_epochs"
        assert result.best_epoch == -1
        for name, tensor in model.params.items():
            assert np.array_equal(tensor.values, before[name])

    def test_parameters_actually_move(self):
        model = make_model(vocab=12, dim=8, seed=0)
        before = {n: t.values.copy() for n, t in model.params.items()}
        trainer.train(small_corpus(), model, sampler_cfg=quick_sampler(),
                      train_cfg=quick_cfg(max_epochs=1))
        moved = any(not np.array_equal(t.values, before[n])
                    for n, t in model.params.items())
        assert moved

    def test_fixed_seed_reproduces_run_exactly(self):
        results = []
        for _ in range(2):
            model = make_model(vocab=12, dim=8, seed=0)
            results.append(trainer.train(small_corpus(), model,
                                         sampler_cfg=quick_sampler(),
                                         train_cfg=quick_cfg()))
        a, b = results
        assert a.history == b.history
        for name, tensor in a.model.params.items():
            assert np.array_equal(tensor.values, b.model.params[name].values)

    def test_history_has_one_row_per_epoch_run(self):
        model = make_model(vocab=12, dim=8, seed=0)
        result = trainer.train(small_corpus(), model,
                               sampler_cfg=quick_sampler(),
                               train_cfg=quick_cfg(max_epochs=3))
        assert [r.epoch for r in result.history] == [0, 1, 2]
        assert all(np.isfinite(r.train_loss) for r in result.history)

    @pytest.mark.parametrize("sampler", [
        sampling.SamplerConfig(samples_per_session=2, rng_seed=3),
        sampling.SamplerConfig(strategy="sliding_window", window_size=8,
                               samples_per_session=2, rng_seed=3),
    ], ids=["posneg", "sliding_window"])
    def test_prefixes_longer_than_the_encoder_window(self, monkeypatch, sampler):
        # sessions of up to 10 items against an encoder that takes 4
        corpus = synth.cycle_sessions(n_sessions=40, vocab_size=30,
                                      min_length=6, max_length=10, seed=2)
        model = make_model(vocab=30, dim=8, max_session_length=4)
        seen = []
        session_loss = losses.session_loss

        def spy(tape, model, prefix, *args):
            seen.append(list(prefix))
            return session_loss(tape, model, prefix, *args)

        monkeypatch.setattr(losses, "session_loss", spy)
        result = trainer.train(corpus, model, sampler_cfg=sampler,
                               train_cfg=quick_cfg(max_epochs=2))
        assert all(np.isfinite(r.train_loss) for r in result.history)
        # the encoder keeps each prefix's last 4 items itself
        assert max(len(p) for p in seen) > 4

    def test_validation_sessions_never_reach_the_sampler(self, monkeypatch):
        corpus = small_corpus()
        seen = []
        original = sampling.build_epoch

        def spy(dataset, cfg, epoch, model=None):
            seen.append({s.session_id for s in dataset.sessions})
            return original(dataset, cfg, epoch, model)

        monkeypatch.setattr(sampling, "build_epoch", spy)
        model = make_model(vocab=12, dim=8, seed=0)
        trainer.train(corpus, model, sampler_cfg=quick_sampler(),
                      train_cfg=quick_cfg(max_epochs=2, validation_fraction=0.2))
        grad_ids = {s.session_id for s in corpus.sessions[:-3]}
        assert seen == [grad_ids, grad_ids]

    def test_best_checkpoint_is_restored(self):
        corpus = small_corpus()
        model = make_model(vocab=12, dim=8, seed=0)
        cfg = quick_cfg(max_epochs=4)
        result = trainer.train(corpus, model, sampler_cfg=quick_sampler(),
                               train_cfg=cfg)
        vals = [r.val_recall for r in result.history]
        assert result.best_val == max(vals)
        assert result.best_epoch == vals.index(max(vals))
        # the returned parameters must reproduce the best validation score
        _, val_data = trainer.split_validation(corpus, cfg.validation_fraction)
        assert trainer.validate(result.model, val_data,
                                n=cfg.eval_n) == result.best_val

    def test_stops_after_max_lr_reductions(self):
        model = make_model(vocab=12, dim=8, seed=0)
        # a learning rate this small cannot change the validation score, so
        # every epoch after the first is a non-improvement
        result = trainer.train(
            small_corpus(), model, sampler_cfg=quick_sampler(),
            train_cfg=quick_cfg(max_epochs=50, learning_rate=1e-12,
                                max_lr_reductions=3))
        assert result.stop_reason == "lr_reductions"
        assert len(result.history) == 4  # first epoch + three failed ones
        lrs = [r.lr for r in result.history]
        assert lrs == pytest.approx([1e-12, 1e-12, 1e-13, 1e-14], rel=1e-9)

    def test_lr_sequence_never_increases(self):
        model = make_model(vocab=12, dim=8, seed=0)
        result = trainer.train(small_corpus(), model,
                               sampler_cfg=quick_sampler(),
                               train_cfg=quick_cfg(max_epochs=6))
        lrs = [r.lr for r in result.history]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        assert len(set(lrs)) <= 1 + 3

    def test_divergence_raises(self):
        model = make_model(vocab=12, dim=8, seed=0)
        name, tensor = next(iter(model.params.items()))
        tensor.values[0] = np.nan
        with pytest.raises(trainer.DivergenceError, match="epoch 0"):
            trainer.train(small_corpus(), model, sampler_cfg=quick_sampler(),
                          train_cfg=quick_cfg())

    def test_empty_dataset_rejected(self):
        corpus = small_corpus()
        corpus.sessions = []
        model = make_model(vocab=12, dim=8, seed=0)
        with pytest.raises(ValueError):
            trainer.train(corpus, model, train_cfg=quick_cfg())


class TestLossMakesProgress:
    def test_loss_strictly_decreases_on_rule_data(self):
        corpus = synth.cycle_sessions(n_sessions=60, vocab_size=20,
                                      min_length=3, max_length=6, seed=7)
        model = make_model(vocab=20, dim=16, seed=1, max_session_length=8)
        result = trainer.train(
            corpus, model,
            loss_cfg=losses.LossConfig(kind="Triplet"),
            sampler_cfg=sampling.SamplerConfig(samples_per_session=4,
                                               rng_seed=2),
            # disarm the schedule so all five epochs run at a constant rate
            train_cfg=trainer.TrainConfig(batch_size=16, max_epochs=5,
                                          validation_fraction=0.05,
                                          lr_decay_factor=1.0,
                                          max_lr_reductions=10))
        seq = [r.train_loss for r in result.history[:5]]
        assert len(seq) == 5
        assert all(b < a for a, b in zip(seq, seq[1:])), seq


class TestHistoryCsv:
    def test_round_trips_through_float_parse(self):
        rows = [trainer.EpochRecord(0, 1.25, 0.5, 0.001),
                trainer.EpochRecord(1, 1.0625, 0.625, 0.001)]
        text = trainer.history_csv(rows, 20)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_rec20,lr"
        cells = lines[1].split(",")
        assert int(cells[0]) == 0
        assert float(cells[1]) == 1.25
        assert float(cells[3]) == 0.001

    def test_empty_history(self):
        assert trainer.history_csv([], 20) == "epoch,train_loss,val_rec20,lr\n"
