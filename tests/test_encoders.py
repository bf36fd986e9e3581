"""Encoder structure, determinism, normalisation and padding behaviour."""

import dataclasses
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sml import autodiff as ad
from sml import encoders, losses

from conftest import make_examples, make_model, numpy_item_vectors, padded
from tape_ops import grad_check, mul, reduce_sum


KINDS = ["MaxPool", "AvgPool", "GRU", "TextCNN"]


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            encoders.ModelConfig(vocab_size=5, encoder_kind="LSTM")

    def test_rejects_filter_longer_than_max_session(self):
        with pytest.raises(ValueError):
            encoders.ModelConfig(vocab_size=5, encoder_kind="TextCNN",
                                 max_session_length=4, conv_filter_sizes=(1, 5))

    def test_conv_channels_cover_dim(self):
        cfg = encoders.ModelConfig(vocab_size=5, embedding_dim=400,
                                   encoder_kind="TextCNN", conv_filter_sizes=(1, 3, 5))
        assert cfg.conv_channels * 3 >= 400
        assert cfg.conv_channels == 134


class TestBuild:
    def test_same_seed_same_weights(self):
        a = make_model(seed=5)
        b = make_model(seed=5)
        for (name, pa), (_, pb) in zip(a.params.items(), b.params.items()):
            np.testing.assert_array_equal(pa.values, pb.values, err_msg=name)

    def test_different_seed_different_weights(self):
        a = make_model(seed=5)
        b = make_model(seed=6)
        assert not np.array_equal(a.params["item_embedding"].values,
                                  b.params["item_embedding"].values)

    def test_bounded_init_and_zero_biases(self):
        model = make_model(kind="GRU", dim=16)
        bound = 1.0 / 4.0
        for name, p in model.params.items():
            if p.values.ndim == 1:
                np.testing.assert_array_equal(p.values, 0.0, err_msg=name)
            else:
                assert np.abs(p.values).max() <= bound, name

    def test_common_embedding_strictly_fewer_params(self):
        for kind in KINDS:
            shared = make_model(kind=kind, common_embedding=True)
            split = make_model(kind=kind, common_embedding=False)
            assert (sum(p.values.size for _, p in shared.params.items())
                    < sum(p.values.size for _, p in split.params.items()))

    def test_separate_session_table_when_not_common(self):
        model = make_model(common_embedding=False)
        assert model.session_table is model.session_embedding
        assert model.session_table is not model.item_embedding

    def test_model_from_tensors_validates_shapes(self):
        cfg = encoders.ModelConfig(vocab_size=4, embedding_dim=4, max_session_length=4)
        arrays = encoders.init_arrays(cfg, seed=0)
        arrays["item_ff.w"] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            encoders.model_from_tensors(
                cfg, {k: ad.parameter(v) for k, v in arrays.items()})

    def test_model_from_tensors_validates_names(self):
        cfg = encoders.ModelConfig(vocab_size=4, embedding_dim=4, max_session_length=4)
        arrays = encoders.init_arrays(cfg, seed=0)
        del arrays["item_ff.b"]
        with pytest.raises(ValueError):
            encoders.model_from_tensors(
                cfg, {k: ad.parameter(v) for k, v in arrays.items()})


class TestEncode:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_norm(self, kind):
        model = make_model(kind=kind)
        for prefix in ([0], [1, 5, 3], [2, 2, 2, 7, 9, 4]):
            vec = encoders.encode_session(model, prefix)
            assert abs(np.linalg.norm(vec.values) - 1.0) < 1e-6
        items = encoders.encode_items(model, [3, 0, 3]).values
        np.testing.assert_allclose(np.linalg.norm(items, axis=1), 1.0, atol=1e-6)

    def test_prefix_length_validated(self):
        model = make_model()
        with pytest.raises(ValueError):
            encoders.encode_session(model, [])

    def test_single_item_maxpool_equals_avgpool(self):
        mx = make_model(kind="MaxPool", seed=9)
        av = make_model(kind="AvgPool", seed=9)
        for item in range(4):
            np.testing.assert_array_equal(
                encoders.encode_session(mx, [item]).values,
                encoders.encode_session(av, [item]).values)

    def test_maxpool_is_order_insensitive(self):
        model = make_model(kind="MaxPool")
        a = encoders.encode_session(model, [1, 4, 7]).values
        b = encoders.encode_session(model, [7, 1, 4]).values
        np.testing.assert_array_equal(a, b)

    def test_gru_is_order_sensitive(self):
        model = make_model(kind="GRU")
        a = encoders.encode_session(model, [1, 4, 7]).values
        b = encoders.encode_session(model, [7, 1, 4]).values
        assert not np.allclose(a, b)

    def test_textcnn_invariant_to_padding_amount(self):
        model = make_model(kind="TextCNN", max_session_length=12,
                           conv_filter_sizes=(1, 3))
        prefix = [3, 8, 1, 5]
        wide = encoders.encode_session(model, prefix).values.copy()
        model.config = dataclasses.replace(model.config, max_session_length=6)
        narrow = encoders.encode_session(model, prefix).values
        np.testing.assert_allclose(wide, narrow, atol=1e-6)

    def test_textcnn_handles_prefix_shorter_than_largest_filter(self):
        model = make_model(kind="TextCNN", max_session_length=6,
                           conv_filter_sizes=(1, 3, 5))
        vec = encoders.encode_session(model, [4])
        assert np.all(np.isfinite(vec.values))

    def test_unnormalized_outputs_when_disabled(self):
        model = make_model(normalize_outputs=False)
        norms = [np.linalg.norm(encoders.encode_session(model, [i, i + 1]).values)
                 for i in range(5)]
        assert any(abs(n - 1.0) > 1e-4 for n in norms)

    def test_matrix_rows_match_per_item_encoding(self):
        model = make_model(dim=6, vocab=20)
        matrix = encoders.item_embedding_matrix(model)
        assert matrix.shape == (20, 6)
        assert matrix.dtype == np.float32
        np.testing.assert_allclose(matrix, numpy_item_vectors(model, range(20)),
                                   atol=1e-6)

    @pytest.mark.parametrize("dim", [6, 8, 16, 64, 400])
    def test_matrix_rows_equal_training_encodings(self, dim, monkeypatch):
        # training encodes each batch's distinct candidates in one call; the
        # matrix row of an item must be that encoding bit for bit
        model = make_model(dim=dim, vocab=50, seed=dim)
        matrix = encoders.item_embedding_matrix(model)
        encoded = []
        encode_items = encoders.encode_items

        def spy(model, items, tape=None):
            vecs = encode_items(model, items, tape)
            encoded.append((list(items), vecs.values))
            return vecs

        monkeypatch.setattr(encoders, "encode_items", spy)
        rng = np.random.default_rng(dim)
        for _ in range(20):
            batch = []
            for _ in range(int(rng.integers(1, 9))):
                count = int(rng.integers(1, 9))
                items = rng.choice(50, size=2 * count, replace=False)
                batch.append(([int(rng.integers(0, 50))], items[:count], items[count:]))
            kind = ("Triplet", "NCAS")[len(encoded) % 2]
            losses.session_loss(ad.Tape(), model, make_examples(batch),
                                losses.LossConfig(kind=kind))
        assert len(encoded) == 20
        for items, vecs in encoded:
            np.testing.assert_array_equal(matrix[items], vecs)
        np.testing.assert_allclose(matrix, numpy_item_vectors(model, range(50)),
                                   atol=1e-6)

    def test_unnormalized_items_when_disabled(self):
        model = make_model(normalize_outputs=False)
        np.testing.assert_allclose(encoders.item_embedding_matrix(model),
                                   numpy_item_vectors(model, range(12)), atol=1e-6)

    def test_session_window_keeps_most_recent_items(self):
        # a prefix longer than the window encodes equal to its window
        for kind in KINDS:
            model = make_model(kind=kind, max_session_length=3,
                               conv_filter_sizes=(1, 2))
            long = encoders.encode_session(model, [9, 8, 7, 1, 2])
            np.testing.assert_array_equal(
                long.values, encoders.encode_session(model, [7, 1, 2]).values)

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_rows_match_one_prefix_at_a_time(self, kind):
        # lengths 1 to max_session_length + 3 in one batch, repeated items
        model = make_model(kind=kind, vocab=12, max_session_length=6, seed=5)
        rng = np.random.default_rng(8)
        prefixes = [[int(i) for i in rng.integers(0, 12, size=n)] for n in range(1, 10)]
        prefixes.append([3, 3, 3])
        batch = encoders.encode_sessions(model, padded(prefixes),
                                         np.array([len(p) for p in prefixes])).values
        assert batch.shape == (len(prefixes), 8)
        for row, prefix in zip(batch, prefixes):
            np.testing.assert_allclose(row, encoders.encode_session(model, prefix).values,
                                       rtol=0, atol=1e-6)

    def test_batch_rejects_an_empty_prefix(self):
        model = make_model()
        for prefixes in ([], [[1], []]):
            with pytest.raises(ValueError, match="empty"):
                encoders.encode_sessions(model, padded(prefixes),
                                         np.array([len(p) for p in prefixes], dtype=int))


class TestScore:
    def test_identical_vectors_score_one(self):
        vec = encoders.encode_session(make_model(), [3, 4])
        dist = float(ad.cosine_distance(None, vec, vec).values)
        assert abs((1.0 - dist) - 1.0) < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 10_000),
    prefix=st.lists(st.integers(0, 11), min_size=1, max_size=6),
)
def test_encodings_always_finite(kind, seed, prefix):
    model = make_model(kind=kind, seed=seed, dim=5)
    vec = encoders.encode_session(model, prefix)
    assert np.all(np.isfinite(vec.values))
    assert abs(np.linalg.norm(vec.values) - 1.0) < 1e-5


@pytest.mark.parametrize("kind", KINDS)
def test_session_encoder_gradients(kind):
    from conftest import encoder_loss_builder

    cfg = encoders.ModelConfig(vocab_size=9, embedding_dim=4, encoder_kind=kind,
                               max_session_length=5, conv_filter_sizes=(1, 2))

    def loss_fn(tape, model):
        vec = encoders.encode_session(model, [1, 7, 2], tape)
        target = ad.constant(np.arange(4, dtype=np.float64) / 4.0)
        return reduce_sum(tape, mul(tape, vec, target))

    params, build = encoder_loss_builder(cfg, loss_fn)
    assert grad_check(build, params) < 1e-3


@pytest.mark.parametrize("kind", KINDS)
def test_batch_session_encoder_gradients(kind):
    from conftest import encoder_loss_builder

    cfg = encoders.ModelConfig(vocab_size=9, embedding_dim=4, encoder_kind=kind,
                               max_session_length=5, conv_filter_sizes=(1, 2))
    target = ad.constant(np.arange(12, dtype=np.float64).reshape(3, 4) / 12.0 - 0.4)

    def loss_fn(tape, model):
        prefixes = [[1, 7, 2], [4], [8, 0, 3, 5, 6, 2]]
        vecs = encoders.encode_sessions(model, padded(prefixes),
                                        np.array([len(p) for p in prefixes]), tape)
        return reduce_sum(tape, mul(tape, vecs, target))

    params, build = encoder_loss_builder(cfg, loss_fn)
    assert grad_check(build, params) < 1e-3
