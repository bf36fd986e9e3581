"""Retrieval index and the binary model container."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sml import data, encoders, index
from conftest import make_model, numpy_item_vectors


def make_vocab(size):
    vocab = data.ItemVocab()
    for i in range(size):
        vocab.add(f"i{i}")
    vocab.counts = [1] * size
    return vocab


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([np.int64, np.float32, np.float64]),
           st.lists(st.integers(-3, 3), max_size=40), st.data())
    def test_matches_stable_argsort(self, dtype, values, draw):
        # seven distinct values over up to 40 entries force ties
        scores = np.array(values, dtype=dtype)
        k = draw.draw(st.integers(0, len(values) + 2))
        want = np.argsort(-scores, kind="stable")[:k]
        got = index.top_k(scores, k)
        assert got.tolist() == want.tolist()

    def test_ties_across_the_cut_go_to_the_lower_position(self):
        assert index.top_k([1.0, 2.0, 1.0, 2.0, 1.0], 3).tolist() == [1, 3, 0]

    def test_extreme_integers_are_not_negated(self):
        low = np.iinfo(np.int64).min
        assert index.top_k(np.array([low, 0, low], dtype=np.int64), 3).tolist() == [1, 0, 2]
        assert index.top_k(np.array([0, 255, 1], dtype=np.uint8), 2).tolist() == [1, 2]


class TestItemIndex:
    def test_rows_are_unit_norm(self):
        idx = index.ItemIndex.from_model(make_model(vocab=20, dim=8, seed=1))
        norms = np.linalg.norm(idx.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_matches_per_item_scoring(self):
        model = make_model(vocab=30, dim=8, seed=4)
        idx = index.ItemIndex.from_model(model)
        prefix = [3, 17, 5]
        query = encoders.encode_session(model, prefix).values
        sims = idx.scores(query)
        want = numpy_item_vectors(model, range(30)) @ query.astype(np.float64)
        np.testing.assert_allclose(sims, want, atol=1e-6)

    def test_scores_stay_in_band(self):
        model = make_model(vocab=30, dim=8, seed=4)
        idx = index.ItemIndex.from_model(model)
        query = encoders.encode_session(model, [7]).values
        sims = idx.scores(query)
        assert np.all(sims >= -1.0 - 1e-6) and np.all(sims <= 1.0 + 1e-6)

    def test_topn_agrees_with_exhaustive_sort(self):
        model = make_model(vocab=40, dim=8, seed=9)
        idx = index.ItemIndex.from_model(model)
        query = encoders.encode_session(model, [1, 2]).values
        sims = idx.scores(query)
        want = sorted(range(40), key=lambda i: (-sims[i], i))[:10]
        got = idx.topn(query, 10)
        assert [item for item, _ in got] == want
        for item, score in got:
            assert score == float(sims[item])

    def test_identical_rows_tie_on_ascending_index(self):
        row = np.array([0.6, 0.8], dtype=np.float32)
        vectors = np.stack([row, -row, row, row])
        idx = index.ItemIndex(vectors)
        assert [i for i, _ in idx.topn(row, 4)] == [0, 2, 3, 1]

    def test_query_matching_a_row_ranks_it_first_with_score_one(self):
        model = make_model(vocab=15, dim=8, seed=3)
        idx = index.ItemIndex.from_model(model)
        item, score = idx.topn(idx.vectors[6], 1)[0]
        assert item == 6
        assert score == pytest.approx(1.0, abs=1e-5)

    def test_n_beyond_vocab_returns_everything(self):
        idx = index.ItemIndex(np.eye(3, dtype=np.float32))
        assert len(idx.topn(np.ones(3, dtype=np.float32), 50)) == 3

    def test_single_item_index(self):
        model = make_model(vocab=1, dim=4)
        idx = index.ItemIndex.from_model(model)
        assert idx.vectors.shape == (1, 4)
        assert np.array_equal(idx.vectors, encoders.encode_items(model, [0]).values)
        np.testing.assert_allclose(idx.vectors, numpy_item_vectors(model, [0]), atol=1e-6)

    def test_rejects_bad_query_shape(self):
        idx = index.ItemIndex(np.eye(3, dtype=np.float32))
        with pytest.raises(ValueError):
            idx.scores(np.ones(4, dtype=np.float32))

    def test_rejects_nonpositive_n(self):
        idx = index.ItemIndex(np.eye(3, dtype=np.float32))
        with pytest.raises(ValueError):
            idx.topn(np.ones(3, dtype=np.float32), 0)


class TestSmlRecommender:
    def test_returns_distinct_items(self):
        model = make_model(vocab=25, dim=8)
        rec = index.SmlRecommender.from_model(model)
        out = rec.recommend([1, 2, 3], 10)
        assert len(out) == 10
        assert len(set(out)) == 10

    def test_long_prefix_keeps_most_recent_window(self):
        model = make_model(vocab=25, dim=8, max_session_length=4)
        rec = index.SmlRecommender.from_model(model)
        long = [9, 8, 7, 1, 2, 3, 4]
        assert rec.recommend(long, 5) == rec.recommend([1, 2, 3, 4], 5)

    def test_scored_variant_matches_plain(self):
        model = make_model(vocab=25, dim=8)
        rec = index.SmlRecommender.from_model(model)
        scored = rec.recommend_scored([4, 2], 6)
        assert [i for i, _ in scored] == rec.recommend([4, 2], 6)
        assert all(b[1] <= a[1] + 1e-12 for a, b in zip(scored, scored[1:]))

    def test_empty_prefix_rejected(self):
        model = make_model(vocab=25, dim=8)
        rec = index.SmlRecommender.from_model(model)
        with pytest.raises(ValueError):
            rec.recommend([], 5)


class TestSaveLoad:
    def _model_and_vocab(self, tmp_path, **overrides):
        model = make_model(vocab=12, dim=8, seed=2, **overrides)
        vocab = make_vocab(12)
        path = str(tmp_path / "model.bin")
        index.save_model(model, vocab, path)
        return model, vocab, path

    @pytest.mark.parametrize("kind", ["MaxPool", "AvgPool", "GRU", "TextCNN"])
    def test_round_trip_is_bit_exact(self, tmp_path, kind):
        overrides = {"conv_filter_sizes": (1, 2)} if kind == "TextCNN" else {}
        model, _, path = self._model_and_vocab(tmp_path, kind=kind, **overrides)
        loaded, vocab2 = index.load_model(path)
        assert loaded.config == model.config
        assert vocab2.ids == [f"i{i}" for i in range(12)]
        for name, tensor in model.params.items():
            got = loaded.params[name]
            assert got.values.dtype == np.float32
            assert np.array_equal(got.values, tensor.values)
        before = encoders.encode_session(model, [0, 3, 5]).values
        after = encoders.encode_session(loaded, [0, 3, 5]).values
        assert np.array_equal(before, after)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model, vocab, path = self._model_and_vocab(tmp_path)
        first = open(path, "rb").read()
        loaded, vocab2 = index.load_model(path)
        assert index.model_to_bytes(loaded, vocab2) == first

    def test_loaded_parameters_keep_training_flags(self, tmp_path):
        _, _, path = self._model_and_vocab(tmp_path)
        loaded, _ = index.load_model(path)
        assert all(t.requires_grad for _, t in loaded.params.items())

    def test_vocab_size_mismatch_rejected(self, tmp_path):
        model = make_model(vocab=12, dim=8)
        with pytest.raises(ValueError):
            index.save_model(model, make_vocab(11), str(tmp_path / "m.bin"))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(index.ModelFormatError, match="magic"):
            index.load_model(str(path))

    def test_unsupported_version(self, tmp_path):
        _, _, path = self._model_and_vocab(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = (99).to_bytes(4, "little")
        open(path, "wb").write(bytes(blob))
        with pytest.raises(index.ModelFormatError, match="version"):
            index.load_model(path)

    def test_truncated_file(self, tmp_path):
        _, _, path = self._model_and_vocab(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(index.ModelFormatError, match="truncated"):
            index.load_model(path)

    def test_trailing_garbage(self, tmp_path):
        _, _, path = self._model_and_vocab(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00")
        with pytest.raises(index.ModelFormatError, match="trailing"):
            index.load_model(path)

    def test_header_corruption(self, tmp_path):
        _, _, path = self._model_and_vocab(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[17] ^= 0xFF  # inside the JSON header
        open(path, "wb").write(bytes(blob))
        with pytest.raises(index.ModelFormatError):
            index.load_model(path)

    def test_format_error_is_a_data_error(self):
        assert issubclass(index.ModelFormatError, data.DataError)

    def test_saved_recommender_scores_identically(self, tmp_path):
        model, _, path = self._model_and_vocab(tmp_path)
        loaded, _ = index.load_model(path)
        a = index.SmlRecommender.from_model(model)
        b = index.SmlRecommender.from_model(loaded)
        for prefix in ([0], [5, 2], [1, 1, 4]):
            assert a.recommend_scored(prefix, 12) == b.recommend_scored(prefix, 12)


# ---------------------------------------------------------------------------
# damaged model files: a load either fails with ModelFormatError or yields a
# model that serves
# ---------------------------------------------------------------------------

FUZZ_VOCAB = 6


def _fuzz_blob():
    model = make_model(vocab=FUZZ_VOCAB, dim=4, seed=2)
    return index.model_to_bytes(model, make_vocab(FUZZ_VOCAB))


FUZZ_BLOB = _fuzz_blob()
HEADER_START = 16  # magic, version, header length


def _split_header(blob):
    length = int.from_bytes(blob[8:HEADER_START], "little")
    header = json.loads(blob[HEADER_START:HEADER_START + length])
    return blob[:8], header, blob[HEADER_START + length:]


def _join_header(head, header, rest):
    raw = json.dumps(header).encode("utf-8")
    return head + len(raw).to_bytes(8, "little") + raw + rest


def _load_or_format_error(blob):
    try:
        model, vocab = index.model_from_bytes(blob)
    except index.ModelFormatError:
        return
    rec = index.SmlRecommender.from_model(model)
    with np.errstate(all="ignore"):  # finite but extreme weights may overflow
        ranked = rec.recommend([0], FUZZ_VOCAB)
    assert len({vocab.ids[i] for i in ranked}) == FUZZ_VOCAB


def _leaf_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2 ** 40) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


class TestDamagedModelFiles:
    def test_nan_tensor_rejected(self, tmp_path):
        model = make_model(vocab=FUZZ_VOCAB, dim=4, seed=2)
        model.params["item_ff.w"].values[1, 2] = np.nan
        path = str(tmp_path / "nan.bin")
        index.save_model(model, make_vocab(FUZZ_VOCAB), path)
        with pytest.raises(index.ModelFormatError, match="non-finite"):
            index.load_model(path)

    def test_inf_tensor_rejected(self):
        model = make_model(vocab=FUZZ_VOCAB, dim=4, seed=2)
        model.params["item_embedding"].values[0, 0] = -np.inf
        with pytest.raises(index.ModelFormatError, match="non-finite"):
            index.model_from_bytes(index.model_to_bytes(model, make_vocab(FUZZ_VOCAB)))

    def test_vocabulary_size_must_match_config(self):
        head, header, rest = _split_header(FUZZ_BLOB)
        header["vocab"]["ids"].pop()
        header["vocab"]["counts"].pop()
        with pytest.raises(index.ModelFormatError, match="vocabulary"):
            index.model_from_bytes(_join_header(head, header, rest))

    def test_huge_feed_forward_depth_rejected(self):
        # listing 2**40 layer names exhausted memory before any check ran
        head, header, rest = _split_header(FUZZ_BLOB)
        header["config"]["session_ff_depth"] = 2 ** 40
        with pytest.raises(index.ModelFormatError, match="session_ff_depth"):
            index.model_from_bytes(_join_header(head, header, rest))

    def test_non_string_ids_rejected(self):
        head, header, rest = _split_header(FUZZ_BLOB)
        header["vocab"]["ids"][0] = 7
        with pytest.raises(index.ModelFormatError):
            index.model_from_bytes(_join_header(head, header, rest))

    def test_unedited_header_round_trips(self):
        head, header, rest = _split_header(FUZZ_BLOB)
        model, vocab = index.model_from_bytes(_join_header(head, header, rest))
        assert index.model_to_bytes(model, vocab) == FUZZ_BLOB

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, len(FUZZ_BLOB) - 1))
    def test_truncation(self, cut):
        with pytest.raises(index.ModelFormatError):
            index.model_from_bytes(FUZZ_BLOB[:cut])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 8 * len(FUZZ_BLOB) - 1), min_size=1, max_size=4))
    def test_bit_flips(self, bits):
        blob = bytearray(FUZZ_BLOB)
        for bit in bits:
            blob[bit // 8] ^= 1 << (bit % 8)
        _load_or_format_error(bytes(blob))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_header_edits(self, data_):
        head, header, rest = _split_header(FUZZ_BLOB)
        paths = list(_leaf_paths(header))
        path = data_.draw(st.sampled_from(paths[1:]))
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        if data_.draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data_.draw(JSON_VALUES)
        _load_or_format_error(_join_header(head, header, rest))
