"""Sampler distributions, enumeration rules, and augmentation.

The array sampler in ``sml.sampling`` is checked against the per-session
sampler it replaced (``reference_sampler``): the same (window, positives)
pairs, the same cut-point and negative distributions, and a scalar walk
over the same draws.  ``TestSplitSession``, ``TestNegatives`` and
``TestSlidingWindow`` pin the reference itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sml import data, encoders, sampling

import reference_sampler as ref
from conftest import example_rows, make_examples, make_model, padded


def session_dataset(item_lists):
    rows = [(f"s{k}", [f"i{i}" for i in items], list(range(len(items))))
            for k, items in enumerate(item_lists)]
    return data.dataset_from_sessions(rows)


class TestSplitSession:
    def test_truncation_from_the_front_of_continuation(self):
        items = list(range(10))
        prefix, pos = ref.example_at_split(items, 3, 8)
        assert prefix == [0, 1, 2]
        assert pos == [3, 4, 5, 6, 7, 8, 9]
        assert len(pos) == 7

    def test_spp_caps_positives(self):
        _, pos = ref.example_at_split(list(range(10)), 2, 3)
        assert pos == [2, 3, 4]

    def test_split_bounds_validated(self):
        with pytest.raises(ValueError):
            ref.example_at_split([1, 2, 3], 0, 4)
        with pytest.raises(ValueError):
            ref.example_at_split([1, 2, 3], 3, 4)

    def test_split_point_distribution_uniform(self):
        rng = np.random.default_rng(123)
        items = list(range(10))
        counts = np.zeros(10, dtype=int)
        n = 10_000
        for _ in range(n):
            prefix, _ = ref.split_session(items, rng, 8)
            counts[len(prefix)] += 1
        p = 1.0 / 9.0
        sigma = np.sqrt(n * p * (1 - p))
        for split in range(1, 10):
            assert abs(counts[split] - n * p) <= 3 * sigma, split
        assert counts[0] == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=2, max_size=12),
           st.integers(1, 9), st.integers(0, 2 ** 31))
    def test_prefix_plus_positives_is_a_session_slice(self, items, spp, seed):
        rng = np.random.default_rng(seed)
        prefix, pos = ref.split_session(items, rng, spp)
        assert 1 <= len(prefix) <= len(items) - 1
        assert 1 <= len(pos) <= spp
        assert prefix + pos == items[:len(prefix) + len(pos)]


class TestNegatives:
    def test_excludes_and_no_duplicates(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            negs = ref.sample_negatives({1, 3, 5}, 12, 6, rng)
            assert len(negs) == len(set(negs)) == 6
            assert not set(negs) & {1, 3, 5}
            assert all(0 <= n < 12 for n in negs)

    def test_too_small_vocabulary(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ref.sample_negatives({0, 1}, 4, 3, rng)

    def test_exactly_exhausting_vocabulary(self):
        rng = np.random.default_rng(0)
        negs = ref.sample_negatives({0}, 4, 3, rng)
        assert sorted(negs) == [1, 2, 3]

    def test_uniform_over_eligible(self):
        rng = np.random.default_rng(7)
        vocab, excl = 100, set(range(10))
        counts = np.zeros(vocab, dtype=int)
        draws = 10_000
        per = 5
        for _ in range(draws):
            for n in ref.sample_negatives(excl, vocab, per, rng):
                counts[n] += 1
        assert counts[:10].sum() == 0
        total = draws * per
        p = 1.0 / 90.0
        sigma = np.sqrt(total * p * (1 - p))
        for i in range(10, vocab):
            assert abs(counts[i] - total * p) <= 3 * sigma, i

    def test_large_vocabulary_rejection_path(self):
        rng = np.random.default_rng(11)
        excl = set(range(0, 3000, 7))
        negs = ref.sample_negatives(excl, 50_000, 64, rng)
        assert len(negs) == len(set(negs)) == 64
        assert not set(negs) & excl
        rng2 = np.random.default_rng(11)
        assert negs == ref.sample_negatives(excl, 50_000, 64, rng2)


class TestSlidingWindow:
    def test_three_item_session_window_two(self):
        pairs = ref.sliding_window_examples([10, 11, 12], 2, 1)
        assert pairs == [([10], [11]), ([10, 11], [12])]

    def test_window_caps_prefix(self):
        pairs = ref.sliding_window_examples(list(range(6)), 2, 8)
        assert pairs[-1][0] == [3, 4]
        assert pairs[-1][1] == [5]

    def test_minimum_session_single_example(self):
        assert len(ref.sliding_window_examples([5, 9], 4, 8)) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=2, max_size=10),
           st.integers(1, 12))
    def test_one_example_per_cut(self, items, window):
        pairs = ref.sliding_window_examples(items, window, 8)
        assert len(pairs) == len(items) - 1
        for split, (prefix, pos) in enumerate(pairs, start=1):
            assert prefix == items[max(0, split - window):split]
            assert pos == items[split:split + 8]
            assert 1 <= len(prefix) <= window


def item_matrix(vocab, dim, seed=0):
    return encoders.item_embedding_matrix(make_model(vocab=vocab, dim=dim, seed=seed))


class TestKnnAugment:
    def test_brute_force_three_item_vocab(self):
        matrix = item_matrix(vocab=3, dim=4, seed=1)
        dists = 1.0 - matrix @ matrix[0]
        nearer = min((d, i) for i, d in enumerate(dists) if i != 0)[1]
        extra = sampling.knn_augment_positives([], [0], matrix, k=3, needed=2)
        assert extra == [nearer]

    def test_never_prefix_or_existing(self):
        prefix, positives = [1, 2, 3], [4, 5]
        extra = sampling.knn_augment_positives(
            prefix, positives, item_matrix(vocab=12, dim=4, seed=2), k=12, needed=8)
        assert not set(extra) & set(prefix)
        assert not set(extra) & set(positives)
        assert len(extra) == len(set(extra)) == 6

    def test_candidates_can_run_out(self):
        extra = sampling.knn_augment_positives(
            [0, 1], [2], item_matrix(vocab=4, dim=4), k=4, needed=8)
        assert extra == [3]

    def test_noop_when_enough(self):
        assert sampling.knn_augment_positives(
            [0], [1, 2], item_matrix(vocab=6, dim=4), 3, needed=2) == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_matches_brute_force_with_ties(self, vocab, draw):
        # rows on a coarse grid make many distances tie exactly
        rows = draw.draw(st.lists(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                                           min_size=3, max_size=3),
                                  min_size=vocab, max_size=vocab))
        matrix = np.array(rows, dtype=np.float32)
        items = st.integers(0, vocab - 1)
        positives = draw.draw(st.lists(items, min_size=1, max_size=4))
        prefix = draw.draw(st.lists(items, max_size=4))
        k = draw.draw(st.integers(1, vocab + 2))
        needed = draw.draw(st.integers(1, vocab + 2))
        got = sampling.knn_augment_positives(prefix, positives, matrix, k, needed)
        assert got == brute_force_knn_augment(prefix, positives, matrix, k, needed)


def brute_force_knn_augment(prefix, positives, matrix, k, needed):
    """Each positive's k nearest allowed items by a full sort, then every
    candidate by its closest positive; ties to the lower index throughout."""
    banned = set(prefix) | set(positives)
    best = {}
    for p in positives:
        dists = [float(d) for d in 1.0 - matrix @ matrix[p]]
        allowed = sorted((d, i) for i, d in enumerate(dists) if i not in banned)
        for d, i in allowed[:k]:
            best[i] = min(d, best.get(i, d))
    ranked = sorted((d, i) for i, d in best.items())
    return [i for _, i in ranked[:max(0, needed - len(positives))]]


class TestBuildEpoch:
    def _train(self):
        return session_dataset([
            [0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 1, 3], [2, 9], [5, 0, 8],
        ])

    def test_one_example_per_session(self):
        train = self._train()
        cfg = sampling.SamplerConfig(rng_seed=5)
        examples = sampling.build_epoch(train, cfg, epoch=0)
        assert len(examples) == len(train.sessions)

    def test_deterministic_per_epoch(self):
        train = self._train()
        cfg = sampling.SamplerConfig(rng_seed=5)
        a = sampling.build_epoch(train, cfg, epoch=3)
        b = sampling.build_epoch(train, cfg, epoch=3)
        assert same_arrays(a, b)

    def test_resampled_across_epochs(self):
        train = self._train()
        cfg = sampling.SamplerConfig(rng_seed=5)
        a = sampling.build_epoch(train, cfg, epoch=0)
        b = sampling.build_epoch(train, cfg, epoch=1)
        assert not same_arrays(a, b)

    def test_sliding_window_counts(self):
        train = self._train()
        cfg = sampling.SamplerConfig(strategy="sliding_window", window_size=2,
                                     rng_seed=1)
        examples = sampling.build_epoch(train, cfg, epoch=0)
        assert len(examples) == sum(len(s) - 1 for s in train.sessions)

    def test_examples_satisfy_contract(self):
        train = self._train()
        for strategy in sampling.STRATEGIES:
            cfg = sampling.SamplerConfig(strategy=strategy, rng_seed=2,
                                         samples_per_session=2)
            for _, positives, negatives in example_rows(
                    sampling.build_epoch(train, cfg, epoch=0)):
                assert not set(positives) & set(negatives)
                assert len(positives) == len(negatives)

    def test_exclude_prefix_negatives_flag(self):
        train = session_dataset([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]] * 10)
        cfg = sampling.SamplerConfig(exclude_prefix_negatives=True, rng_seed=0)
        for epoch in range(20):
            for prefix, _, negatives in example_rows(
                    sampling.build_epoch(train, cfg, epoch=epoch)):
                assert not set(negatives) & set(prefix)

    @pytest.mark.parametrize("exclude_prefix", [False, True])
    @pytest.mark.parametrize("strategy", sampling.STRATEGIES)
    def test_small_vocabulary_keeps_nearest_positives(self, strategy, exclude_prefix):
        # 8 distinct items a session, 12 in the vocabulary: 7 positives
        # cannot each get their own negative
        train = session_dataset([[(k + j) % 12 for j in range(8)] for k in range(12)])
        cfg = sampling.SamplerConfig(strategy=strategy, samples_per_session=8,
                                     window_size=8, rng_seed=0,
                                     exclude_prefix_negatives=exclude_prefix)
        for epoch in range(5):
            for prefix, positives, negatives in example_rows(
                    sampling.build_epoch(train, cfg, epoch=epoch)):
                start = prefix[-1] + 1
                assert positives == [(start + j) % 12 for j in range(len(positives))]
                assert len(set(negatives)) == len(negatives)
                assert not set(negatives) & set(positives)
                if exclude_prefix:
                    assert not set(negatives) & set(prefix)

    def test_knn_augment_tops_up(self):
        train = session_dataset([[0, 1, 2], [1, 3, 0], [2, 0, 3], [3, 1, 2]])
        model = make_model(vocab=4, dim=4)
        cfg = sampling.SamplerConfig(knn_augment=True, knn_k=4,
                                     samples_per_session=2, rng_seed=0)
        examples = sampling.build_epoch(train, cfg, epoch=0, model=model)
        for _, positives, _ in example_rows(examples):
            # vocab of 4 always leaves room to reach two positives here
            assert len(positives) == 2

    def test_negative_seed_rejected(self):
        # numpy's generators take no negative seed; say which setting is wrong
        with pytest.raises(ValueError, match="rng_seed"):
            sampling.SamplerConfig(rng_seed=-1)

    def test_knn_augment_requires_model(self):
        train = self._train()
        cfg = sampling.SamplerConfig(knn_augment=True)
        with pytest.raises(ValueError):
            sampling.build_epoch(train, cfg, epoch=0)

    def test_training_example_validation(self):
        with pytest.raises(ValueError, match="empty"):
            make_examples([([], [1], [2])])
        with pytest.raises(ValueError, match="positive"):
            make_examples([([0], [], [])])
        with pytest.raises(ValueError):
            make_examples([([0], [1, 2], [3])])
        with pytest.raises(ValueError, match="paired"):
            sampling.Examples(padded([[0]]), np.array([1]), padded([[1, 2]]),
                              padded([[3, -1]]))
        block = make_examples([([0, 1], [2], [3]), ([4], [5, 6], [7, 8])])
        assert len(block) == 2 and len(block[1:]) == 1
        assert example_rows(block[1:]) == [([4], [5, 6], [7, 8])]


def same_arrays(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("prefixes", "lengths", "positives", "negatives"))


def scalar_walk(draws, excluded, count):
    """The first ``count`` draws, in order, that are neither excluded nor
    drawn before."""
    seen, out = {int(i) for i in excluded if i >= 0}, []
    for item in draws:
        if int(item) not in seen:
            seen.add(int(item))
            out.append(int(item))
    return out[:count]


def chi_square_homogeneous(a, b, z=3.09):
    """Two-sample chi-square test of equal category frequencies; True when
    the statistic stays below the upper 0.001 quantile of its distribution
    (Wilson-Hilferty approximation)."""
    table = np.array([a, b], dtype=float)
    table = table[:, table.sum(axis=0) > 0]
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    df = table.shape[1] - 1
    bound = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
    return stat < bound, (stat, bound)


sessions_strategy = st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=10),
                             min_size=1, max_size=5)


def trainable(train, cfg):
    try:
        sampling.check_negatives(train, cfg)
    except data.DataError:
        return False
    return True


class TestArraySampler:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_negative_selection_matches_a_scalar_walk(self, draw):
        rows = draw.draw(st.integers(1, 6))
        vocab = draw.draw(st.integers(1, 12))
        width = draw.draw(st.integers(1, 16))
        n_excluded = draw.draw(st.integers(0, 6))
        draws = np.array(draw.draw(st.lists(
            st.lists(st.integers(0, vocab - 1), min_size=width, max_size=width),
            min_size=rows, max_size=rows)))
        excluded = np.array(draw.draw(st.lists(
            st.lists(st.integers(-1, vocab - 1), min_size=n_excluded, max_size=n_excluded),
            min_size=rows, max_size=rows)), dtype=int).reshape(rows, n_excluded)
        count = np.array(draw.draw(st.lists(st.integers(1, 4), min_size=rows,
                                            max_size=rows)))
        picked, done = sampling.first_unseen(draws, excluded, count)
        assert picked.shape == (rows, count.max())
        for i in range(rows):
            want = scalar_walk(draws[i], excluded[i], count[i])
            assert done[i] == (len(want) == count[i])
            assert picked[i].tolist() == want + [-1] * (count.max() - len(want))

    def test_cut_points_match_the_reference_sampler(self):
        # two sessions of each length 2..8; a cut's category is (session, prefix length)
        train = session_dataset([[(3 * k + j) % 40 for j in range(n)]
                                 for k, n in enumerate(list(range(2, 9)) * 2)])
        cfg = sampling.SamplerConfig(rng_seed=7)
        new, old = {}, {}
        for epoch in range(300):
            for prefix, _, _ in example_rows(sampling.build_epoch(train, cfg, epoch)):
                new[prefix[0], len(prefix)] = new.get((prefix[0], len(prefix)), 0) + 1
            for prefix, _, _ in ref.build_epoch(train, cfg, epoch):
                old[prefix[0], len(prefix)] = old.get((prefix[0], len(prefix)), 0) + 1
        for (first, length) in new:
            session = next(s for s in train.sessions if s.items[0] == first)
            assert 1 <= length <= len(session) - 1
        keys = sorted(set(new) | set(old))
        ok, detail = chi_square_homogeneous([new.get(k, 0) for k in keys],
                                            [old.get(k, 0) for k in keys])
        assert ok, detail

    @pytest.mark.parametrize("exclude_prefix", [False, True])
    def test_negatives_match_the_reference_sampler(self, exclude_prefix):
        # a small vocabulary, so the exclusions matter; sessions start on
        # distinct items, so a row's first prefix item names its session
        vocab = 12
        train = session_dataset([[(k + 5 * j) % vocab for j in range(2 + k % 5)]
                                 for k in range(vocab)])
        cfg = sampling.SamplerConfig(samples_per_session=3, rng_seed=11,
                                     exclude_prefix_negatives=exclude_prefix)
        new = np.zeros((vocab, vocab), dtype=int)
        old = np.zeros((vocab, vocab), dtype=int)
        for epoch in range(400):
            for prefix, _, negatives in example_rows(sampling.build_epoch(train, cfg, epoch)):
                np.add.at(new[prefix[0]], negatives, 1)
            for prefix, _, negatives in ref.build_epoch(train, cfg, epoch):
                np.add.at(old[prefix[0]], negatives, 1)
        ok, detail = chi_square_homogeneous(new.ravel(), old.ravel())
        assert ok, detail

    @settings(max_examples=60, deadline=None)
    @given(sessions_strategy, st.integers(1, 12), st.integers(1, 9), st.booleans(),
           st.booleans())
    def test_sliding_window_pairs_match_the_reference(self, sessions, window, spp,
                                                      exclude_prefix, knn):
        train = session_dataset(sessions)
        model = make_model(vocab=len(train.vocab), dim=4) if knn else None
        cfg = sampling.SamplerConfig(strategy="sliding_window", window_size=window,
                                     samples_per_session=spp, knn_augment=knn, knn_k=3,
                                     exclude_prefix_negatives=exclude_prefix)
        if not trainable(train, cfg):
            # the check is exact: some window leaves no negative to draw
            with pytest.raises(ValueError):
                sampling.build_epoch(train, cfg, 0, model)
            return
        got = sorted((tuple(p), tuple(q))
                     for p, q, _ in example_rows(sampling.build_epoch(train, cfg, 0, model)))
        want = sorted((tuple(p), tuple(q))
                      for p, q, _ in ref.build_epoch(train, cfg, 0, model))
        assert got == want
        if len(train.vocab) > 2 * (window + spp) and not knn:
            # no positive was dropped: the pairs of every cut, as enumerated
            pairs = [(tuple(p), tuple(q)) for s in train.sessions
                     for p, q in ref.sliding_window_examples(s.items, window, spp)]
            assert got == sorted(pairs)

    @settings(max_examples=60, deadline=None)
    @given(sessions_strategy, st.integers(1, 9), st.integers(0, 2 ** 31),
           st.sampled_from(sampling.STRATEGIES), st.booleans())
    def test_rows_are_session_slices_with_clean_negatives(self, sessions, spp, seed,
                                                          strategy, exclude_prefix):
        train = session_dataset(sessions)
        cfg = sampling.SamplerConfig(strategy=strategy, samples_per_session=spp,
                                     window_size=3, rng_seed=seed,
                                     exclude_prefix_negatives=exclude_prefix)
        if not trainable(train, cfg):
            return
        examples = sampling.build_epoch(train, cfg, epoch=seed % 5)
        vocab = len(train.vocab)
        for prefix, positives, negatives in example_rows(examples):
            # every cut lies in [1, len-1]: the prefix and positives are a
            # run of one session
            run = prefix + positives
            assert any(run == s.items[start:start + len(run)] for s in train.sessions
                       for start in ([0] if strategy == "posneg"
                                     else range(len(s.items) - len(prefix))))
            assert 1 <= len(positives) <= spp
            assert len(negatives) == len(set(negatives)) == len(positives)
            assert all(0 <= i < vocab for i in negatives)
            assert not set(negatives) & set(positives)
            if exclude_prefix:
                assert not set(negatives) & set(prefix)

    def test_same_epoch_same_arrays_other_epoch_other_arrays(self):
        train = session_dataset([[k % 7, (k + 1) % 7, (k + 3) % 7] for k in range(20)])
        for strategy in sampling.STRATEGIES:
            cfg = sampling.SamplerConfig(strategy=strategy, rng_seed=9)
            a, b, c = (sampling.build_epoch(train, cfg, epoch) for epoch in (4, 4, 5))
            assert same_arrays(a, b)
            assert not same_arrays(a, c)

    def test_tiny_vocabularies_fail_the_check(self):
        one_item = session_dataset([[0, 0], [0, 0, 0]])
        with pytest.raises(data.DataError, match="at least two"):
            sampling.check_negatives(one_item, sampling.SamplerConfig())
        two_items = session_dataset([[0, 1], [1, 0], [0, 1, 0]])
        sampling.check_negatives(two_items, sampling.SamplerConfig())
        with pytest.raises(data.DataError, match="exclude_prefix_negatives"):
            sampling.check_negatives(two_items,
                                     sampling.SamplerConfig(exclude_prefix_negatives=True))
