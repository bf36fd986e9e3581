"""Baseline recommenders against a corpus small enough to rank by hand."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sml import baselines, data


def make_dataset(item_lists, vocab_size=None):
    size = vocab_size if vocab_size is not None else max(max(s) for s in item_lists) + 1
    vocab = data.ItemVocab()
    for i in range(size):
        vocab.add(f"i{i}")
    counts = Counter(it for s in item_lists for it in s)
    vocab.counts = [counts.get(i, 0) for i in range(size)]
    sessions = [data.Session(f"s{k}", list(s), list(range(len(s))))
                for k, s in enumerate(item_lists)]
    return data.Dataset(sessions, vocab)


# The five training sessions used throughout this file.  Event counts:
#   item   0  1  2  3  4  5  6  7
#   count  2  2  3  3  2  2  1  0
# so popularity order is [2, 3, 0, 1, 4, 5, 6, 7].
CORPUS = [
    [0, 1, 2],
    [1, 2, 3],
    [2, 3, 0, 3],
    [4, 5],
    [5, 4, 6],
]


@pytest.fixture(scope="module")
def train():
    return make_dataset(CORPUS, vocab_size=8)


class TestPop:
    def test_counts_are_event_counts(self, train):
        model = baselines.fit_pop(train)
        assert model.counts == [2, 2, 3, 3, 2, 2, 1, 0]

    def test_order_breaks_ties_on_index(self, train):
        model = baselines.fit_pop(train)
        assert model.order == [2, 3, 0, 1, 4, 5, 6, 7]

    def test_recommend_ignores_prefix(self, train):
        model = baselines.fit_pop(train)
        assert model.recommend([4, 5], 4) == model.recommend([0], 4) == [2, 3, 0, 1]

    def test_n_larger_than_vocab(self, train):
        model = baselines.fit_pop(train)
        assert model.recommend([0], 50) == [2, 3, 0, 1, 4, 5, 6, 7]

    def test_rejects_nonpositive_n(self, train):
        model = baselines.fit_pop(train)
        with pytest.raises(ValueError):
            model.recommend([0], 0)


class TestSPop:
    def test_session_counts_beat_popularity(self, train):
        model = baselines.fit_spop(train)
        # 3 occurs twice in the prefix, 0 once; the rest is backfill.
        assert model.recommend([3, 0, 3], 4) == [3, 0, 2, 1]

    def test_tie_goes_to_more_recent(self, train):
        model = baselines.fit_spop(train)
        assert model.recommend([1, 2], 4) == [2, 1, 3, 0]
        assert model.recommend([2, 1], 4) == [1, 2, 3, 0]

    def test_backfill_skips_session_items(self, train):
        model = baselines.fit_spop(train)
        out = model.recommend([6], 8)
        assert out == [6, 2, 3, 0, 1, 4, 5, 7]

    def test_no_duplicates(self, train):
        model = baselines.fit_spop(train)
        out = model.recommend([5, 5, 4, 5], 8)
        assert len(out) == len(set(out)) == 8


class TestMarkov:
    def test_transition_counts(self, train):
        model = baselines.fit_markov(train)
        assert model.transitions[1] == Counter({2: 2})
        assert model.transitions[0] == Counter({1: 1, 3: 1})
        assert model.transitions[4] == Counter({5: 1, 6: 1})
        assert 6 not in model.transitions  # only ever last in a session

    def test_successors_then_popularity(self, train):
        model = baselines.fit_markov(train)
        # successors of 0 tie at one observation each -> ascending index.
        assert model.recommend([2, 0], 4) == [1, 3, 2, 0]

    def test_only_last_item_matters(self, train):
        model = baselines.fit_markov(train)
        assert model.recommend([4, 4, 4, 1], 3) == model.recommend([1], 3) == [2, 3, 0]

    def test_unseen_last_item_falls_back_to_pop(self, train):
        model = baselines.fit_markov(train)
        assert model.recommend([7], 4) == [2, 3, 0, 1]


class TestSknn:
    def test_hand_ranked_neighbours(self, train):
        model = baselines.fit_sknn(train, k=2)
        # prefix {0,1}: S0 sim 2/sqrt(6); S1 and S2 tie at 1/sqrt(6) and the
        # earlier session S1 wins the second neighbour slot.  Items of
        # S0+S1 then rank 1,2 (both in two neighbours) ahead of 0, then 3.
        assert model.recommend([0, 1], 6) == [1, 2, 0, 3, 4, 5]

    def test_order_of_prefix_is_irrelevant(self, train):
        model = baselines.fit_sknn(train, k=2)
        assert model.recommend([1, 0], 4) == model.recommend([0, 1], 4)

    def test_no_overlap_means_pure_popularity(self, train):
        model = baselines.fit_sknn(train, k=2)
        assert model.recommend([7], 4) == [2, 3, 0, 1]

    def test_k_must_be_positive(self, train):
        with pytest.raises(ValueError):
            baselines.fit_sknn(train, k=0)

    def test_similarity_matches_brute_force(self, train):
        model = baselines.fit_sknn(train, k=3)
        prefix = [2, 3]
        want = brute_force_sknn(CORPUS, prefix, k=3)
        positions, sims = model.neighbours({2: 1.0, 3: 1.0})
        assert dict(zip(positions.tolist(), sims.tolist())) == want


def fit_vsknn(train, k):
    return baselines.fit_sknn(train, k=k,
                              position_weight=baselines.linear_position_weight)


class TestVSknn:
    def test_recency_changes_the_ranking(self, train):
        model = fit_vsknn(train, k=2)
        # ending on item 0 pulls S2 into the neighbourhood ahead of S1.
        assert model.recommend([1, 0], 4) == [0, 2, 1, 3]
        assert model.recommend([0, 1], 4) == [1, 2, 0, 3]

    def test_constant_weights_degenerate_to_sknn(self, train):
        model = baselines.fit_sknn(train, k=3)
        const_model = baselines.fit_sknn(
            train, k=3, position_weight=baselines.constant_position_weight)
        for prefix in all_prefixes(CORPUS):
            assert model.recommend(prefix, 5) == const_model.recommend(prefix, 5)

    def test_repeated_item_keeps_its_latest_weight(self, train):
        model = fit_vsknn(train, k=5)
        # in [0, 3, 0] item 0 sits at positions 1 and 3 -> weight 1, not 1/3.
        got = model.recommend([0, 3, 0], 8)
        want = brute_force_vsknn(CORPUS, [0, 3, 0], k=5,
                                 pop_order=[2, 3, 0, 1, 4, 5, 6, 7], n=8)
        assert got == want

    def test_adapter_exposes_recommend(self, train):
        # VSKNN is an SknnModel whose weights favour recent prefix items
        model = fit_vsknn(train, k=2)
        assert isinstance(model, baselines.SknnModel)
        plain = baselines.fit_sknn(train, k=2)
        assert model.recommend([1, 0], 4) != plain.recommend([1, 0], 4)


# ---------------------------------------------------------------------------
# brute-force cross-checks (no inverted index, no early candidate pruning)
# ---------------------------------------------------------------------------

def all_prefixes(corpus):
    out = []
    for sess in corpus:
        out += [sess[:i] for i in range(1, len(sess) + 1)]
    return out


def brute_force_sknn(corpus, prefix, k):
    # cosine = overlap over the product of the two set norms, rounded as the
    # model rounds it, so tied item votes compare exactly
    query = set(prefix)
    sims = {}
    for pos, sess in enumerate(corpus):
        overlap = len(query & set(sess))
        if overlap:
            sims[pos] = overlap / (math.sqrt(len(query)) * math.sqrt(len(set(sess))))
    keep = sorted(sims, key=lambda p: (-sims[p], p))[:k]
    return {pos: sims[pos] for pos in keep}


def brute_force_sknn_ranking(corpus, prefix, k, pop_order, n):
    scores = Counter()
    for pos, sim in brute_force_sknn(corpus, prefix, k).items():
        for item in set(corpus[pos]):
            scores[item] += sim
    ranked = sorted(scores, key=lambda i: (-scores[i], i))
    ranked += [item for item in pop_order if item not in scores]
    return ranked[:n]


def brute_force_vsknn(corpus, prefix, k, pop_order, n):
    length = len(prefix)
    weights = {}
    for position, item in enumerate(prefix, start=1):
        weights[item] = max(weights.get(item, 0.0), position / length)
    qnorm = math.sqrt(sum(w * w for w in weights.values()))
    sims = {}
    for pos, sess in enumerate(corpus):
        shared = set(sess) & weights.keys()
        if not shared:
            continue
        dot = sum(weights[i] for i in shared)
        sims[pos] = dot / (qnorm * math.sqrt(len(set(sess))))
    keep = sorted(sims, key=lambda p: (-sims[p], p))[:k]
    scores = Counter()
    for pos in keep:
        for item in set(corpus[pos]):
            scores[item] += sims[pos]
    ranked = sorted(scores, key=lambda i: (-scores[i], i))
    for item in pop_order:
        if len(ranked) >= n:
            break
        if item not in ranked:
            ranked.append(item)
    return ranked[:n]


class TestBruteForceAgreement:
    """The indexed implementations must match naive full scans exactly."""

    @pytest.mark.parametrize("k", [1, 2, 3, 100])
    def test_sknn_all_prefixes(self, train, k):
        model = baselines.fit_sknn(train, k=k)
        for prefix in all_prefixes(CORPUS):
            got = model.recommend(prefix, 8)
            want = brute_force_sknn_ranking(CORPUS, prefix, k,
                                            pop_order=[2, 3, 0, 1, 4, 5, 6, 7], n=8)
            assert got == want, prefix

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_sknn_random_corpora(self, vocab, draw):
        # a small vocabulary makes shared items, tied similarities and tied
        # item votes common; constant weights keep every sum exact
        items = st.integers(0, vocab - 1)
        corpus = draw.draw(st.lists(st.lists(items, min_size=1, max_size=8),
                                    min_size=1, max_size=12))
        prefix = draw.draw(st.lists(items, min_size=1, max_size=6))
        k = draw.draw(st.integers(1, 14))
        model = baselines.fit_sknn(make_dataset(corpus, vocab_size=vocab), k=k)
        positions, sims = model.neighbours({item: 1.0 for item in prefix})
        want = brute_force_sknn(corpus, prefix, k)
        assert positions.tolist() == list(want)
        assert sims.tolist() == list(want.values())
        assert model.recommend(prefix, vocab) == brute_force_sknn_ranking(
            corpus, prefix, k, model.pop.order, vocab)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_vsknn_all_prefixes(self, train, k):
        model = fit_vsknn(train, k=k)
        for prefix in all_prefixes(CORPUS):
            got = model.recommend(prefix, 8)
            want = brute_force_vsknn(CORPUS, prefix, k,
                                     pop_order=[2, 3, 0, 1, 4, 5, 6, 7], n=8)
            assert got == want, prefix
