"""Loss identities, gradient directions, and checks through encoder graphs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sml import autodiff as ad
from sml import encoders, losses, sampling

from conftest import (encoder_loss_builder, make_examples, make_model, numpy_item_vectors,
                      padded)
from tape_ops import add, grad_check, kernel, mul


def dist(value):
    return ad.parameter(np.float64(value))


def dists(values):
    return ad.parameter(np.asarray(values, dtype=np.float64))


def loss_value(fn, *dists, **kwargs):
    return float(kernel(ad.Tape(), fn, [dist(v) for v in dists], **kwargs).values)


def loss_grads(fn, *values, **kwargs):
    tensors = [dist(v) for v in values]
    tape = ad.Tape()
    out = kernel(tape, fn, tensors, **kwargs)
    ad.backward(tape, out)
    return [0.0 if t.grad is None else float(t.grad) for t in tensors]


class TestBpr:
    def test_equal_distances_gives_ln2(self):
        assert abs(loss_value(losses._bpr, 0.7, 0.7) - math.log(2.0)) < 1e-6

    def test_well_separated_is_small(self):
        assert loss_value(losses._bpr, 0.0, 2.0) < 0.2

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2), st.floats(0, 2))
    def test_always_positive_with_monotone_gradients(self, dp, dn):
        assert loss_value(losses._bpr, dp, dn) > 0.0
        g_dp, g_dn = loss_grads(losses._bpr, dp, dn)
        assert g_dp >= 0.0
        assert g_dn <= 0.0


class TestTop1:
    def test_equal_distances_at_one(self):
        assert abs(loss_value(losses._top1, 1.0, 1.0) - 1.0) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2), st.floats(0, 2))
    def test_range_open_zero_two(self, dp, dn):
        value = loss_value(losses._top1, dp, dn)
        assert 0.0 < value < 2.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2), st.floats(0, 1))
    def test_monotone_gradients_while_negative_below_one(self, dp, dn):
        # the (1 - dist_neg)^2 regulariser reverses direction past dist 1,
        # so the push-away guarantee holds on [0, 1] only
        g_dp, g_dn = loss_grads(losses._top1, dp, dn)
        assert g_dp >= 0.0
        assert g_dn <= 1e-12


class TestContrastive:
    """The positive is the same-class pair, the negative the different one."""

    def test_same_class_equals_distance(self):
        # a negative inside the margin adds nothing: the positive's distance
        a, b = (ad.l2_normalize(None, ad.constant(np.array([raw]))) for raw in
                ([1.0, 0.2], [0.4, -0.9]))
        d_pos = ad.cosine_distance(None, a, b)
        out = kernel(None, losses._contrastive, (d_pos, dists([0.1])), margin=0.3)
        np.testing.assert_allclose(out.values, 1.0 - a.values[0] @ b.values[0],
                                   atol=1e-12)

    def test_different_class_inside_margin_is_zero_with_zero_grad(self):
        d_pos, d_neg = dist(0.0), dist(0.01)
        tape = ad.Tape()
        out = kernel(tape, losses._contrastive, (d_pos, d_neg), margin=0.3)
        assert float(out.values) == 0.0
        ad.backward(tape, out)
        assert float(d_neg.grad) == 0.0
        assert float(d_pos.grad) == 1.0

    def test_different_class_beyond_margin(self):
        np.testing.assert_allclose(
            loss_value(losses._contrastive, 0.0, 2.0, margin=0.3), 1.7, atol=1e-12)


class TestTriplet:
    def test_satisfied_triplet_is_zero(self):
        assert loss_value(losses._triplet, 0.2, 0.6, margin=0.3) == 0.0

    def test_violated_triplet(self):
        np.testing.assert_allclose(
            loss_value(losses._triplet, 0.6, 0.2, margin=0.3), 0.7, atol=1e-12)

    def test_margin_disabled(self):
        np.testing.assert_allclose(
            loss_value(losses._triplet, 0.5, 0.4, margin=0.0), 0.1,
            atol=1e-12)

    def test_swap_uses_closer_negative(self):
        tape = ad.Tape()
        out = kernel(tape, losses._triplet, (dist(0.5), dist(0.9), dist(0.4)), margin=0.3)
        np.testing.assert_allclose(float(out.values), 0.4, atol=1e-12)

    def test_swap_tie_routes_gradient_to_session_negative(self):
        d_pos, d_neg, d_pn = dist(0.9), dist(0.4), dist(0.4)
        tape = ad.Tape()
        out = kernel(tape, losses._triplet, (d_pos, d_neg, d_pn), margin=0.3)
        ad.backward(tape, out)
        assert float(d_neg.grad) == -1.0
        assert d_pn.grad is None or float(d_pn.grad) == 0.0

    def test_zero_region_has_exactly_zero_gradient(self):
        g_dp, g_dn = loss_grads(losses._triplet, 0.2, 0.6, margin=0.3)
        assert g_dp == 0.0 and g_dn == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2), st.floats(0, 2))
    def test_monotone_gradients(self, dp, dn):
        g_dp, g_dn = loss_grads(losses._triplet, dp, dn)
        assert g_dp >= 0.0
        assert g_dn <= 0.0


class TestPositionWeights:
    def test_frozen_values(self):
        assert losses.position_weight(0) == 1.0
        np.testing.assert_allclose(losses.position_weight(1), math.sqrt(0.5))
        np.testing.assert_allclose(losses.position_weight(3), 0.5)

    def test_weighted_sum_hand_example(self):
        # positions 0 and 1 with distances (0.1, 0.8) and (0.9, 0.3)
        tape = ad.Tape()
        t0 = kernel(tape, losses._triplet, (dist(0.1), dist(0.8)), margin=0.3)
        t1 = kernel(tape, losses._triplet, (dist(0.9), dist(0.3)), margin=0.3)
        w0, w1 = (ad.constant(np.asarray(losses.position_weight(i), dtype=t0.dtype))
                  for i in (0, 1))
        total = add(tape, mul(tape, t0, w0), mul(tape, t1, w1))
        np.testing.assert_allclose(float(total.values), math.sqrt(0.5) * 0.9,
                                   atol=1e-12)


class TestNcas:
    def test_single_positive_no_smoothing(self):
        tape = ad.Tape()
        out = losses.ncas_from_distances(tape, dists([0.2, 0.7]),
                                         [True, False], epsilon=0.0)
        log_p_pos = -0.2 - math.log(math.exp(-0.2) + math.exp(-0.7))
        np.testing.assert_allclose(float(out.values), -log_p_pos, atol=1e-9)

    def test_smoothed_target_two_candidates(self):
        # eps 0.3 over two candidates: target (0.85, 0.15)
        target = np.array([0.85, 0.15])
        tape = ad.Tape()
        out = losses.ncas_from_distances(tape, dists(-np.log(target)), [True, False],
                                         epsilon=0.3)
        assert abs(float(out.values)) < 1e-6

    def test_zero_when_model_matches_smoothed_target(self):
        flags = [True, True, False, False, False]
        eps = 0.3
        n, n_pos = len(flags), 2
        target = np.array([(1 - eps) / n_pos + eps / n if f else eps / n
                           for f in flags])
        tape = ad.Tape()
        out = losses.ncas_from_distances(tape, dists(-np.log(target)), flags, epsilon=eps)
        assert abs(float(out.values)) < 1e-6

    def test_requires_a_positive(self):
        with pytest.raises(ValueError):
            losses.ncas_from_distances(ad.Tape(), dists([0.1]), [False])

    def test_model_first_direction_needs_smoothing(self):
        with pytest.raises(ValueError):
            losses.ncas_from_distances(ad.Tape(), dists([0.1, 0.5]),
                                       [True, False], epsilon=0.0, model_first=True)

    def test_config_rejects_model_first_without_smoothing(self):
        with pytest.raises(ValueError, match="epsilon > 0"):
            losses.LossConfig(kind="NCAS", kld_model_first=True, epsilon=0.0)
        # the target-first direction and the other kinds need no smoothing
        losses.LossConfig(kind="NCAS", epsilon=0.0)
        losses.LossConfig(kind="Triplet", kld_model_first=True, epsilon=0.0)

    def test_model_first_zero_at_match(self):
        target = np.array([0.85, 0.15])
        tape = ad.Tape()
        out = losses.ncas_from_distances(tape, dists(-np.log(target)), [True, False],
                                         epsilon=0.3, model_first=True)
        assert abs(float(out.values)) < 1e-6

    def test_large_distances_give_finite_value_and_gradient(self):
        for model_first in (False, True):
            d = dists([1000.0, 999.0])
            tape = ad.Tape()
            out = losses.ncas_from_distances(tape, d, [True, False], epsilon=0.3,
                                             model_first=model_first)
            ad.backward(tape, out)
            assert np.isfinite(float(out.values))
            assert np.all(np.isfinite(d.grad))

    @staticmethod
    def _ragged(seed):
        """A [4, 5] distance matrix with ragged candidate counts 1 to 5."""
        rng = np.random.default_rng(seed)
        counts = np.array([1, 5, 3, 2])
        mask = np.arange(5) < counts[:, None]
        flags = mask & (np.arange(5) < rng.integers(1, 3, size=(4, 1)))
        return rng.uniform(0.05, 1.95, size=(4, 5)), flags, mask

    @pytest.mark.parametrize("model_first", [False, True])
    def test_batch_rows_average_the_per_row_losses(self, model_first):
        d, flags, mask = self._ragged(41)
        tape = ad.Tape()
        batch = dists(d)
        # every floating-point error raises: a masked entry computes nothing
        # undefined, even with zero-mass targets
        eps = 0.3 if model_first else 0.0
        with np.errstate(all="raise"):
            out = losses.ncas_from_distances(tape, batch, flags, eps, model_first, mask)
            ad.backward(tape, out)
        want, grads = [], np.zeros_like(d)
        for i in range(len(d)):
            row = dists(d[i][mask[i]])
            row_tape = ad.Tape()
            value = losses.ncas_from_distances(row_tape, row, flags[i][mask[i]], eps,
                                               model_first)
            ad.backward(row_tape, value)
            want.append(float(value.values))
            grads[i][mask[i]] = row.grad / len(d)
        assert float(out.values) == pytest.approx(np.mean(want), abs=1e-12)
        np.testing.assert_allclose(batch.grad, grads, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("model_first", [False, True])
    def test_batch_grad_check_with_mask(self, model_first):
        d, flags, mask = self._ragged(42)

        def build(tape, ts):
            return losses.ncas_from_distances(tape, ts["d"], flags, 0.3, model_first, mask)

        assert grad_check(build, {"d": d}) < 1e-3

    def test_batch_row_without_positive_or_candidates_rejected(self):
        d = dists(np.ones((2, 3)))
        flags = np.array([[True, False, False], [False, False, True]])
        with pytest.raises(ValueError, match="positive"):
            losses.ncas_from_distances(ad.Tape(), d, flags,
                                       mask=np.array([[1, 1, 1], [1, 1, 0]]))
        with pytest.raises(ValueError, match="positive"):
            losses.ncas_from_distances(ad.Tape(), d, flags,
                                       mask=np.array([[1, 1, 1], [0, 0, 0]]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 2), min_size=2, max_size=6),
           st.integers(1, 5), st.floats(0, 1))
    def test_non_negative(self, raw, pos_count, eps):
        flags = [i < min(pos_count, len(raw)) for i in range(len(raw))]
        tape = ad.Tape()
        out = losses.ncas_from_distances(tape, dists(raw), flags, eps)
        assert float(out.values) >= -1e-9


class TestSessionLoss:
    def _batch(self):
        return make_examples([([1, 7, 2], [4, 9, 4], [0, 3, 5]), ([6], [2], [8])])

    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_scalar_and_finite(self, kind):
        model = make_model(seed=6)
        cfg = losses.LossConfig(kind=kind)
        tape = ad.Tape()
        out = losses.session_loss(tape, model, self._batch(), cfg)
        assert out.values.shape == ()
        assert np.isfinite(float(out.values))

    def test_ncas_accepts_duplicate_positives(self):
        model = make_model(seed=6)
        tape = ad.Tape()
        out = losses.session_loss(tape, model, make_examples([([1, 2], [4, 4], [0, 3])]),
                                  losses.LossConfig(kind="NCAS"))
        assert np.isfinite(float(out.values))

    def test_mismatched_pairs_rejected(self):
        # the examples block checks its rows; the loss takes no empty block
        for bad in (([1], [2, 3], [4]), ([1], [], []), ([], [2], [3])):
            with pytest.raises(ValueError):
                make_examples([([1], [2], [3]), bad])
        with pytest.raises(ValueError, match="paired"):
            sampling.Examples(padded([[1]]), np.array([1]), padded([[2, 3]]),
                              padded([[4, -1]]))
        with pytest.raises(ValueError, match="at least one example"):
            losses.session_loss(ad.Tape(), make_model(), self._batch()[2:],
                                losses.LossConfig())

    def test_position_weighting_changes_value(self):
        model = make_model(seed=8)
        with_w = losses.session_loss(
            ad.Tape(), model, self._batch(),
            losses.LossConfig(kind="BPR", position_weighting=True))
        without = losses.session_loss(
            ad.Tape(), model, self._batch(),
            losses.LossConfig(kind="BPR", position_weighting=False))
        assert float(with_w.values) < float(without.values)


@pytest.mark.parametrize("kind", ["Triplet", "NCAS"])
def test_gru_tape_size_does_not_grow_with_prefix_length(kind):
    """The recurrence is one tape node, however long the prefix."""
    model = make_model(kind="GRU", vocab=20, dim=8, seed=4, max_session_length=10)
    cfg = losses.LossConfig(kind=kind)
    counts = set()
    for length in range(1, model.config.max_session_length + 1):
        tape = ad.Tape()
        losses.session_loss(tape, model,
                            make_examples([(list(range(length)), [11, 12], [13, 14])]), cfg)
        counts.add(len(tape.nodes))
    assert len(counts) == 1, sorted(counts)


@pytest.mark.parametrize("encoder", ["MaxPool", "AvgPool", "GRU", "TextCNN"])
@pytest.mark.parametrize("kind", losses.LOSS_KINDS)
def test_tape_size_does_not_grow_with_batch_size(encoder, kind):
    """A batch is one graph: its node count does not depend on how many
    examples it holds."""
    model = make_model(kind=encoder, vocab=20, dim=8, seed=4)
    cfg = losses.LossConfig(kind=kind)
    counts = set()
    for size in (1, 2, 7):
        batch = make_examples([(list(range(1 + i % 8)), [11 + i % 3, 12], [13, 14 + i % 5])
                               for i in range(size)])
        tape = ad.Tape()
        losses.session_loss(tape, model, batch, cfg)
        counts.add(len(tape.nodes))
    assert len(counts) == 1, sorted(counts)


LOSS_CALLS = {
    "bpr": lambda tape, d: kernel(tape, losses._bpr, d[:2]),
    "top1": lambda tape, d: kernel(tape, losses._top1, d[:2]),
    "contrastive": lambda tape, d: kernel(tape, losses._contrastive, d[:2], margin=0.3),
    "triplet": lambda tape, d: kernel(tape, losses._triplet, d[:2]),
    "triplet_no_margin": lambda tape, d: kernel(tape, losses._triplet, d[:2], margin=0.0),
    "triplet_swap": lambda tape, d: kernel(tape, losses._triplet, d),
    "ncas": lambda tape, d: losses.ncas_from_distances(tape, d[2], [True, False, True]),
    "ncas_model_first": lambda tape, d: losses.ncas_from_distances(
        tape, d[2], [True, False, True], model_first=True),
}


@pytest.mark.parametrize("name", LOSS_CALLS)
def test_each_loss_adds_one_tape_node(name):
    d = [dists([0.4, 1.1, 0.2]), dists([0.9, 0.3, 1.5]), dists([0.7, 0.6, 0.1])]
    tape = ad.Tape()
    out = LOSS_CALLS[name](tape, d)
    assert len(tape.nodes) == 1
    assert tape.nodes[0].output is out


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_margin(margin):
    with pytest.raises(ValueError, match="finite"):
        losses.LossConfig(margin=margin)


@pytest.mark.parametrize("kind,cfg_kwargs", [
    ("BPR", {}),
    ("TOP1", {}),
    ("Contrastive", {}),
    ("Triplet", {}),
    ("Triplet", {"use_swap": True}),
    ("Triplet", {"margin": 0.0}),
    ("NCAS", {}),
    ("NCAS", {"kld_model_first": True}),
    ("BPR", {"position_weighting": False}),
])
def test_loss_gradients_through_full_encoder(kind, cfg_kwargs):
    """The one loss node training records, checked whole: position weights,
    the padding mask of uneven widths, swap routing, the NCAS mask of a
    repeated positive and each kind's slopes."""
    cfg = encoders.ModelConfig(vocab_size=8, embedding_dim=4,
                               encoder_kind="MaxPool", max_session_length=5)
    loss_cfg = losses.LossConfig(kind=kind, **cfg_kwargs)
    batch = make_examples([([0, 5, 2], [3, 6, 3], [1, 7, 4]), ([4], [3], [0]),
                           ([6, 1], [2, 5], [7, 0])])

    def loss_fn(tape, model):
        return losses.session_loss(tape, model, batch, loss_cfg)

    for seed in range(3):
        params, build = encoder_loss_builder(cfg, loss_fn, seed=seed)
        assert grad_check(build, params) < 1e-3


@pytest.mark.parametrize("encoder", ["MaxPool", "AvgPool", "GRU", "TextCNN"])
@pytest.mark.parametrize("cfg_kwargs", [
    {"kind": "Triplet", "use_swap": True},
    {"kind": "Contrastive"},
    {"kind": "NCAS"},
], ids=lambda kw: kw["kind"])
def test_batch_gradients_through_every_encoder(encoder, cfg_kwargs):
    # ragged lengths (1 and the full window) and positive counts, a repeated
    # positive and a candidate shared between examples
    cfg = encoders.ModelConfig(vocab_size=8, embedding_dim=4, encoder_kind=encoder,
                               max_session_length=4, conv_filter_sizes=(1, 2))
    loss_cfg = losses.LossConfig(**cfg_kwargs)
    batch = make_examples([([0, 5, 2, 6, 1], [3, 6, 3], [1, 7, 2]), ([4], [3], [0]),
                           ([2, 7], [5, 1], [4, 6])])

    def loss_fn(tape, model):
        return losses.session_loss(tape, model, batch, loss_cfg)

    # a smaller step than the default: the recurrent graphs curve enough for
    # the default's truncation error to reach the tolerance
    params, build = encoder_loss_builder(cfg, loss_fn)
    assert grad_check(build, params, h=1e-4) < 1e-3


# ---------------------------------------------------------------------------
# float64 oracle: the whole per-example objective recomputed in numpy, one
# candidate and one position at a time, straight from the parameters, and
# averaged over the batch
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def numpy_session_vector(model, prefix):
    """Session encoding in float64, for every encoder kind."""
    cfg = model.config
    prefix = list(prefix)[-cfg.max_session_length:]
    x = model.session_table.values.astype(np.float64)[prefix]
    if cfg.encoder_kind == "MaxPool":
        core = x.max(axis=0)
    elif cfg.encoder_kind == "AvgPool":
        core = x.mean(axis=0)
    elif cfg.encoder_kind == "TextCNN":
        padded = np.zeros((cfg.max_session_length, cfg.embedding_dim))
        padded[:len(prefix)] = x
        parts = []
        for k in cfg.conv_filter_sizes:
            filters, bias = (t.values.astype(np.float64) for t in model.convs[k])
            # only windows that start on a real item are pooled
            starts = range(min(len(prefix), cfg.max_session_length - k + 1))
            parts.append(np.max([sum(padded[p + a] @ filters[a] for a in range(k)) + bias
                                 for p in starts], axis=0))
        core = np.concatenate(parts)
    else:
        g = {name: getattr(model.gru, name).values.astype(np.float64)
             for name in ("w_update", "u_update", "b_update", "w_reset",
                          "u_reset", "b_reset", "w_cand", "u_cand", "b_cand")}
        core = np.zeros(cfg.embedding_dim)
        for x_t in x:
            z = _sigmoid(x_t @ g["w_update"] + core @ g["u_update"] + g["b_update"])
            r = _sigmoid(x_t @ g["w_reset"] + core @ g["u_reset"] + g["b_reset"])
            c = np.tanh(x_t @ g["w_cand"] + (r * core) @ g["u_cand"] + g["b_cand"])
            core = (1.0 - z) * core + z * c
    for w, b in model.session_ff:
        core = np.tanh(core @ w.values.astype(np.float64) + b.values)
    return core / np.linalg.norm(core)


def numpy_session_loss(model, prefix, positives, negatives, cfg):
    session = numpy_session_vector(model, prefix)

    def item(i):
        return numpy_item_vectors(model, [i])[0]

    def distance(i):
        return 1.0 - float(item(i) @ session)

    if cfg.kind == "NCAS":
        candidates = []
        for i in positives + negatives:
            if i not in candidates:
                candidates.append(i)
        d = np.array([distance(i) for i in candidates])
        log_model = -d - np.log(np.sum(np.exp(-d)))
        n, n_pos = len(candidates), len(set(positives))
        target = np.array([(1 - cfg.epsilon) / n_pos if i in positives else 0.0
                           for i in candidates]) + cfg.epsilon / n
        if cfg.kld_model_first:
            return float(np.sum(np.exp(log_model) * (log_model - np.log(target))))
        keep = target > 0
        return float(np.sum(target[keep] * (np.log(target[keep]) - log_model[keep])))

    total = 0.0
    for j, (p, q) in enumerate(zip(positives, negatives)):
        dp, dn = distance(p), distance(q)
        if cfg.kind == "Triplet":
            if cfg.use_swap:
                dn = min(dn, 1.0 - float(item(p) @ item(q)))
            term = max(0.0, dp - dn + cfg.margin)
        elif cfg.kind == "BPR":
            term = -math.log(_sigmoid(dn - dp))
        elif cfg.kind == "TOP1":
            term = _sigmoid(dp - dn) + _sigmoid((1.0 - dn) ** 2)
        else:  # Contrastive
            term = dp + max(0.0, dn - cfg.margin)
        weight = math.sqrt(1.0 / (1.0 + j)) if cfg.position_weighting else 1.0
        total += weight * term
    return total


ORACLE_CONFIGS = [
    {"kind": "Triplet"},
    {"kind": "Triplet", "use_swap": True},
    {"kind": "Triplet", "margin": 0.0},
    {"kind": "Triplet", "position_weighting": False},
    {"kind": "BPR"},
    {"kind": "BPR", "position_weighting": False},
    {"kind": "TOP1"},
    {"kind": "Contrastive"},
    {"kind": "Contrastive", "position_weighting": False},
    {"kind": "NCAS"},
    {"kind": "NCAS", "kld_model_first": True},
]


def oracle_batches(rng, max_session_length, vocab=20):
    """Batches that mix prefix lengths 1 to max_session_length + 3, ragged
    positive counts, repeated positives and candidates shared across
    examples (positives from the lower half of the vocabulary, negatives
    from the upper half)."""
    half = vocab // 2
    examples = [([1, 7, 2], [4, 9, 4], [0, 13, 15])]  # a repeated positive
    for length in range(1, max_session_length + 4):
        prefix = [int(i) for i in rng.integers(0, vocab, size=length)]
        count = int(rng.integers(1, 6))
        positives = [int(i) for i in rng.integers(0, half, size=count)]
        negatives = [int(i) for i in rng.choice(np.arange(half, vocab), size=count,
                                                replace=False)]
        examples.append((prefix, positives, negatives))
    order = rng.permutation(len(examples))
    examples = [examples[i] for i in order]
    return [examples[:4], examples[4:]]


@pytest.mark.parametrize("encoder", ["MaxPool", "GRU", "AvgPool", "TextCNN"])
@pytest.mark.parametrize("cfg_kwargs", ORACLE_CONFIGS,
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_session_loss_matches_float64_oracle(encoder, cfg_kwargs):
    model = make_model(kind=encoder, vocab=20, dim=8, seed=13)
    cfg = losses.LossConfig(**cfg_kwargs)
    for batch in oracle_batches(np.random.default_rng(17), model.config.max_session_length):
        got = float(losses.session_loss(ad.Tape(), model, make_examples(batch),
                                        cfg).values)
        want = np.mean([numpy_session_loss(model, *ex, cfg) for ex in batch])
        assert got == pytest.approx(want, abs=1e-5), batch
