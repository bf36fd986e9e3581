"""Loss identities, gradient directions, and checks through encoder graphs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sml import autodiff as ad
from sml import encoders, losses

from conftest import encoder_loss_builder, make_model, numpy_item_vectors


def dist(value):
    return ad.parameter(np.float64(value))


def dists(values):
    return ad.parameter(np.asarray(values, dtype=np.float64))


def loss_value(fn, *dists, **kwargs):
    return float(fn(ad.Tape(), *[dist(v) for v in dists], **kwargs).values)


def loss_grads(fn, *values, **kwargs):
    tensors = [dist(v) for v in values]
    tape = ad.Tape()
    out = fn(tape, *tensors, **kwargs)
    ad.backward(tape, out)
    return [0.0 if t.grad is None else float(t.grad) for t in tensors]


class TestBpr:
    def test_equal_distances_gives_ln2(self):
        assert abs(loss_value(losses.bpr_loss, 0.7, 0.7) - math.log(2.0)) < 1e-6

    def test_well_separated_is_small(self):
        assert loss_value(losses.bpr_loss, 0.0, 2.0) < 0.2

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2), st.floats(0, 2))
    def test_always_positive_with_monotone_gradients(self, dp, dn):
        assert loss_value(losses.bpr_loss, dp, dn) > 0.0
        g_dp, g_dn = loss_grads(losses.bpr_loss, dp, dn)
        assert g_dp >= 0.0
        assert g_dn <= 0.0


class TestTop1:
    def test_equal_distances_at_one(self):
        assert abs(loss_value(losses.top1_loss, 1.0, 1.0) - 1.0) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2), st.floats(0, 2))
    def test_range_open_zero_two(self, dp, dn):
        value = loss_value(losses.top1_loss, dp, dn)
        assert 0.0 < value < 2.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2), st.floats(0, 1))
    def test_monotone_gradients_while_negative_below_one(self, dp, dn):
        # the (1 - dist_neg)^2 regulariser reverses direction past dist 1,
        # so the push-away guarantee holds on [0, 1] only
        g_dp, g_dn = loss_grads(losses.top1_loss, dp, dn)
        assert g_dp >= 0.0
        assert g_dn <= 1e-12


class TestContrastive:
    def _unit(self, raw):
        return ad.l2_normalize(None, ad.constant(np.asarray(raw, dtype=np.float64)))

    def test_same_class_equals_distance(self):
        a, b = self._unit([1.0, 0.2]), self._unit([0.4, -0.9])
        expected = 1.0 - float(a.values @ b.values)
        tape = ad.Tape()
        out = losses.contrastive_loss(tape, ad.cosine_distance(tape, a, b),
                                      same_class=True)
        np.testing.assert_allclose(float(out.values), expected, atol=1e-12)

    def test_different_class_inside_margin_is_zero_with_zero_grad(self):
        a = ad.parameter(np.array([1.0, 0.0]))
        b = ad.parameter(np.array([0.99, np.sqrt(1 - 0.99 ** 2)]))  # d ~ 0.01
        tape = ad.Tape()
        out = losses.contrastive_loss(tape, ad.cosine_distance(tape, a, b),
                                      same_class=False, margin=0.3)
        assert float(out.values) == 0.0
        ad.backward(tape, out)
        np.testing.assert_array_equal(a.grad, 0.0)
        np.testing.assert_array_equal(b.grad, 0.0)

    def test_different_class_beyond_margin(self):
        a, b = self._unit([1.0, 0.0]), self._unit([-1.0, 0.0])  # d = 2
        tape = ad.Tape()
        out = losses.contrastive_loss(tape, ad.cosine_distance(tape, a, b),
                                      same_class=False, margin=0.3)
        np.testing.assert_allclose(float(out.values), 1.7, atol=1e-12)


class TestTriplet:
    def test_satisfied_triplet_is_zero(self):
        assert loss_value(losses.triplet_loss, 0.2, 0.6, margin=0.3) == 0.0

    def test_violated_triplet(self):
        np.testing.assert_allclose(
            loss_value(losses.triplet_loss, 0.6, 0.2, margin=0.3), 0.7, atol=1e-12)

    def test_margin_disabled(self):
        np.testing.assert_allclose(
            loss_value(losses.triplet_loss, 0.5, 0.4, margin=0.0), 0.1,
            atol=1e-12)

    def test_swap_uses_closer_negative(self):
        tape = ad.Tape()
        out = losses.triplet_loss(tape, dist(0.5), dist(0.9), dist(0.4),
                                  margin=0.3, use_swap=True)
        np.testing.assert_allclose(float(out.values), 0.4, atol=1e-12)

    def test_swap_requires_third_distance(self):
        with pytest.raises(ValueError):
            losses.triplet_loss(ad.Tape(), dist(0.5), dist(0.9), use_swap=True)

    def test_swap_tie_routes_gradient_to_session_negative(self):
        d_pos, d_neg, d_pn = dist(0.9), dist(0.4), dist(0.4)
        tape = ad.Tape()
        out = losses.triplet_loss(tape, d_pos, d_neg, d_pn, margin=0.3, use_swap=True)
        ad.backward(tape, out)
        assert float(d_neg.grad) == -1.0
        assert d_pn.grad is None or float(d_pn.grad) == 0.0

    def test_zero_region_has_exactly_zero_gradient(self):
        g_dp, g_dn = loss_grads(losses.triplet_loss, 0.2, 0.6, margin=0.3)
        assert g_dp == 0.0 and g_dn == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2), st.floats(0, 2))
    def test_monotone_gradients(self, dp, dn):
        g_dp, g_dn = loss_grads(losses.triplet_loss, dp, dn)
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
        t0 = losses.triplet_loss(tape, dist(0.1), dist(0.8), margin=0.3)
        t1 = losses.triplet_loss(tape, dist(0.9), dist(0.3), margin=0.3)
        total = ad.add(tape, ad.scale(tape, t0, losses.position_weight(0)),
                       ad.scale(tape, t1, losses.position_weight(1)))
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

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 2), min_size=2, max_size=6),
           st.integers(1, 5), st.floats(0, 1))
    def test_non_negative(self, raw, pos_count, eps):
        flags = [i < min(pos_count, len(raw)) for i in range(len(raw))]
        tape = ad.Tape()
        out = losses.ncas_from_distances(tape, dists(raw), flags, eps)
        assert float(out.values) >= -1e-9


class TestSessionLoss:
    def _example(self):
        return [1, 7, 2], [4, 9, 4], [0, 3, 5]

    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_scalar_and_finite(self, kind):
        model = make_model(seed=6)
        prefix, pos, neg = self._example()
        cfg = losses.LossConfig(kind=kind)
        tape = ad.Tape()
        out = losses.session_loss(tape, model, prefix, pos, neg, cfg)
        assert out.values.shape == ()
        assert np.isfinite(float(out.values))

    def test_ncas_accepts_duplicate_positives(self):
        model = make_model(seed=6)
        tape = ad.Tape()
        out = losses.session_loss(tape, model, [1, 2], [4, 4], [0, 3],
                                  losses.LossConfig(kind="NCAS"))
        assert np.isfinite(float(out.values))

    def test_mismatched_pairs_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            losses.session_loss(ad.Tape(), model, [1], [2, 3], [4],
                                losses.LossConfig())

    def test_position_weighting_changes_value(self):
        model = make_model(seed=8)
        prefix, pos, neg = self._example()
        with_w = losses.session_loss(
            ad.Tape(), model, prefix, pos, neg,
            losses.LossConfig(kind="BPR", position_weighting=True))
        without = losses.session_loss(
            ad.Tape(), model, prefix, pos, neg,
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
        losses.session_loss(tape, model, list(range(length)), [11, 12], [13, 14], cfg)
        counts.add(len(tape.nodes))
    assert len(counts) == 1, sorted(counts)


LOSS_CALLS = {
    "bpr": lambda tape, d: losses.bpr_loss(tape, d[0], d[1]),
    "top1": lambda tape, d: losses.top1_loss(tape, d[0], d[1]),
    "contrastive_same": lambda tape, d: losses.contrastive_loss(tape, d[0], True),
    "contrastive_different": lambda tape, d: losses.contrastive_loss(tape, d[0], False),
    "triplet": lambda tape, d: losses.triplet_loss(tape, d[0], d[1]),
    "triplet_no_margin": lambda tape, d: losses.triplet_loss(tape, d[0], d[1], margin=0.0),
    "triplet_swap": lambda tape, d: losses.triplet_loss(tape, d[0], d[1], d[2],
                                                        use_swap=True),
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
])
def test_loss_gradients_through_full_encoder(kind, cfg_kwargs):
    cfg = encoders.ModelConfig(vocab_size=8, embedding_dim=4,
                               encoder_kind="MaxPool", max_session_length=5)
    loss_cfg = losses.LossConfig(kind=kind, **cfg_kwargs)

    def loss_fn(tape, model):
        return losses.session_loss(tape, model, [0, 5, 2], [3, 6], [1, 7], loss_cfg)

    params, build = encoder_loss_builder(cfg, loss_fn)
    assert ad.grad_check(build, params) < 1e-3


# ---------------------------------------------------------------------------
# float64 oracle: the whole per-example objective recomputed in numpy, one
# candidate and one position at a time, straight from the parameters
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def numpy_session_vector(model, prefix):
    """MaxPool or GRU session encoding in float64."""
    cfg = model.config
    x = model.session_table.values.astype(np.float64)[list(prefix)]
    if cfg.encoder_kind == "MaxPool":
        core = x.max(axis=0)
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


@pytest.mark.parametrize("encoder", ["MaxPool", "GRU"])
@pytest.mark.parametrize("cfg_kwargs", ORACLE_CONFIGS,
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_session_loss_matches_float64_oracle(encoder, cfg_kwargs):
    model = make_model(kind=encoder, vocab=20, dim=8, seed=13)
    cfg = losses.LossConfig(**cfg_kwargs)
    rng = np.random.default_rng(17)
    examples = [([1, 7, 2], [4, 9, 4], [0, 3, 5])]  # a repeated positive
    for _ in range(6):
        prefix = [int(i) for i in rng.integers(0, 20, size=int(rng.integers(1, 7)))]
        count = int(rng.integers(1, 6))
        positives = [int(i) for i in rng.integers(0, 10, size=count)]
        negatives = [int(i) for i in rng.choice(np.arange(10, 20), size=count,
                                                replace=False)]
        examples.append((prefix, positives, negatives))
    for prefix, positives, negatives in examples:
        got = float(losses.session_loss(ad.Tape(), model, prefix, positives,
                                        negatives, cfg).values)
        want = numpy_session_loss(model, prefix, positives, negatives, cfg)
        assert got == pytest.approx(want, abs=1e-5), (prefix, positives, negatives)
