"""Tape engine: frozen forward values, gradient oracles, Adam, grad_check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sml import autodiff as ad


def scalar_param(value):
    return ad.parameter(np.float64(value))


class TestForwardValues:
    def test_dense_identity_with_bias(self):
        x = ad.constant(np.array([1.0, 2.0]))
        w = ad.constant(np.eye(2))
        b = ad.constant(np.array([0.5, -0.5]))
        out = ad.dense(None, x, w, b, activation="none")
        np.testing.assert_allclose(out.values, [1.5, 1.5])

    def test_dense_rejects_unknown_activation(self):
        x = ad.constant(np.zeros(2))
        w = ad.constant(np.eye(2))
        with pytest.raises(ValueError):
            ad.dense(None, x, w, activation="relu")

    def test_dense_shape_mismatch(self):
        x = ad.constant(np.zeros(3))
        w = ad.constant(np.eye(2))
        with pytest.raises(ValueError):
            ad.dense(None, x, w)

    def test_seq_pool_max_values_and_routing(self):
        x = ad.parameter(np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 7.0]]))
        tape = ad.Tape()
        pooled = ad.seq_pool(tape, x, "max", 3)
        np.testing.assert_allclose(pooled.values, [3.0, 7.0])
        loss = ad.reduce_sum(tape, pooled)
        ad.backward(tape, loss)
        expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(x.grad, expected)

    def test_seq_pool_max_tie_goes_to_first_row(self):
        x = ad.parameter(np.array([[4.0], [4.0]]))
        tape = ad.Tape()
        loss = ad.reduce_sum(tape, ad.seq_pool(tape, x, "max", 2))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [[1.0], [0.0]])

    def test_seq_pool_mean(self):
        x = ad.constant(np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 7.0]]))
        pooled = ad.seq_pool(None, x, "mean", 3)
        np.testing.assert_allclose(pooled.values, [2.0, 14.0 / 3.0])

    def test_seq_pool_mask_restricts_rows(self):
        x = ad.constant(np.array([[1.0], [9.0], [5.0]]))
        np.testing.assert_allclose(ad.seq_pool(None, x, "max", 2).values, [9.0])
        np.testing.assert_allclose(ad.seq_pool(None, x, "mean", 2).values, [5.0])

    def test_seq_pool_bad_mask(self):
        x = ad.constant(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ad.seq_pool(None, x, "max", 0)
        with pytest.raises(ValueError):
            ad.seq_pool(None, x, "max", 4)

    def test_l2_normalize_three_four(self):
        out = ad.l2_normalize(None, ad.constant(np.array([3.0, 4.0])))
        np.testing.assert_allclose(out.values, [0.6, 0.8])

    def test_l2_normalize_zero_vector_is_finite(self):
        out = ad.l2_normalize(None, ad.constant(np.zeros(4)))
        assert np.all(np.isfinite(out.values))

    def test_l2_normalize_rows_keep_zero_row_zero(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [-1.0, 0.0]])
        out = ad.l2_normalize(None, ad.constant(x))
        np.testing.assert_allclose(out.values, [[0.6, 0.8], [0.0, 0.0], [-1.0, 0.0]])

    def test_l2_normalize_rows_match_vector_path(self):
        x = np.random.default_rng(3).normal(size=(5, 7)).astype(np.float32)
        rows = ad.l2_normalize(None, ad.constant(x)).values
        for i in range(5):
            np.testing.assert_allclose(
                rows[i], ad.l2_normalize(None, ad.constant(x[i])).values, atol=1e-7)

    def test_cosine_distance_shapes(self):
        a = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
        v = ad.constant(np.array([0.0, 1.0]))
        np.testing.assert_allclose(ad.cosine_distance(None, a, v).values, [1.0, 0.0, 0.2])
        b = ad.constant(np.array([[1.0, 0.0], [1.0, 0.0], [0.6, 0.8]]))
        np.testing.assert_allclose(ad.cosine_distance(None, a, b).values, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            ad.cosine_distance(None, v, a)
        with pytest.raises(ValueError):
            ad.cosine_distance(None, a, ad.constant(np.zeros(3)))

    def test_cosine_distance_orthogonal(self):
        a = ad.constant(np.array([1.0, 0.0]))
        b = ad.constant(np.array([0.0, 1.0]))
        assert float(ad.cosine_distance(None, a, b).values) == 1.0

    def test_embedding_lookup_gather_and_scatter(self):
        table = ad.parameter(np.arange(6.0).reshape(3, 2))
        tape = ad.Tape()
        rows = ad.embedding_lookup(tape, table, [2, 0, 2])
        np.testing.assert_allclose(rows.values, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
        loss = ad.reduce_sum(tape, rows)
        ad.backward(tape, loss)
        np.testing.assert_allclose(table.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])

    def test_embedding_lookup_out_of_range(self):
        table = ad.constant(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            ad.embedding_lookup(None, table, [3])

    def test_gru_zero_weights_zero_state(self):
        d = 3
        zeros = lambda *s: ad.constant(np.zeros(s))
        params = ad.GRUParams(
            w_update=zeros(d, d), u_update=zeros(d, d), b_update=zeros(d),
            w_reset=zeros(d, d), u_reset=zeros(d, d), b_reset=zeros(d),
            w_cand=zeros(d, d), u_cand=zeros(d, d), b_cand=zeros(d),
        )
        x = ad.constant(np.random.default_rng(0).normal(size=(1, d)))
        h = ad.gru_sequence(None, x, params, ad.constant(np.zeros(d)))
        np.testing.assert_allclose(h.values, np.zeros(d))

    def test_conv1d_length_one_filter_equals_dense(self):
        rng = np.random.default_rng(7)
        x = ad.constant(rng.normal(size=(5, 3)))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        conv = ad.conv1d(None, x, ad.constant(w[None, :, :]), ad.constant(b))
        dense = ad.dense(None, x, ad.constant(w), ad.constant(b))
        np.testing.assert_allclose(conv.values, dense.values, atol=1e-6)

    def test_conv1d_filter_longer_than_sequence(self):
        x = ad.constant(np.zeros((2, 3)))
        filters = ad.constant(np.zeros((3, 3, 1)))
        with pytest.raises(ValueError):
            ad.conv1d(None, x, filters, ad.constant(np.zeros(1)))

    def test_fused_rejects_mismatched_shapes(self):
        a, b = ad.parameter(np.zeros(3)), ad.parameter(np.zeros(2))
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.fused(ad.Tape(), "f", (a, b), np.zeros(3), (np.ones(3), np.ones(2)))
        with pytest.raises(ValueError, match="do not match"):
            ad.fused(ad.Tape(), "f", (a,), np.zeros(2), (np.ones(3),))
        with pytest.raises(ValueError, match="do not match"):
            ad.fused(ad.Tape(), "f", (a,), np.zeros(()), (np.ones(2),))


class TestTapeMechanics:
    def test_fanout_accumulates(self):
        x = scalar_param(3.0)
        tape = ad.Tape()
        y = ad.add(tape, x, x)
        ad.backward(tape, y)
        assert float(x.grad) == 2.0

    def test_square_via_mul_fanout(self):
        x = scalar_param(1.7)
        tape = ad.Tape()
        y = ad.mul(tape, x, x)
        ad.backward(tape, y)
        np.testing.assert_allclose(float(x.grad), 2 * 1.7)

    def test_backward_rejects_non_scalar(self):
        x = ad.parameter(np.ones(3))
        tape = ad.Tape()
        y = ad.scale(tape, x, 2.0)
        with pytest.raises(ValueError):
            ad.backward(tape, y)

    def test_backward_rejects_foreign_loss(self):
        tape = ad.Tape()
        other = ad.Tape()
        x = scalar_param(1.0)
        y = ad.mul(other, x, x)
        with pytest.raises(ValueError):
            ad.backward(tape, y)

    def test_reverse_record_order(self):
        x = scalar_param(0.5)
        tape = ad.Tape()
        y = ad.sigmoid(tape, ad.scale(tape, x, 3.0))
        assert [n.op for n in tape.nodes] == ["scale", "sigmoid"]
        ad.backward(tape, y)
        s = 1.0 / (1.0 + np.exp(-1.5))
        np.testing.assert_allclose(float(x.grad), 3.0 * s * (1 - s), rtol=1e-12)

    def test_two_tapes_disjoint_params(self):
        a = scalar_param(2.0)
        b = scalar_param(5.0)
        t1, t2 = ad.Tape(), ad.Tape()
        ya = ad.mul(t1, a, a)
        yb = ad.scale(t2, b, 4.0)
        ad.backward(t2, yb)
        ad.backward(t1, ya)
        assert float(a.grad) == 4.0
        assert float(b.grad) == 4.0

    def test_constant_gets_no_grad(self):
        c = ad.constant(np.float64(2.0))
        x = scalar_param(3.0)
        tape = ad.Tape()
        y = ad.mul(tape, x, c)
        ad.backward(tape, y)
        assert c.grad is None
        assert float(x.grad) == 2.0


class TestAdam:
    def test_first_step_size_is_lr(self):
        params = ad.ParamSet()
        p = params.register("w", ad.parameter(np.array([1.0, -2.0], dtype=np.float32)))
        p.grad = np.ones(2, dtype=np.float32)
        before = p.values.copy()
        ad.adam_step(params, lr=0.001)
        np.testing.assert_allclose(before - p.values, 0.001 * np.ones(2), atol=1e-6)
        assert p.grad is None

    def test_zero_grad_fresh_state_no_move(self):
        params = ad.ParamSet()
        p = params.register("w", ad.parameter(np.float32(4.0)))
        p.grad = np.float32(0.0)
        ad.adam_step(params)
        assert float(p.values) == 4.0

    def test_none_grad_treated_as_zero(self):
        params = ad.ParamSet()
        p = params.register("w", ad.parameter(np.float32(4.0)))
        ad.adam_step(params)
        assert float(p.values) == 4.0

    def test_duplicate_registration_rejected(self):
        params = ad.ParamSet()
        params.register("w", ad.parameter(np.zeros(2)))
        with pytest.raises(ValueError):
            params.register("w", ad.parameter(np.zeros(2)))

    def test_converges_on_quadratic(self):
        params = ad.ParamSet()
        p = params.register("w", ad.parameter(np.float32(5.0)))
        for _ in range(3000):
            tape = ad.Tape()
            loss = ad.mul(tape, p, p)
            ad.backward(tape, loss)
            ad.adam_step(params, lr=0.01)
        assert abs(float(p.values)) < 1e-2


class TestGradCheckSelf:
    def test_quadratic_error_tiny(self):
        err = ad.grad_check(
            lambda tape, ts: ad.mul(tape, ts["w"], ts["w"]),
            {"w": np.array(0.37)},
        )
        assert err < 1e-8

    def test_constant_function_zero_error(self):
        def build(tape, ts):
            return ad.mul(tape, ts["w"], ad.constant(np.float64(0.0)))

        assert ad.grad_check(build, {"w": np.array(1.23)}) == 0.0


def _away_from_ties(rng, shape):
    """Values with well-separated magnitudes so max/min picks are stable."""
    base = rng.normal(size=shape)
    jitter = 0.01 * np.arange(base.size).reshape(shape)
    return base + jitter


class TestGradientOracle:
    """Central finite differences are the reference for every op."""

    def test_dense_all_activations(self):
        rng = np.random.default_rng(11)
        for act in ("none", "tanh", "sigmoid"):
            params = {
                "x": rng.normal(size=(4, 3)),
                "w": rng.normal(size=(3, 5)),
                "b": rng.normal(size=5),
            }

            def build(tape, ts, act=act):
                out = ad.dense(tape, ts["x"], ts["w"], ts["b"], activation=act)
                return ad.reduce_sum(tape, ad.mul(tape, out, out))

            assert ad.grad_check(build, params) < 1e-3

    def test_dense_vector_input(self):
        rng = np.random.default_rng(3)
        params = {"x": rng.normal(size=3), "w": rng.normal(size=(3, 2))}

        def build(tape, ts):
            return ad.reduce_sum(tape, ad.dense(tape, ts["x"], ts["w"], activation="tanh"))

        assert ad.grad_check(build, params) < 1e-3

    def test_seq_pool_max(self):
        rng = np.random.default_rng(5)
        params = {"x": _away_from_ties(rng, (6, 4))}

        def build(tape, ts):
            pooled = ad.seq_pool(tape, ts["x"], "max", 4)
            return ad.reduce_sum(tape, ad.mul(tape, pooled, pooled))

        assert ad.grad_check(build, params) < 1e-3

    def test_seq_pool_mean(self):
        rng = np.random.default_rng(6)
        params = {"x": rng.normal(size=(6, 4))}

        def build(tape, ts):
            pooled = ad.seq_pool(tape, ts["x"], "mean", 5)
            return ad.reduce_sum(tape, ad.mul(tape, pooled, pooled))

        assert ad.grad_check(build, params) < 1e-3

    def test_conv1d(self):
        rng = np.random.default_rng(8)
        params = {
            "x": rng.normal(size=(7, 3)),
            "f": rng.normal(size=(3, 3, 2)),
            "b": rng.normal(size=2),
        }

        def build(tape, ts):
            out = ad.conv1d(tape, ts["x"], ts["f"], ts["b"])
            return ad.reduce_sum(tape, ad.mul(tape, out, out))

        assert ad.grad_check(build, params) < 1e-3

    def test_gru_sequence_full_bptt(self):
        rng = np.random.default_rng(9)
        d, h = 3, 3
        params = {"x": rng.normal(size=(4, d)), "h0": rng.normal(size=h)}
        for gate in ("update", "reset", "cand"):
            params[f"w_{gate}"] = rng.normal(size=(d, h)) * 0.5
            params[f"u_{gate}"] = rng.normal(size=(h, h)) * 0.5
            params[f"b_{gate}"] = rng.normal(size=h) * 0.1

        def build(tape, ts):
            gp = ad.GRUParams(
                w_update=ts["w_update"], u_update=ts["u_update"], b_update=ts["b_update"],
                w_reset=ts["w_reset"], u_reset=ts["u_reset"], b_reset=ts["b_reset"],
                w_cand=ts["w_cand"], u_cand=ts["u_cand"], b_cand=ts["b_cand"],
            )
            hT = ad.gru_sequence(tape, ts["x"], gp, ts["h0"])
            return ad.reduce_sum(tape, ad.mul(tape, hT, hT))

        assert ad.grad_check(build, params) < 1e-3

    def test_l2_normalize(self):
        params = {"x": np.array([0.4, -1.3, 2.2, 0.8])}

        def build(tape, ts):
            y = ad.l2_normalize(tape, ts["x"])
            w = ad.constant(np.array([0.3, -0.7, 0.2, 1.1]))
            return ad.reduce_sum(tape, ad.mul(tape, y, w))

        assert ad.grad_check(build, params) < 1e-3

    def test_cosine_distance(self):
        rng = np.random.default_rng(12)
        params = {"a": rng.normal(size=5), "b": rng.normal(size=5)}

        def build(tape, ts):
            return ad.cosine_distance(
                tape, ad.l2_normalize(tape, ts["a"]), ad.l2_normalize(tape, ts["b"]))

        assert ad.grad_check(build, params) < 1e-3

    def test_embedding_lookup(self):
        rng = np.random.default_rng(13)
        params = {"table": rng.normal(size=(5, 3))}

        def build(tape, ts):
            rows = ad.embedding_lookup(tape, ts["table"], [1, 4, 1, 0])
            return ad.reduce_sum(tape, ad.mul(tape, rows, rows))

        assert ad.grad_check(build, params) < 1e-3

    def test_l2_normalize_rows_with_zero_row(self):
        rng = np.random.default_rng(16)
        params = {"x": rng.normal(size=(3, 4))}
        mask = np.ones((3, 4))
        mask[1] = 0.0  # row 1 stays exactly zero under every perturbation

        def build(tape, ts):
            rows = ad.mul(tape, ts["x"], ad.constant(mask))
            y = ad.l2_normalize(tape, rows)
            w = ad.constant(np.arange(12.0).reshape(3, 4) / 7.0 - 0.8)
            return ad.reduce_sum(tape, ad.mul(tape, y, w))

        assert ad.grad_check(build, params) < 1e-3

    def test_cosine_distance_rows_vs_vector(self):
        rng = np.random.default_rng(17)
        params = {"rows": rng.normal(size=(4, 3)), "v": rng.normal(size=3)}
        weights = ad.constant(rng.normal(size=4))

        def build(tape, ts):
            d = ad.cosine_distance(tape, ad.l2_normalize(tape, ts["rows"]),
                                   ad.l2_normalize(tape, ts["v"]))
            return ad.reduce_sum(tape, ad.mul(tape, d, weights))

        assert ad.grad_check(build, params) < 1e-3

    def test_cosine_distance_rows_vs_rows(self):
        rng = np.random.default_rng(18)
        params = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(4, 3))}
        weights = ad.constant(rng.normal(size=4))

        def build(tape, ts):
            d = ad.cosine_distance(tape, ts["a"], ts["b"])
            return ad.reduce_sum(tape, ad.mul(tape, d, weights))

        assert ad.grad_check(build, params) < 1e-3

    def test_embedding_lookup_vector_repeated_indices(self):
        rng = np.random.default_rng(19)
        params = {"v": rng.normal(size=5)}

        def build(tape, ts):
            picked = ad.embedding_lookup(tape, ts["v"], [3, 0, 3, 3, 1])
            return ad.reduce_sum(tape, ad.mul(tape, picked, picked))

        assert ad.grad_check(build, params) < 1e-3

    def test_scalar_chain(self):
        params = {"a": np.array(0.8), "b": np.array(-0.4)}

        def build(tape, ts):
            s = ad.sigmoid(tape, ad.sub(tape, ts["a"], ts["b"]))
            return ad.scale(tape, ad.mul(tape, s, ad.add(tape, s, ts["b"])), -1.0)

        assert ad.grad_check(build, params) < 1e-3

    def test_fused_elementwise_and_scalar(self):
        # softplus(a - b) elementwise, then log-sum-exp of it as a scalar
        rng = np.random.default_rng(16)
        params = {"a": rng.normal(size=5), "b": rng.normal(size=5)}

        def build(tape, ts):
            gap = ts["a"].values - ts["b"].values
            slope = 1.0 / (1.0 + np.exp(-gap))
            soft = ad.fused(tape, "softplus_gap", (ts["a"], ts["b"]),
                            np.logaddexp(0.0, gap), (slope, -slope))
            lse = np.logaddexp.reduce(soft.values)
            return ad.fused(tape, "logsumexp", (soft,), lse,
                            (np.exp(soft.values - lse),))

        assert ad.grad_check(build, params) < 1e-3

    def test_pad_rows_and_concat(self):
        rng = np.random.default_rng(15)
        params = {"x": rng.normal(size=(2, 3)), "y": rng.normal(size=4)}

        def build(tape, ts):
            padded = ad.pad_rows(tape, ts["x"], 5)
            pooled = ad.seq_pool(tape, padded, "mean", 2)
            joined = ad.concat(tape, [pooled, ts["y"]])
            return ad.reduce_sum(tape, ad.mul(tape, joined, joined))

        assert ad.grad_check(build, params) < 1e-3


GRU_GATES = tuple(f"{kind}_{gate}" for gate in ("update", "reset", "cand")
                  for kind in ("w", "u", "b"))


def _gru_arrays(rng, steps, d_in, hidden):
    arrays = {"x": rng.normal(size=(steps, d_in)), "h0": rng.normal(size=hidden)}
    for gate in ("update", "reset", "cand"):
        arrays[f"w_{gate}"] = rng.normal(size=(d_in, hidden)) * 0.5
        arrays[f"u_{gate}"] = rng.normal(size=(hidden, hidden)) * 0.5
        arrays[f"b_{gate}"] = rng.normal(size=hidden) * 0.1
    return arrays


def _gru_params(ts):
    return ad.GRUParams(**{name: ts[name] for name in GRU_GATES})


def numpy_gru(arrays):
    """The per-step recurrence in float64, one input row at a time."""
    a = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = a["h0"]
    for x_t in a["x"]:
        z = sigmoid(x_t @ a["w_update"] + h @ a["u_update"] + a["b_update"])
        r = sigmoid(x_t @ a["w_reset"] + h @ a["u_reset"] + a["b_reset"])
        c = np.tanh(x_t @ a["w_cand"] + (r * h) @ a["u_cand"] + a["b_cand"])
        h = (1.0 - z) * h + z * c
    return h


def per_step_gru(tape, x, params, h0):
    """The GRU composed from primitive tape ops, a few nodes per step.

    Row t of ``x`` is taken as a one-hot vector times ``x``, and the
    candidate's tanh as a ``dense`` layer with an identity weight, so every
    gradient flows through ops the library keeps.
    """
    steps = x.shape[0]
    h = h0
    ones = ad.constant(np.ones_like(h0.values))
    identity = ad.constant(np.eye(h0.shape[0]))
    for t in range(steps):
        x_t = ad.dense(tape, ad.constant(np.eye(steps)[t]), x)
        z = ad.sigmoid(tape, ad.add(tape, ad.add(
            tape, ad.dense(tape, x_t, params.w_update),
            ad.dense(tape, h, params.u_update)), params.b_update))
        r = ad.sigmoid(tape, ad.add(tape, ad.add(
            tape, ad.dense(tape, x_t, params.w_reset),
            ad.dense(tape, h, params.u_reset)), params.b_reset))
        cand = ad.dense(tape, ad.add(
            tape, ad.dense(tape, x_t, params.w_cand),
            ad.dense(tape, ad.mul(tape, r, h), params.u_cand)),
            identity, params.b_cand, activation="tanh")
        h = ad.add(tape, ad.mul(tape, ad.sub(tape, ones, z), h),
                   ad.mul(tape, z, cand))
    return h


class TestFusedGru:
    """``gru_sequence`` is one tape node; the per-step recurrence is its oracle."""

    @pytest.mark.parametrize("steps", range(1, 16))
    def test_float32_matches_float64_per_step_reference(self, steps):
        arrays = _gru_arrays(np.random.default_rng([21, steps]), steps, 6, 5)
        ts = {k: ad.constant(v.astype(np.float32)) for k, v in arrays.items()}
        out = ad.gru_sequence(None, ts["x"], _gru_params(ts), ts["h0"])
        assert out.dtype == np.float32
        np.testing.assert_allclose(out.values, numpy_gru(arrays), rtol=0, atol=1e-5)

    @pytest.mark.parametrize("steps", [1, 4, 15])
    def test_untaped_and_taped_values_are_identical(self, steps):
        arrays = _gru_arrays(np.random.default_rng([22, steps]), steps, 8, 8)
        frozen = {k: ad.constant(v.astype(np.float32)) for k, v in arrays.items()}
        live = {k: ad.parameter(v.astype(np.float32)) for k, v in arrays.items()}
        tape = ad.Tape()
        served = ad.gru_sequence(None, frozen["x"], _gru_params(frozen), frozen["h0"])
        trained = ad.gru_sequence(tape, live["x"], _gru_params(live), live["h0"])
        np.testing.assert_array_equal(served.values, trained.values)
        assert [node.op for node in tape.nodes] == ["gru_sequence"]

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_grad_check_every_input(self, steps):
        params = _gru_arrays(np.random.default_rng([23, steps]), steps, 3, 4)
        weights = np.random.default_rng([24, steps]).normal(size=4)

        def build(tape, ts):
            out = ad.gru_sequence(tape, ts["x"], _gru_params(ts), ts["h0"])
            return ad.reduce_sum(tape, ad.mul(tape, out, ad.constant(weights)))

        assert ad.grad_check(build, params) < 1e-3

    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_gradients_match_per_step_composition(self, steps):
        arrays = _gru_arrays(np.random.default_rng([25, steps]), steps, 4, 4)
        grads = []
        for gru in (ad.gru_sequence, per_step_gru):
            ts = {k: ad.parameter(v.copy()) for k, v in arrays.items()}
            tape = ad.Tape()
            out = gru(tape, ts["x"], _gru_params(ts), ts["h0"])
            ad.backward(tape, ad.reduce_sum(tape, ad.mul(tape, out, out)))
            grads.append({k: t.grad for k, t in ts.items()})
        fused, composed = grads
        for name in arrays:
            np.testing.assert_allclose(fused[name], composed[name],
                                       rtol=1e-9, atol=1e-12, err_msg=name)

    def test_input_width_must_match_w_update(self):
        arrays = _gru_arrays(np.random.default_rng(26), 3, 4, 4)
        ts = {k: ad.constant(v) for k, v in arrays.items()}
        with pytest.raises(ValueError, match="w_update"):
            ad.gru_sequence(None, ad.constant(np.zeros((3, 5))), _gru_params(ts), ts["h0"])

    def test_empty_sequence_and_bad_h0_rejected(self):
        arrays = _gru_arrays(np.random.default_rng(27), 2, 4, 4)
        ts = {k: ad.constant(v) for k, v in arrays.items()}
        with pytest.raises(ValueError, match="empty"):
            ad.gru_sequence(None, ad.constant(np.zeros((0, 4))), _gru_params(ts), ts["h0"])
        with pytest.raises(ValueError, match="h0"):
            ad.gru_sequence(None, ts["x"], _gru_params(ts), ad.constant(np.zeros(3)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
def test_stack_scalars_roundtrip(values):
    tensors = [ad.parameter(np.float64(v)) for v in values]
    tape = ad.Tape()
    vec = ad.stack_scalars(tape, tensors)
    np.testing.assert_allclose(vec.values, values)
    loss = ad.reduce_sum(tape, ad.mul(tape, vec, vec))
    ad.backward(tape, loss)
    for v, t in zip(values, tensors):
        np.testing.assert_allclose(float(t.grad), 2 * v, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 1000))
def test_pad_rows_appends_zeros(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = ad.constant(rng.normal(size=(rows, cols)))
    padded = ad.pad_rows(None, x, rows + 2)
    np.testing.assert_allclose(padded.values[:rows], x.values)
    np.testing.assert_allclose(padded.values[rows:], 0.0)
