"""Encoder stack: init, forward/backward, Adam, checkpoints."""

import os

import numpy as np
import pytest

from s2r2 import (
    DivergenceError,
    EncoderConfig,
    OptimizerConfig,
    SmoothingConfig,
    adam_step,
    backprop_similarity,
    backward,
    batch_smooth_ap_loss,
    cosine_similarity_matrix,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from s2r2.selftest import central_diff, max_rel_err

from oracles import reference_adam_step, reference_he_uniform

TINY = dict(input_dim=4, hidden_dims=(6,), rep_dim=5, proj_hidden_dim=4, proj_out_dim=3)


class TestConfig:
    def test_layer_shapes_and_relu_flags(self):
        cfg = EncoderConfig(**TINY)
        assert cfg.layer_shapes() == [(4, 6), (6, 5), (5, 4), (4, 3)]
        assert cfg.relu_flags() == [True, False, True, False]

    def test_no_hidden_layers(self):
        cfg = EncoderConfig(input_dim=4, hidden_dims=(), rep_dim=5,
                            proj_hidden_dim=4, proj_out_dim=3)
        assert cfg.layer_shapes() == [(4, 5), (5, 4), (4, 3)]
        assert cfg.relu_flags() == [False, True, False]

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            EncoderConfig(input_dim=0)
        with pytest.raises(ValueError):
            EncoderConfig(input_dim=4, hidden_dims=(0,))
        with pytest.raises(ValueError):
            EncoderConfig(input_dim=4, activation="tanh")


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(EncoderConfig(seed=9, **TINY))
        b = init_params(EncoderConfig(seed=9, **TINY))
        c = init_params(EncoderConfig(seed=10, **TINY))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_layer_reference_draws(self, dtype):
        cfg = EncoderConfig(seed=4, input_dim=64)
        params = init_params(cfg, dtype=dtype)
        for w, ref in zip(params.weights, reference_he_uniform(cfg.layer_shapes(), 4, dtype)):
            assert w.dtype == dtype and w.tobytes() == ref.tobytes()

    def test_he_uniform_bounds_and_zero_biases(self):
        params = init_params(EncoderConfig(seed=0, **TINY))
        for w, (fan_in, _) in zip(params.weights, params.config.layer_shapes()):
            limit = np.sqrt(6.0 / fan_in)
            assert np.all(np.abs(w) <= limit)
        for b in params.biases:
            assert np.all(b == 0.0)
        assert params.step == 0


class TestForward:
    def test_matches_manual_computation(self):
        cfg = EncoderConfig(seed=3, **TINY)
        params = init_params(cfg, dtype=np.float64)
        rng = np.random.default_rng(40)
        x = rng.normal(size=(7, 4))
        w, b = params.weights, params.biases
        h1 = np.maximum(x @ w[0] + b[0], 0)
        reps_manual = h1 @ w[1] + b[1]
        ph = np.maximum(reps_manual @ w[2] + b[2], 0)
        proj_manual = ph @ w[3] + b[3]
        reps, proj, _ = forward(params, x)
        assert np.allclose(reps, reps_manual, atol=0)
        assert np.allclose(proj, proj_manual, atol=0)

    def test_zero_weights_give_zero_outputs(self):
        params = init_params(EncoderConfig(seed=0, **TINY))
        for w in params.weights:
            w[:] = 0.0
        reps, proj, _ = forward(params, np.ones((3, 4)))
        assert np.all(reps == 0.0) and np.all(proj == 0.0)

    def test_rejects_wrong_input_width(self):
        params = init_params(EncoderConfig(seed=0, **TINY))
        with pytest.raises(ValueError):
            forward(params, np.ones((3, 5)))


class TestBackward:
    def test_every_parameter_matches_finite_differences(self):
        # full chain: inputs -> projections -> cosine -> batch ranking loss
        cfg = EncoderConfig(seed=3, **TINY)
        params = init_params(cfg, dtype=np.float64)
        rng = np.random.default_rng(45)
        x = rng.normal(size=(4, cfg.input_dim))
        groups = np.repeat(np.arange(2), 2)
        smoothing = SmoothingConfig(tau=0.1)

        def loss_now(_arr=None):
            _, proj, _ = forward(params, x)
            return batch_smooth_ap_loss(
                cosine_similarity_matrix(proj), groups, smoothing
            ).loss

        _, proj, cache = forward(params, x)
        result = batch_smooth_ap_loss(cosine_similarity_matrix(proj), groups, smoothing)
        grad_proj = backprop_similarity(proj, result.grad_wrt_similarities)
        grad_w, grad_b = backward(params, cache, grad_proj)

        for li in range(len(params.weights)):
            numeric_w = central_diff(loss_now, params.weights[li])
            assert max_rel_err(grad_w[li], numeric_w) <= 1e-4
            numeric_b = central_diff(loss_now, params.biases[li])
            assert max_rel_err(grad_b[li], numeric_b) <= 1e-4

    def test_rejects_foreign_cache(self):
        params_a = init_params(EncoderConfig(seed=0, **TINY))
        other = dict(TINY, hidden_dims=(9,))
        params_b = init_params(EncoderConfig(seed=0, **other))
        _, _, cache_b = forward(params_b, np.ones((2, 4)))
        with pytest.raises(ValueError):
            backward(params_a, cache_b, np.ones((2, 3)))

    def test_rejects_wrong_grad_shape(self):
        params = init_params(EncoderConfig(seed=0, **TINY))
        _, _, cache = forward(params, np.ones((2, 4)))
        with pytest.raises(ValueError):
            backward(params, cache, np.ones((2, 7)))


class TestAdam:
    def one_layer_params(self):
        cfg = EncoderConfig(input_dim=2, hidden_dims=(), rep_dim=2,
                            proj_hidden_dim=2, proj_out_dim=2, seed=0)
        return init_params(cfg, dtype=np.float64)

    def test_first_step_is_signwise_learning_rate(self):
        # after one step from zero state the update is lr * g / (|g| + eps)
        params = self.one_layer_params()
        before = [w.copy() for w in params.weights]
        grads_w = [np.full_like(w, 0.25) for w in params.weights]
        grads_b = [np.zeros_like(b) for b in params.biases]
        opt = OptimizerConfig(learning_rate=1e-3)
        adam_step(params, (grads_w, grads_b), opt)
        for w, w0 in zip(params.weights, before):
            expected = w0 - opt.learning_rate * 0.25 / (0.25 + opt.eps)
            assert np.allclose(w, expected, atol=1e-12)
        assert params.step == 1

    def test_rejects_non_finite_gradients(self):
        params = self.one_layer_params()
        grads_w = [np.full_like(w, np.nan) for w in params.weights]
        grads_b = [np.zeros_like(b) for b in params.biases]
        with pytest.raises(DivergenceError):
            adam_step(params, (grads_w, grads_b), OptimizerConfig())

    def test_loss_decreases_on_fixed_batch(self):
        # 50 steps on one frozen batch must cut the loss by at least 20%
        rng = np.random.default_rng(42)
        cfg = EncoderConfig(input_dim=8, hidden_dims=(16,), rep_dim=8,
                            proj_hidden_dim=8, proj_out_dim=8, seed=7)
        params = init_params(cfg)
        groups = np.repeat(np.arange(4), 3)
        centers = rng.normal(size=(4, 8))
        x = (centers[groups] + 0.1 * rng.normal(size=(12, 8))).astype(np.float32)
        smoothing = SmoothingConfig(tau=0.05)
        opt = OptimizerConfig(learning_rate=1e-3)

        losses = []
        for _ in range(51):
            _, proj, cache = forward(params, x)
            result = batch_smooth_ap_loss(cosine_similarity_matrix(proj), groups, smoothing)
            losses.append(result.loss)
            grad_proj = backprop_similarity(proj, result.grad_wrt_similarities)
            adam_step(params, backward(params, cache, grad_proj), opt)
        assert losses[-1] < 0.8 * losses[0]

    def test_deterministic_parameter_trajectory(self):
        def run():
            params = init_params(EncoderConfig(seed=3, **TINY))
            x = np.random.default_rng(45).normal(size=(4, 4)).astype(np.float32)
            groups = np.repeat(np.arange(2), 2)
            for _ in range(10):
                _, proj, cache = forward(params, x)
                result = batch_smooth_ap_loss(
                    cosine_similarity_matrix(proj), groups, SmoothingConfig(tau=0.1)
                )
                grad_proj = backprop_similarity(proj, result.grad_wrt_similarities)
                adam_step(params, backward(params, cache, grad_proj), OptimizerConfig())
            return params

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)


    @pytest.mark.parametrize("source", ["fresh_arrays", "backward_views"])
    def test_fifty_steps_match_per_array_reference_bitwise(self, source):
        cfg = EncoderConfig(input_dim=8, hidden_dims=(16,), rep_dim=8,
                            proj_hidden_dim=8, proj_out_dim=4, seed=5)
        params = init_params(cfg)
        opt = OptimizerConfig(learning_rate=1e-3)
        tensors = [a.copy() for pair in zip(params.weights, params.biases) for a in pair]
        moments1 = [np.zeros_like(a) for a in tensors]
        moments2 = [np.zeros_like(a) for a in tensors]
        rng = np.random.default_rng(46)
        x = rng.normal(size=(6, 8)).astype(np.float32)
        for t in range(1, 51):
            if source == "fresh_arrays":
                # float64 gradients of mixed scales, cast on the way in
                scale = 10.0 ** rng.integers(-6, 2)
                grads = ([scale * rng.normal(size=w.shape) for w in params.weights],
                         [scale * rng.normal(size=b.shape) for b in params.biases])
            else:
                _, proj, cache = forward(params, x)
                grads = backward(params, cache, rng.normal(size=proj.shape))
            flat_grads = [g.copy() for pair in zip(*grads) for g in pair]
            reference_adam_step(tensors, moments1, moments2, flat_grads, t,
                                opt.learning_rate, opt.beta1, opt.beta2, opt.eps)
            adam_step(params, grads, opt)
        assert params.step == 50
        got = [a for pair in zip(params.weights, params.biases) for a in pair]
        got_m = [a for pair in zip(params.m_weights, params.m_biases) for a in pair]
        got_v = [a for pair in zip(params.v_weights, params.v_biases) for a in pair]
        for ours, ref in zip(got + got_m + got_v, tensors + moments1 + moments2):
            assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()

    def test_non_finite_gradient_moves_no_weight(self):
        params = self.one_layer_params()
        before = params.flat.copy()
        grads_w = [np.zeros_like(w) for w in params.weights]
        grads_b = [np.zeros_like(b) for b in params.biases]
        grads_b[-1][0] = np.inf
        with pytest.raises(DivergenceError):
            adam_step(params, (grads_w, grads_b), OptimizerConfig())
        assert params.step == 0 and np.array_equal(params.flat, before)
        assert not params.m.any() and not params.v.any()


class TestFlatBuffers:
    def assert_views_of_one_buffer_each(self, params):
        groups = {
            "flat": params.weights + params.biases,
            "m": params.m_weights + params.m_biases,
            "v": params.v_weights + params.v_biases,
            "grad": params.grad_weights + params.grad_biases,
        }
        for name, views in groups.items():
            buffer = getattr(params, name)
            assert buffer.ndim == 1 and buffer.flags.c_contiguous
            assert sum(view.size for view in views) == buffer.size
            assert all(view.base is buffer for view in views)
        assert len({id(getattr(params, name)) for name in groups}) == 4

    def test_init_params_shares_one_buffer_per_kind(self):
        self.assert_views_of_one_buffer_each(init_params(EncoderConfig(seed=1, **TINY)))

    def test_load_checkpoint_shares_one_buffer_per_kind(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(init_params(EncoderConfig(seed=1, **TINY)), path)
        loaded = load_checkpoint(path)
        self.assert_views_of_one_buffer_each(loaded)
        assert loaded.flat.flags.writeable and loaded.flat.dtype == np.float32

    def test_buffers_hold_tensors_in_checkpoint_order(self, tmp_path):
        params = init_params(EncoderConfig(seed=2, **TINY))
        params.flat[...] = np.arange(params.flat.size)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        assert path.read_bytes().endswith(params.flat.astype("<f4").tobytes())

    def test_backward_writes_the_gradient_buffer(self):
        params = init_params(EncoderConfig(seed=3, **TINY))
        _, proj, cache = forward(params, np.ones((2, 4)))
        grad_w, grad_b = backward(params, cache, np.ones(proj.shape))
        assert all(g is view for g, view in zip(grad_w + grad_b,
                                                params.grad_weights + params.grad_biases))
        assert params.grad.any()


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        params = init_params(EncoderConfig(seed=6, **TINY))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        for wa, wb in zip(params.weights, loaded.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(params.biases, loaded.biases):
            assert np.array_equal(ba, bb)
        # optimizer state intentionally resets on load
        assert loaded.step == 0
        assert all(np.all(m == 0) for m in loaded.m_weights)
        assert all(w.dtype == np.float32 and w.flags.writeable for w in loaded.weights)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        params = init_params(EncoderConfig(seed=6, **TINY))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        params = init_params(EncoderConfig(seed=6, **TINY))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        params = init_params(EncoderConfig(seed=6, **TINY))
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(params, path)
        before = path.read_bytes()

        class FailingTensor:
            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        # the header and first layer are written before the failure
        monkeypatch.setattr(params, "weights", [params.weights[0], FailingTensor()])
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(params, path)
        assert path.read_bytes() == before
        assert load_checkpoint(path).config == params.config
        assert os.listdir(tmp_path) == ["checkpoint.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        params = init_params(EncoderConfig(seed=0, **TINY))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        params = init_params(EncoderConfig(seed=0, **TINY))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_params(EncoderConfig(seed=0, **TINY))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)
