"""Neural layers against naive-loop oracles, plus gradient checking."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.errors import EmptyInputError, ShapeError
from diarkit.nn import (
    affine,
    attention_weights,
    batch_norm_infer,
    bilstm_forward,
    conv2d,
    finite_diff_check,
    global_avg_pool_freq,
    global_stat_pool,
    multi_head_self_attention,
    relu,
    sigmoid,
)
from oracles import (
    attention_oracle,
    avg_pool_freq_oracle,
    batch_norm_oracle,
    bilstm_masked_oracle,
    bilstm_oracle,
    conv2d_oracle,
    sigmoid_masked_oracle,
    stat_pool_oracle,
)


def lstm_params(rng, d, hidden, scale=0.4, shared=False):
    def block():
        return {
            "w_x": rng.uniform(-scale, scale, (d, 4 * hidden)),
            "w_h": rng.uniform(-scale, scale, (hidden, 4 * hidden)),
            "b": rng.uniform(-scale, scale, 4 * hidden),
        }

    fw = block()
    bw = {k: v.copy() for k, v in fw.items()} if shared else block()
    return {f"fw.{k}": v for k, v in fw.items()} | {f"bw.{k}": v for k, v in bw.items()}


def attention_params(rng, d, heads, d_att, d_out=None, scale=0.4):
    d_out = d if d_out is None else d_out
    d_head = d_att // heads
    p = {"wo": rng.uniform(-scale, scale, (d_att, d_out)), "bo": rng.uniform(-scale, scale, d_out)}
    for h in range(heads):
        for kind in ("wq", "wk", "wv"):
            p[f"h{h}.{kind}"] = rng.uniform(-scale, scale, (d, d_head))
    return p


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5, 7))
        kernel = np.zeros((3, 3, 1, 1))
        for c in range(3):
            kernel[c, c, 0, 0] = 1.0
        np.testing.assert_allclose(conv2d(x, kernel, (1, 1), "same"), x)

    def test_ones_kernel_sums_window(self):
        x = np.ones((1, 6, 6))
        kernel = np.ones((1, 1, 3, 3))
        out = conv2d(x, kernel, (1, 1), "valid")
        assert out.shape == (1, 4, 4)
        np.testing.assert_allclose(out, 9.0)

    def test_strided_matches_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 4))
        kernel = rng.normal(size=(1, 1, 2, 2))
        got = conv2d(x, kernel, (2, 2), "valid")
        np.testing.assert_allclose(got, conv2d_oracle(x, kernel, (2, 2), "valid"), atol=1e-6)

    @pytest.mark.parametrize("trial", range(12))
    def test_random_shapes_match_oracle(self, trial):
        rng = np.random.default_rng(100 + trial)
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(3, 11)), int(rng.integers(3, 11))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        pad = "same" if rng.random() < 0.5 else "valid"
        x = rng.normal(size=(c_in, h, w))
        kernel = rng.normal(size=(c_out, c_in, kh, kw))
        np.testing.assert_allclose(
            conv2d(x, kernel, stride, pad), conv2d_oracle(x, kernel, stride, pad), atol=1e-5
        )

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)))


@st.composite
def conv_cases(draw, max_channels=3):
    """(x, kernel, stride, pad) of normal draws, 1 to `max_channels` channels
    each way."""
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pad = draw(st.sampled_from(["same", "valid"]))
    low_h, low_w = (1, 1) if pad == "same" else (kh, kw)
    shape_x = (draw(st.integers(1, max_channels)), draw(st.integers(low_h, 9)), draw(st.integers(low_w, 9)))
    shape_k = (draw(st.integers(1, max_channels)), shape_x[0], kh, kw)
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=shape_x), rng.normal(size=shape_k), stride, pad


# Each output's rounding error, in any order of summation, is bounded by its
# sum of |products| times the number of terms (at most 36 here) times the
# unit roundoff: 6e-8 in float32 and 1.1e-16 in float64.
CONV_REL = {np.float32: 1e-5, np.float64: 1e-12}


def assert_conv_within_bound(got, x, kernel, stride, pad):
    """`got` is within CONV_REL[got.dtype] of the loop oracle, relative to
    each output's sum of |products|; the oracle runs in float64 on the
    values `conv2d` was given."""
    x64, k64 = np.asarray(x, dtype=np.float64), np.asarray(kernel, dtype=np.float64)
    want = conv2d_oracle(x64, k64, stride, pad)
    scale = conv2d_oracle(np.abs(x64), np.abs(k64), stride, pad)
    assert np.all(np.abs(got - want) <= CONV_REL[got.dtype.type] * scale)


class TestConv2dDtypes:
    """Float64 input computes in float64 and float32 input in float32, each
    within its stated bound of the loop oracle."""

    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    def test_float64_within_1e12_of_oracle(self, case):
        x, kernel, stride, pad = case
        got = conv2d(x, kernel, stride, pad)
        assert got.dtype == np.float64
        assert_conv_within_bound(got, x, kernel, stride, pad)

    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    def test_float32_within_1e5_of_oracle(self, case):
        x, kernel, stride, pad = (case[0].astype(np.float32), case[1].astype(np.float32)) + case[2:]
        got = conv2d(x, kernel, stride, pad)
        assert got.dtype == np.float32
        x64, k64 = x.astype(np.float64), kernel.astype(np.float64)
        want = conv2d_oracle(x64, k64, stride, pad)
        # Relative to each output's sum of |products|, which bounds the
        # rounding error of any order of summation.
        scale = conv2d_oracle(np.abs(x64), np.abs(k64), stride, pad)
        assert np.all(np.abs(got - want) <= 1e-5 * scale)

    def test_mixed_dtypes_compute_in_float64(self):
        rng = np.random.default_rng(16)
        x, kernel = rng.normal(size=(2, 5, 5)), rng.normal(size=(3, 2, 3, 3))
        got = conv2d(x.astype(np.float32), kernel)
        assert got.dtype == np.float64
        assert_conv_within_bound(got, x.astype(np.float32), kernel, (1, 1), "same")
        assert conv2d(x, kernel.astype(np.float32)).dtype == np.float64


class TestConv2dChannelsLast:
    """`conv2d` computes on [H, W, C] memory and returns a channels-last view."""

    @settings(max_examples=80, deadline=None)
    @given(conv_cases(max_channels=4), st.sampled_from([np.float32, np.float64]))
    def test_layout_and_oracle(self, case, dtype):
        x, kernel, stride, pad = case[0].astype(dtype), case[1].astype(dtype), *case[2:]
        got = conv2d(x, kernel, stride, pad)
        assert got.dtype == dtype
        assert_conv_within_bound(got, x, kernel, stride, pad)
        channels_last = np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert conv2d(channels_last, kernel, stride, pad).tobytes() == got.tobytes()
        assert got.transpose(1, 2, 0).flags.c_contiguous

    def test_stage0_embed_conv_peak_memory(self):
        """The 32->32 conv of the embedding trunk's first stage on 400x80
        float32 maps peaks at the [H, W, 3*C] patch copy, the output and one
        GEMM's partial sum: about 5 outputs, here bounded by 6. The
        whole-window patch copy of 9 inputs (45 MB) fails it."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(32, 400, 80)).astype(np.float32)
        kernel = rng.normal(size=(32, 32, 3, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            out = conv2d(x, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (32, 400, 80)
        assert peak <= 6 * out.nbytes


class TestBatchNorm:
    def test_identity_params(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 5))
        out = batch_norm_infer(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3))
        np.testing.assert_allclose(out, x, atol=1e-4)  # eps shrinks x by ~eps/2

    def test_x_equals_mean_gives_beta(self):
        mean = np.array([2.0, -1.0])
        beta = np.array([0.5, 0.75])
        x = np.stack([np.full((3, 3), 2.0), np.full((3, 3), -1.0)])
        out = batch_norm_infer(x, np.ones(2), beta, mean, np.ones(2))
        np.testing.assert_allclose(out[0], 0.5)
        np.testing.assert_allclose(out[1], 0.75)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = int(rng.integers(1, 5))
            x = rng.normal(size=(c, int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            gamma, beta = rng.normal(size=c), rng.normal(size=c)
            mean, var = rng.normal(size=c), rng.uniform(0.1, 2.0, size=c)
            np.testing.assert_allclose(
                batch_norm_infer(x, gamma, beta, mean, var),
                batch_norm_oracle(x, gamma, beta, mean, var),
                atol=1e-7,
            )

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            batch_norm_infer(np.zeros((2, 3)), np.ones(3), np.zeros(2), np.zeros(2), np.ones(2))


class TestBilstm:
    def test_zero_weights_zero_output(self):
        x = np.random.default_rng(4).normal(size=(6, 3))
        params = {
            f"{d}.{k}": np.zeros(shape)
            for d in ("fw", "bw")
            for k, shape in (("w_x", (3, 8)), ("w_h", (2, 8)), ("b", (8,)))
        }
        out = bilstm_forward(x, params, hidden=2)
        assert out.shape == (6, 4)
        np.testing.assert_array_equal(out, 0.0)

    def test_single_step_halves_equal_with_shared_params(self):
        rng = np.random.default_rng(5)
        params = lstm_params(rng, d=3, hidden=2, shared=True)
        out = bilstm_forward(rng.normal(size=(1, 3)), params, hidden=2)
        np.testing.assert_allclose(out[0, :2], out[0, 2:], atol=1e-12)

    def test_time_reversal_symmetry(self):
        # With shared direction weights, reversing time swaps the halves.
        rng = np.random.default_rng(6)
        params = lstm_params(rng, d=3, hidden=2, shared=True)
        x = rng.normal(size=(5, 3))
        fwd = bilstm_forward(x, params, hidden=2)
        rev = bilstm_forward(x[::-1], params, hidden=2)
        swapped = np.concatenate([fwd[:, 2:], fwd[:, :2]], axis=1)[::-1]
        np.testing.assert_allclose(rev, swapped, atol=1e-12)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d, hidden, t = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 7))
            params = lstm_params(rng, d, hidden)
            x = rng.normal(size=(t, d))
            np.testing.assert_allclose(
                bilstm_forward(x, params, hidden), bilstm_oracle(x, params, hidden), atol=1e-5
            )

    def test_shape_mismatch(self):
        params = lstm_params(np.random.default_rng(0), d=3, hidden=2)
        with pytest.raises(ShapeError):
            bilstm_forward(np.zeros((4, 5)), params, hidden=2)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 8), st.integers(1, 12),
        st.sampled_from([0.4, 4.0, 400.0]), st.integers(0, 2**32 - 1),
    )
    def test_equal_to_the_per_gate_masked_sigmoid(self, d, hidden, t, scale, seed):
        # Scale 400 drives gate inputs past |z| = 700, where exp underflows.
        rng = np.random.default_rng(seed)
        params = lstm_params(rng, d, hidden, scale=scale)
        x = rng.normal(size=(t, d))
        np.testing.assert_array_equal(
            bilstm_forward(x, params, hidden), bilstm_masked_oracle(x, params, hidden)
        )


class TestAttention:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        params = attention_params(rng, d=6, heads=2, d_att=4)
        weights = attention_weights(rng.normal(size=(5, 6)), 2, 4, params)
        for att in weights:
            np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-6)

    def test_single_position(self):
        rng = np.random.default_rng(9)
        params = attention_params(rng, d=6, heads=2, d_att=4)
        x = rng.normal(size=(1, 6))
        out = multi_head_self_attention(x, 2, 4, params)
        v = np.concatenate([x @ params["h0.wv"], x @ params["h1.wv"]], axis=1)
        np.testing.assert_allclose(out, v @ params["wo"] + params["bo"], atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        params = attention_params(rng, d=6, heads=2, d_att=4)
        x = rng.normal(size=(7, 6))
        perm = rng.permutation(7)
        out = multi_head_self_attention(x, 2, 4, params)
        out_perm = multi_head_self_attention(x[perm], 2, 4, params)
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            d, heads = int(rng.integers(2, 7)), 2
            d_att = 2 * int(rng.integers(1, 4))
            t = int(rng.integers(1, 6))
            params = attention_params(rng, d, heads, d_att)
            x = rng.normal(size=(t, d))
            np.testing.assert_allclose(
                multi_head_self_attention(x, heads, d_att, params),
                attention_oracle(x, heads, d_att, params),
                atol=1e-5,
            )


class TestPooling:
    def test_stat_pool_constant(self):
        v = np.array([1.0, -2.0, 3.0])
        out = global_stat_pool(np.tile(v, (5, 1)))
        np.testing.assert_allclose(out[:3], v)
        np.testing.assert_allclose(out[3:], 0.0)

    def test_stat_pool_zero_two(self):
        out = global_stat_pool(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_stat_pool_matches_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(9, 4))
        np.testing.assert_allclose(global_stat_pool(x), stat_pool_oracle(x), atol=1e-6)

    def test_stat_pool_empty(self):
        with pytest.raises(EmptyInputError):
            global_stat_pool(np.zeros((0, 3)))

    def test_avg_pool_freq_single_bin(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4, 1))
        np.testing.assert_allclose(global_avg_pool_freq(x), x[:, :, 0].T)

    def test_avg_pool_freq_constant(self):
        x = np.stack([np.full((4, 6), 2.0), np.full((4, 6), -1.0)])
        out = global_avg_pool_freq(x)
        np.testing.assert_allclose(out, np.tile([2.0, -1.0], (4, 1)))

    def test_avg_pool_freq_matches_oracle(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 5, 4))
        np.testing.assert_allclose(global_avg_pool_freq(x), avg_pool_freq_oracle(x), atol=1e-7)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert sigmoid(np.zeros(1))[0] == 0.5

    def test_sigmoid_extremes_stay_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert 0.0 <= out[0] < 1e-12
        assert 1.0 - 1e-12 < out[1] <= 1.0

    def test_sigmoid_bytes_equal_masked_form_on_a_million_values(self):
        rng = np.random.default_rng(17)
        x = np.concatenate([
            [0.0, -0.0, 700.0, -700.0, 745.2, -745.2, 1000.0, -1000.0],
            rng.normal(0.0, 1.0, 400_000),
            rng.normal(0.0, 40.0, 400_000),
            rng.uniform(-1200.0, 1200.0, 199_992),
        ])
        assert sigmoid(x).tobytes() == sigmoid_masked_oracle(x).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 700.0, -700.0, 1000.0, -1000.0]),
            st.floats(700.0, 1e6).flatmap(lambda v: st.sampled_from([v, -v])),
        ),
        min_size=1, max_size=40,
    ))
    def test_sigmoid_bytes_equal_masked_form(self, values):
        x = np.array(values)
        assert sigmoid(x).tobytes() == sigmoid_masked_oracle(x).tobytes()

    def test_relu(self):
        np.testing.assert_allclose(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    @pytest.mark.parametrize(
        "x, dtype",
        [
            (np.array([-1.0, 2.0], dtype=np.float32), np.float32),
            (np.array([-1.0, 2.0]), np.float64),
            ([-1, 2], np.float64),
        ],
    )
    def test_relu_keeps_float_dtype(self, x, dtype):
        out = relu(x)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_affine_identity(self):
        x = np.random.default_rng(15).normal(size=(4, 3))
        np.testing.assert_allclose(affine(x, np.eye(3), np.zeros(3)), x)

    def test_affine_shape_error(self):
        with pytest.raises(ShapeError):
            affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


class TestFiniteDiff:
    def test_quadratic(self):
        params = {"x": np.array([3.0])}
        analytic = {"x": np.array([6.0])}
        err = finite_diff_check(lambda p: float(p["x"][0] ** 2), params, analytic, h=1e-4)
        assert err < 1e-6
        assert params["x"][0] == 3.0  # restored after probing

    def test_detects_wrong_gradient(self):
        params = {"x": np.array([3.0])}
        wrong = {"x": np.array([5.0])}
        err = finite_diff_check(lambda p: float(p["x"][0] ** 2), params, wrong, h=1e-4)
        assert err > 0.05
