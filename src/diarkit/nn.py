"""Dense neural layers on numpy arrays: conv, batch norm, BiLSTM, attention,
pooling, affine maps, and finite-difference gradient checking.

Conventions:
  - no batch dimension; one recording/sequence at a time
  - row-vector affine maps: y = x @ W + b with W shaped [d_in, d_out]
  - LSTM gate order in packed weights is (input, forget, candidate, output)
  - convolution is cross-correlation; "same" padding follows the
    ceil(in/stride) output-size rule with the extra pad sample at the end
  - conv2d takes and returns [C, H, W] arrays, but computes on [H, W, C]
    memory and returns a view of it; elementwise numpy ops keep that layout,
    so a stack of convs never transposes between layers
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from .errors import EmptyInputError, NumericError, ShapeError


def sigmoid(x):
    """Logistic function without overflow: exp only ever sees -|x|."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def relu(x):
    """max(x, 0) in the dtype of a float input; other input gives float64."""
    return np.maximum(x, 0.0)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: input dim {x.shape[-1]} vs weight rows {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine: bias shape {b.shape} vs weight cols {w.shape[1]}")
    return x @ w + b


def _same_pad(size: int, kernel: int, stride: int) -> tuple[int, int]:
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    pad: str = "same",
) -> np.ndarray:
    """Cross-correlate x[C_in,H,W] with kernel[C_out,C_in,kh,kw]; returns
    [C_out,H',W'] as a view of channels-last memory, so `out.transpose(1, 2, 0)`
    is C-contiguous.

    Computes in float32 when both x and kernel are float32, in float64
    otherwise. The padded input is laid out [H,W,C_in], and one patch row of
    kw*C_in values is copied for each (padded row, output column); kernel row
    i reads the patch rows i, i+sh, ..., so the conv is kh GEMMs summed into
    one output (Anderson et al. 2017). The patch copy is kw times the padded
    input, not kh*kw times, and an output laid out channels-last, or ufuncs
    applied to it, feed the next conv without a transpose.
    """
    x, kernel = np.asarray(x), np.asarray(kernel)
    dtype = np.float32 if x.dtype == kernel.dtype == np.float32 else np.float64
    if x.ndim != 3 or kernel.ndim != 4:
        raise ShapeError("conv2d expects x[C,H,W] and kernel[Cout,Cin,kh,kw]")
    c_out, c_in, kh, kw = kernel.shape
    c, h, w = x.shape
    if c != c_in:
        raise ShapeError(f"conv2d: {c} input channels vs kernel {c_in}")
    sh, sw = stride
    if pad == "same":
        (top, bottom), (left, right) = _same_pad(h, kh, sh), _same_pad(w, kw, sw)
    elif pad == "valid":
        top = bottom = left = right = 0
    else:
        raise ShapeError(f"unknown padding {pad!r}")
    hp, wp = h + top + bottom, w + left + right
    if hp < kh or wp < kw:
        raise ShapeError("conv2d: input smaller than kernel with valid padding")
    out_h, out_w = (hp - kh) // sh + 1, (wp - kw) // sw + 1
    padded = np.zeros((hp, wp, c_in), dtype)
    padded[top : top + h, left : left + w] = x.transpose(1, 2, 0)
    # The kw*C_in values of one patch row are contiguous in `padded`.
    windows = np.lib.stride_tricks.sliding_window_view(padded.reshape(hp, wp * c_in), kw * c_in, axis=1)
    patches = np.ascontiguousarray(windows[:, :: sw * c_in])  # [hp, W', kw*C_in]
    del padded, windows
    # Each kernel row as [C_out, kw*C_in], which the GEMM reads transposed:
    # packing it reads each output channel's weights as one block of `kernel`,
    # where packing [kw*C_in, C_out] strides across all of them (4x slower at
    # 256 channels).
    taps = kernel.astype(dtype, copy=False).transpose(2, 0, 3, 1).reshape(kh, c_out, kw * c_in)

    def rows(i):
        return patches[i : i + (out_h - 1) * sh + 1 : sh].reshape(out_h * out_w, kw * c_in)

    out = rows(0) @ taps[0].T
    for i in range(1, kh):
        out += rows(i) @ taps[i].T
    return out.reshape(out_h, out_w, c_out).transpose(2, 0, 1)


def batch_norm_infer(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Per-channel normalization of x[C,...] with frozen statistics."""
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[0]
    for name, p in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if np.asarray(p).shape != (c,):
            raise ShapeError(f"batch_norm_infer: {name} length {np.asarray(p).shape} vs {c} channels")
    shape = (c,) + (1,) * (x.ndim - 1)
    scale = (np.asarray(gamma, dtype=np.float64) / np.sqrt(np.asarray(var, dtype=np.float64) + eps)).reshape(shape)
    shift = np.asarray(beta, dtype=np.float64).reshape(shape) - np.asarray(mean, dtype=np.float64).reshape(shape) * scale
    return x * scale + shift


def _lstm_direction(x: np.ndarray, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray, hidden: int) -> np.ndarray:
    t_len, d = x.shape
    if w_x.shape != (d, 4 * hidden):
        raise ShapeError(f"lstm: w_x shape {w_x.shape}, expected {(d, 4 * hidden)}")
    if w_h.shape != (hidden, 4 * hidden):
        raise ShapeError(f"lstm: w_h shape {w_h.shape}, expected {(hidden, 4 * hidden)}")
    if b.shape != (4 * hidden,):
        raise ShapeError(f"lstm: bias shape {b.shape}, expected {(4 * hidden,)}")
    pre_x = x @ w_x + b
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = np.empty((t_len, hidden))
    for t in range(t_len):
        z = pre_x[t] + h @ w_h
        gates = sigmoid(z)  # the candidate's slice goes unused; one call beats three
        i, f, o = gates[:hidden], gates[hidden : 2 * hidden], gates[3 * hidden :]
        g = np.tanh(z[2 * hidden : 3 * hidden])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def bilstm_forward(x: np.ndarray, params: Mapping, hidden: int) -> np.ndarray:
    """Run forward and backward LSTM passes and concatenate per frame.

    `params` maps "fw.w_x", "fw.w_h", "fw.b", "bw.w_x", "bw.w_h", "bw.b"
    to arrays; w_x is [D, 4H], w_h is [H, 4H], packed gate order (i, f, g, o).
    """
    x = np.asarray(x, dtype=np.float64)

    def p(name):
        return np.asarray(params[name], dtype=np.float64)

    fwd = _lstm_direction(x, p("fw.w_x"), p("fw.w_h"), p("fw.b"), hidden)
    bwd = _lstm_direction(x[::-1], p("bw.w_x"), p("bw.w_h"), p("bw.b"), hidden)[::-1]
    return np.concatenate([fwd, bwd], axis=1)


def multi_head_self_attention(
    x: np.ndarray, heads: int, d_att: int, params: Mapping
) -> np.ndarray:
    """Scaled dot-product self-attention; heads concatenated then projected.

    `params` maps "h{i}.wq", "h{i}.wk", "h{i}.wv" ([D, d_att/heads] each)
    plus "wo" ([d_att, D_out]) and "bo" ([D_out]). No positional encoding,
    so outputs are equivariant to permutations of the time axis.
    """
    out, _ = _attention_forward(np.asarray(x, dtype=np.float64), heads, d_att, params)
    return out


def _attention_forward(x, heads, d_att, params):
    if d_att % heads:
        raise ShapeError(f"d_att {d_att} not divisible by {heads} heads")
    d_head = d_att // heads

    def p(name):
        return np.asarray(params[name], dtype=np.float64)

    cache = {"x": x, "heads": []}
    concat = []
    for h in range(heads):
        wq, wk, wv = p(f"h{h}.wq"), p(f"h{h}.wk"), p(f"h{h}.wv")
        for name, w in (("wq", wq), ("wk", wk), ("wv", wv)):
            if w.shape != (x.shape[1], d_head):
                raise ShapeError(
                    f"attention h{h}.{name}: shape {w.shape}, expected {(x.shape[1], d_head)}"
                )
        q, k, v = x @ wq, x @ wk, x @ wv
        scores = (q @ k.T) / np.sqrt(d_head)
        att = softmax_rows(scores)
        concat.append(att @ v)
        cache["heads"].append({"wq": wq, "wk": wk, "wv": wv, "q": q, "k": k, "v": v, "att": att})
    c = np.concatenate(concat, axis=1)
    wo, bo = p("wo"), p("bo")
    if wo.shape[0] != d_att:
        raise ShapeError(f"attention wo: rows {wo.shape[0]}, expected {d_att}")
    cache["concat"] = c
    cache["wo"], cache["bo"] = wo, bo
    return c @ wo + bo, cache


def attention_weights(x: np.ndarray, heads: int, d_att: int, params: Mapping) -> list[np.ndarray]:
    """Per-head softmax attention matrices (diagnostics and tests)."""
    _, cache = _attention_forward(np.asarray(x, dtype=np.float64), heads, d_att, params)
    return [h["att"] for h in cache["heads"]]


def global_stat_pool(x: np.ndarray) -> np.ndarray:
    """Concatenated per-dimension mean and population std over time."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise EmptyInputError("global_stat_pool needs a nonempty [T, D] input")
    return np.concatenate([x.mean(axis=0), x.std(axis=0)])


def global_avg_pool_freq(x: np.ndarray) -> np.ndarray:
    """Mean over the frequency axis of x[C,T,F], returned frame-major [T,C]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError("global_avg_pool_freq expects x[C,T,F]")
    return x.mean(axis=2).T


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Fan-in-scaled uniform init, returned as float32 for weight stores."""
    limit = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def finite_diff_check(
    f: Callable[[dict[str, np.ndarray]], float],
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    h: float = 1e-4,
    probes: int = 20,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic gradients and central differences.

    Samples `probes` coordinates per parameter (all coordinates when the
    parameter is smaller than that) and returns
    max |g_a - g_n| / max(1e-8, |g_a| + |g_n|).
    """
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for name, grad in analytic.items():
        arr = params[name]
        gflat = np.asarray(grad, dtype=np.float64).reshape(-1)
        if arr.size <= probes:
            idx = np.arange(arr.size)
        else:
            idx = rng.choice(arr.size, size=probes, replace=False)
        for i in idx:
            orig = arr.flat[i]
            arr.flat[i] = orig + h
            up = f(params)
            arr.flat[i] = orig - h
            down = f(params)
            arr.flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"non-finite loss probing {name}[{i}]")
            numeric = (up - down) / (2 * h)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
