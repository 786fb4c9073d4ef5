"""Independent naive-loop reference implementations for the neural layers
and the clustering kernels.

These deliberately avoid the vectorized code paths in diarkit.nn and
diarkit.clustering: explicit Python loops, per-element arithmetic, and their
own padding bookkeeping. The clustering oracles are the pairwise loops that
`ahc` and `assign_with_overlap` replaced.
"""

import math

import numpy as np

from diarkit.clustering import Clustering
from diarkit.errors import NumericError, ParameterError


def conv2d_oracle(x, kernel, stride=(1, 1), pad="same"):
    c_out, c_in, kh, kw = kernel.shape
    _, h, w = x.shape
    sh, sw = stride
    if pad == "same":
        out_h = math.ceil(h / sh)
        out_w = math.ceil(w / sw)
        pad_h = max((out_h - 1) * sh + kh - h, 0)
        pad_w = max((out_w - 1) * sw + kw - w, 0)
        top, left = pad_h // 2, pad_w // 2
    else:
        out_h = (h - kh) // sh + 1
        out_w = (w - kw) // sw + 1
        top = left = 0
    out = np.zeros((c_out, out_h, out_w))
    for co in range(c_out):
        for oy in range(out_h):
            for ox in range(out_w):
                acc = 0.0
                for ci in range(c_in):
                    for ky in range(kh):
                        for kx in range(kw):
                            iy = oy * sh + ky - top
                            ix = ox * sw + kx - left
                            if 0 <= iy < h and 0 <= ix < w:
                                acc += x[ci, iy, ix] * kernel[co, ci, ky, kx]
                out[co, oy, ox] = acc
    return out


def batch_norm_oracle(x, gamma, beta, mean, var, eps=1e-5):
    out = np.zeros_like(x, dtype=float)
    flat = x.reshape(x.shape[0], -1)
    out_flat = out.reshape(x.shape[0], -1)
    for c in range(x.shape[0]):
        for i in range(flat.shape[1]):
            out_flat[c, i] = (flat[c, i] - mean[c]) / math.sqrt(var[c] + eps) * gamma[c] + beta[c]
    return out


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def lstm_oracle_direction(x, w_x, w_h, b, hidden):
    t_len, d = x.shape
    h = [0.0] * hidden
    c = [0.0] * hidden
    out = np.zeros((t_len, hidden))
    for t in range(t_len):
        z = [0.0] * (4 * hidden)
        for j in range(4 * hidden):
            acc = b[j]
            for i in range(d):
                acc += x[t, i] * w_x[i, j]
            for i in range(hidden):
                acc += h[i] * w_h[i, j]
            z[j] = acc
        new_c = [0.0] * hidden
        new_h = [0.0] * hidden
        for j in range(hidden):
            i_g = _sig(z[j])
            f_g = _sig(z[hidden + j])
            g_g = math.tanh(z[2 * hidden + j])
            o_g = _sig(z[3 * hidden + j])
            new_c[j] = f_g * c[j] + i_g * g_g
            new_h[j] = o_g * math.tanh(new_c[j])
        h, c = new_h, new_c
        out[t] = h
    return out


def bilstm_oracle(x, params, hidden):
    fwd = lstm_oracle_direction(x, params["fw.w_x"], params["fw.w_h"], params["fw.b"], hidden)
    bwd = lstm_oracle_direction(
        x[::-1], params["bw.w_x"], params["bw.w_h"], params["bw.b"], hidden
    )[::-1]
    return np.concatenate([fwd, bwd], axis=1)


def attention_oracle(x, heads, d_att, params):
    t_len = x.shape[0]
    d_head = d_att // heads
    parts = []
    for h in range(heads):
        q = x @ params[f"h{h}.wq"]
        k = x @ params[f"h{h}.wk"]
        v = x @ params[f"h{h}.wv"]
        head_out = np.zeros((t_len, d_head))
        for i in range(t_len):
            scores = [sum(q[i, a] * k[j, a] for a in range(d_head)) / math.sqrt(d_head)
                      for j in range(t_len)]
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            total = sum(exps)
            weights = [e / total for e in exps]
            for a in range(d_head):
                head_out[i, a] = sum(weights[j] * v[j, a] for j in range(t_len))
        parts.append(head_out)
    concat = np.concatenate(parts, axis=1)
    return concat @ params["wo"] + params["bo"]


def stat_pool_oracle(x):
    t_len, d = x.shape
    out = np.zeros(2 * d)
    for j in range(d):
        mean = sum(x[t, j] for t in range(t_len)) / t_len
        var = sum((x[t, j] - mean) ** 2 for t in range(t_len)) / t_len
        out[j] = mean
        out[d + j] = math.sqrt(var)
    return out


def avg_pool_freq_oracle(x):
    c, t_len, f = x.shape
    out = np.zeros((t_len, c))
    for ch in range(c):
        for t in range(t_len):
            out[t, ch] = sum(x[ch, t, j] for j in range(f)) / f
    return out


def cosine_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise NumericError("cosine similarity of a zero vector")
    return float(a @ b / (na * nb))


def ahc_oracle(segs, stop_threshold):
    if not segs:
        raise ParameterError("ahc needs at least one segment")
    embeddings = np.stack([e.embedding for e in segs])
    members = [[i] for i in range(len(segs))]
    centers = [embeddings[i].copy() for i in range(len(segs))]
    while len(members) > 1:
        best_pair, best_sim = None, -np.inf
        for i in range(len(members) - 1):
            for j in range(i + 1, len(members)):
                sim = cosine_oracle(centers[i], centers[j])
                if sim > best_sim + 1e-12:
                    best_pair, best_sim = (i, j), sim
        if best_sim < stop_threshold:
            break
        i, j = best_pair
        members[i] = members[i] + members[j]
        centers[i] = embeddings[members[i]].mean(axis=0)
        del members[j]
        del centers[j]
    order = sorted(range(len(members)), key=lambda c: min(members[c]))
    labels = np.empty(len(segs), dtype=int)
    for new_idx, c in enumerate(order):
        for item in members[c]:
            labels[item] = new_idx
    return Clustering(labels, np.stack([centers[c] for c in order]))


def assign_with_overlap_oracle(segs, center_a, center_b, overlap_threshold):
    list_a = []
    list_b = []
    for seg in segs:
        sim_a = cosine_oracle(seg.embedding, center_a)
        sim_b = cosine_oracle(seg.embedding, center_b)
        if min(sim_a, sim_b) > overlap_threshold:
            list_a.append(seg)
            list_b.append(seg)
        elif sim_a >= sim_b:
            list_a.append(seg)
        else:
            list_b.append(seg)
    return list_a, list_b
