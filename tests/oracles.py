"""Independent naive-loop reference implementations for the neural layers
and the clustering kernels.

These deliberately avoid the vectorized code paths in diarkit.nn and
diarkit.clustering: explicit Python loops, per-element arithmetic, and their
own padding bookkeeping. The clustering oracles are the pairwise loops that
`ahc` and `assign_with_overlap` replaced, and the loops that
`select_two_speakers` (`np.bincount` and a stable `np.argsort`) and
`_canonical_labels` (`np.unique`) replaced. `assignment_matrix_oracle` is the
frame matrix that `run_rounds` once rebuilt to test convergence, where it
now compares turns. `compute_der_grid_oracle` is the
1 ms boolean-grid DER scorer with an exhaustive permutation mapping that the
interval sweep in `diarkit.metrics.compute_der` replaced. The two
`*_tracks_oracle` functions are the detectors' `tracks(buf, targets)`, which
redid the per-recording work on every call, as `bind(buf)` replaced them.

The float64 neural path that the float32 trunk replaced is kept verbatim as
exact references: `sigmoid_masked_oracle` and `bilstm_masked_oracle` (the
logistic with its two masked branches, and the LSTM that called it once per
gate), `conv2d_tensordot_oracle` (the float64 `conv2d` before it summed
one GEMM per kernel row over channels-last patches), and
`resnet_forward_oracle` (the trunk that ran each conv, then its batch norm,
in float64 from the weight store).

The hand-written turn assemblies that `Diarization.from_regions` replaced
are kept as its oracles: `mask_turns_oracle` (`tsvad.postprocess`),
`cluster_turns_oracle` (`pipeline.diarize_ncts`) and
`single_speaker_oracle` (`pipeline._single_speaker_fallback`).
`target_samples_oracle` is the running-sum loop that cut round targets from
the recording before `extract_target_embeddings` used
`AudioBuffer.slice_seconds`.

The whole-recording forms that block-by-block work replaced:
`stft_magnitude_oracle` windows and transforms every frame at once,
`spectral_tracks_oracle` builds every frame's profile from it, and
`resample_to_8k_oracle` low-passes the whole recording with one
`np.convolve` before it decimates.
`spectral_embed_oracle` is `SpectralEmbedder` on one buffer, with its own
STFT, before segments shared one STFT per run; `per_segment` turns such a
one-buffer embedder into the `embedder(buf, segments)` form, cutting each
segment with `slice_seconds` as `_embed_segments` once did.

`band_profile_oracle` and `median_filter_oracle` are `stubs._band_profile`
and `tsvad.median_filter` as they were before a sort and a partition took
their order statistics: each calls `np.median`. `spectral_tracks_oracle`
and `spectral_embed_oracle` build their profiles with `band_profile_oracle`,
so they share no code with the stub they check.

`parse_rttm_oracle` is the RTTM reader before `parse_rttm` grouped turns by
file id: one checked `RttmTurn` per SPEAKER line, then a filter that built
each turn of one file id as a `(Segment, speaker)` pair.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from diarkit.audio import (
    DECIMATION_CUTOFF_HZ,
    DECIMATION_TAPS,
    FRAME_SHIFT_S,
    NFFT,
    frame_signal,
    log_mel,
    mean_normalize,
)
from diarkit.clustering import Clustering
from diarkit.config import records
from diarkit.errors import (
    EmptyInputError,
    FormatError,
    InputError,
    LineError,
    NumericError,
    ParameterError,
)
from diarkit.metrics import FRAME_S, DerReport
from diarkit.models import EMBED_BINS, EMBED_DIM, STAGE_STRIDES
from diarkit.nn import batch_norm_infer
from diarkit.segments import Diarization, Segment, mask_to_segments, merge_segments

MAX_MAPPED_SPEAKERS = 8


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


def _same_pad(size, kernel, stride):
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def conv2d_tensordot_oracle(x, kernel, stride=(1, 1), pad="same"):
    """The float64 `conv2d`: strided windows contracted by `np.tensordot`."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    c_out, c_in, kh, kw = kernel.shape
    sh, sw = stride
    if pad == "same":
        x = np.pad(x, ((0, 0), _same_pad(x.shape[1], kh, sh), _same_pad(x.shape[2], kw, sw)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::sh, ::sw]
    return np.tensordot(kernel, windows, axes=([1, 2, 3], [0, 3, 4]))


def resnet_forward_oracle(store, prefix, widths, blocks, x):
    """The float64 trunk: each conv, then its batch norm from the store's
    statistics; x[1,T,F] in, [C_last, T, F'] out."""

    def conv(name, v, stride=(1, 1)):
        return conv2d_tensordot_oracle(v, store.get64(f"{name}.kernel"), stride)

    def bn(name, v):
        stats = (store.get64(f"{name}.{k}") for k in ("gamma", "beta", "mean", "var"))
        return batch_norm_infer(v, *stats)

    def relu(v):
        return np.maximum(v, 0.0)

    y = relu(bn(f"{prefix}.stem.bn", conv(f"{prefix}.stem.conv", x)))
    in_ch = widths[0]
    for s, (width, n_blocks) in enumerate(zip(widths, blocks)):
        for b in range(n_blocks):
            base = f"{prefix}.stage{s}.block{b}"
            stride = STAGE_STRIDES[s] if b == 0 else (1, 1)
            out = relu(bn(f"{base}.bn1", conv(f"{base}.conv1", y, stride)))
            out = bn(f"{base}.bn2", conv(f"{base}.conv2", out))
            if in_ch != width or stride != (1, 1):
                shortcut = bn(f"{base}.down.bn", conv(f"{base}.down.conv", y, stride))
            else:
                shortcut = y
            y = relu(out + shortcut)
            in_ch = width
    return y


def sigmoid_masked_oracle(x):
    """The logistic split by sign, each branch computed on its own mask."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _lstm_masked_direction(x, w_x, w_h, b, hidden):
    pre_x = x @ w_x + b
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = np.empty((x.shape[0], hidden))
    for t in range(x.shape[0]):
        z = pre_x[t] + h @ w_h
        i = sigmoid_masked_oracle(z[:hidden])
        f = sigmoid_masked_oracle(z[hidden : 2 * hidden])
        g = np.tanh(z[2 * hidden : 3 * hidden])
        o = sigmoid_masked_oracle(z[3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def bilstm_masked_oracle(x, params, hidden):
    """The BiLSTM whose steps called the masked sigmoid once per gate."""
    x = np.asarray(x, dtype=np.float64)

    def p(name):
        return np.asarray(params[name], dtype=np.float64)

    fwd = _lstm_masked_direction(x, p("fw.w_x"), p("fw.w_h"), p("fw.b"), hidden)
    bwd = _lstm_masked_direction(x[::-1], p("bw.w_x"), p("bw.w_h"), p("bw.b"), hidden)[::-1]
    return np.concatenate([fwd, bwd], axis=1)


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


def select_two_speakers_oracle(labels, durations):
    """The two cluster labels with the most total duration, by a running
    sum per cluster and a sort on (-duration, label); None under two
    clusters."""
    k = int(max(labels)) + 1 if len(labels) else 0
    if k < 2:
        return None
    totals = np.zeros(k)
    for label, duration in zip(labels, durations):
        totals[label] += duration
    ranked = sorted(range(k), key=lambda c: (-totals[c], c))
    return ranked[0], ranked[1]


def canonical_labels_oracle(labels):
    """Labels renumbered 0, 1, ... in order of first appearance."""
    remap = {}
    out = np.empty_like(labels)
    for i, lab in enumerate(labels):
        if lab not in remap:
            remap[lab] = len(remap)
        out[i] = remap[lab]
    return out


def assignment_matrix_oracle(diar, speakers, n_frames):
    """Speakers x frames booleans: frame i of a speaker's row is on iff its
    start, i * 10 ms, lies in one of that speaker's turns."""
    out = np.zeros((len(speakers), n_frames), dtype=bool)
    for seg, spk in diar.turns:
        row = speakers.index(spk)
        for i in range(n_frames):
            if seg.start_s / FRAME_SHIFT_S - 1e-9 <= i < seg.end_s / FRAME_SHIFT_S - 1e-9:
                out[row, i] = True
    return out


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


def scored_overlap_oracle(ref, hyp, collar_s=0.0, score_overlap=True, uem=None):
    """{(ref speaker, hyp speaker): scored frames where both speak}, from
    Python sets of 1 ms frames, independent of both DER scorers."""

    def frame(t):
        return int(math.floor(t / FRAME_S + 0.5))

    def frames(turns):
        out = {}
        for seg, spk in turns:
            out.setdefault(spk, set()).update(range(frame(seg.start_s), frame(seg.end_s)))
        return out

    ref_frames, hyp_frames = frames(ref.turns), frames(hyp.turns)
    uem_frames = frames([(seg, "uem") for seg in uem or []]).get("uem", set())
    ends = [seg.end_s for seg, _ in ref.turns + hyp.turns] + [seg.end_s for seg in uem or []]
    n = max(frame(t) for t in ends)
    scored = set(range(n)) if uem is None else uem_frames
    half = frame(collar_s) if collar_s > 0.0 else 0
    for seg, _ in ref.turns:
        for centre in (frame(seg.start_s), frame(seg.end_s)):
            scored -= set(range(max(0, centre - half), min(n, centre + half)))
    if not score_overlap:
        for a, b in itertools.combinations(ref_frames.values(), 2):
            scored -= a & b
    return {
        (r, h): len(rf & hf & scored)
        for r, rf in ref_frames.items()
        for h, hf in hyp_frames.items()
    }


def _frame_index(t: float, frame_s: float) -> int:
    return int(np.floor(t / frame_s + 0.5))


def _speaker_frames(
    diar: Diarization, n_frames: int, frame_s: float
) -> dict[str, np.ndarray]:
    masks: dict[str, np.ndarray] = {}
    for seg, spk in diar.turns:
        mask = masks.setdefault(spk, np.zeros(n_frames, dtype=bool))
        lo = _frame_index(seg.start_s, frame_s)
        hi = min(_frame_index(seg.end_s, frame_s), n_frames)
        if hi > lo:
            mask[lo:hi] = True
    return masks


def _best_mapping(overlap: np.ndarray) -> tuple[int, list[tuple[int, int]]]:
    """Exhaustive one-to-one assignment maximizing total overlap.

    Rows are reference speakers, columns hypothesis speakers; returns the
    matched frame count and the (ref, hyp) pairs of the best assignment.
    """
    n_ref, n_hyp = overlap.shape
    if n_ref == 0 or n_hyp == 0:
        return 0, []
    best_total, best_pairs = -1, []
    if n_hyp <= n_ref:
        for perm in itertools.permutations(range(n_ref), n_hyp):
            total = sum(overlap[r, h] for h, r in enumerate(perm))
            if total > best_total:
                best_total = total
                best_pairs = [(r, h) for h, r in enumerate(perm)]
    else:
        for perm in itertools.permutations(range(n_hyp), n_ref):
            total = sum(overlap[r, h] for r, h in enumerate(perm))
            if total > best_total:
                best_total = total
                best_pairs = [(r, h) for r, h in enumerate(perm)]
    return int(best_total), best_pairs


def compute_der_grid_oracle(
    ref: Diarization,
    hyp: Diarization,
    collar_s: float = 0.0,
    score_overlap: bool = True,
    frame_s: float = FRAME_S,
    uem: list[Segment] | None = None,
) -> DerReport:
    """Diarization error rate of `hyp` against `ref` on a common frame grid."""
    if ref.recording_id != hyp.recording_id:
        raise InputError(
            f"recording mismatch: ref {ref.recording_id!r} vs hyp {hyp.recording_id!r}"
        )
    end = 0.0
    for seg, _ in list(ref.turns) + list(hyp.turns):
        end = max(end, seg.end_s)
    if uem:
        end = max(end, max(seg.end_s for seg in uem))
    n = _frame_index(end, frame_s)
    if n == 0:
        raise InputError("nothing to score: reference and hypothesis are empty")

    ref_masks = _speaker_frames(ref, n, frame_s)
    hyp_masks = _speaker_frames(hyp, n, frame_s)
    if len(ref_masks) > MAX_MAPPED_SPEAKERS or len(hyp_masks) > MAX_MAPPED_SPEAKERS:
        raise InputError(
            f"exhaustive mapping supports <= {MAX_MAPPED_SPEAKERS} speakers per side"
        )

    scored = np.ones(n, dtype=bool)
    if uem is not None:
        scored[:] = False
        for seg in uem:
            lo = _frame_index(seg.start_s, frame_s)
            hi = min(_frame_index(seg.end_s, frame_s), n)
            scored[lo:hi] = True
    if collar_s > 0.0:
        half = _frame_index(collar_s, frame_s)
        for seg, _ in ref.turns:
            for boundary in (seg.start_s, seg.end_s):
                center = _frame_index(boundary, frame_s)
                scored[max(0, center - half) : min(n, center + half)] = False

    ref_stack = (
        np.stack([m for m in ref_masks.values()]) if ref_masks else np.zeros((0, n), dtype=bool)
    )
    hyp_stack = (
        np.stack([m for m in hyp_masks.values()]) if hyp_masks else np.zeros((0, n), dtype=bool)
    )
    ref_stack = ref_stack & scored
    hyp_stack = hyp_stack & scored
    if not score_overlap:
        non_overlap = ref_stack.sum(axis=0) <= 1
        ref_stack = ref_stack & non_overlap
        hyp_stack = hyp_stack & non_overlap

    n_ref = ref_stack.sum(axis=0).astype(np.int64)
    n_hyp = hyp_stack.sum(axis=0).astype(np.int64)
    overlap = (ref_stack.astype(np.int64) @ hyp_stack.T.astype(np.int64))
    matched, pairs = _best_mapping(overlap)

    total_ref = int(n_ref.sum())
    if total_ref == 0:
        raise InputError("reference has no scored speaker time")
    miss = int(np.maximum(n_ref - n_hyp, 0).sum())
    false_alarm = int(np.maximum(n_hyp - n_ref, 0).sum())
    confusion = int(np.minimum(n_ref, n_hyp).sum()) - matched

    ref_names = list(ref_masks)
    hyp_names = list(hyp_masks)
    mapping = {hyp_names[h]: ref_names[r] for r, h in pairs}
    report = DerReport(
        der=(miss + false_alarm + confusion) / total_ref,
        miss=miss / total_ref,
        false_alarm=false_alarm / total_ref,
        confusion=confusion / total_ref,
        total_ref_s=total_ref * frame_s,
        mapping=mapping,
    )
    return report


def stft_magnitude_oracle(buf):
    """`stft_magnitude`'s magnitudes, every frame windowed and transformed at
    once."""
    frames = frame_signal(buf)
    window = np.hanning(frames.shape[1])
    return np.abs(np.fft.rfft(frames * window, n=NFFT, axis=1)) / window.sum()


def resample_to_8k_oracle(buf):
    """`resample_to_8k`'s samples, from one full-length convolution of the
    16 kHz samples with the anti-alias filter, then every second sample."""
    if buf.samples.size == 0:
        return np.zeros(0)
    n = np.arange(DECIMATION_TAPS) - (DECIMATION_TAPS - 1) / 2
    fc = DECIMATION_CUTOFF_HZ / 16000.0
    h = 2 * fc * np.sinc(2 * fc * n) * np.hamming(DECIMATION_TAPS)
    filtered = np.convolve(buf.samples, h / h.sum(), mode="full")
    delay = (DECIMATION_TAPS - 1) // 2
    return filtered[delay : delay + buf.samples.size][::2]


def band_profile_oracle(magnitudes):
    """`stubs._band_profile`: bin pairs folded by a reshape and a mean, then
    floored at `np.median`."""
    bands = magnitudes[..., 1:257]
    shape = bands.shape[:-1] + (EMBED_DIM, 2)
    profile = bands.reshape(shape).mean(axis=-1)
    floor = np.median(profile, axis=-1, keepdims=True)
    return np.maximum(profile - floor, 0.0)


def median_filter_oracle(track, taps):
    """`tsvad.median_filter`: `np.median` over each window of the reflected
    track, with taps clamped to `2 * len(track) - 1`."""
    n = track.size
    if n == 0:
        return track.copy()
    eff = min(taps, 2 * n - 1)
    half = eff // 2
    padded = np.pad(track, half, mode="reflect") if half else track
    windows = np.lib.stride_tricks.sliding_window_view(padded, eff)
    return np.median(windows, axis=1)


def spectral_tracks_oracle(buf, targets):
    """`SpectralTsvad.tracks(buf, targets)`: per-frame cosine between the
    frame's band profile and each target, clipped to [0, 1]."""
    frames = band_profile_oracle(stft_magnitude_oracle(buf))
    norms = np.linalg.norm(frames, axis=1)
    unit = frames / np.maximum(norms, 1e-12)[:, None]
    out = np.empty((len(targets), frames.shape[0]))
    for row, target in enumerate(targets):
        t = np.asarray(target, dtype=np.float64)
        t = t / max(np.linalg.norm(t), 1e-12)
        out[row] = np.clip(unit @ t, 0.0, 1.0)
    return out


def tsvad_net_tracks_oracle(net, buf, targets):
    """`TsvadNet.tracks(buf, targets)`: features and identity frames, then one
    detection per target."""
    features = mean_normalize(log_mel(buf, EMBED_BINS))
    identity = net.identity_frames(features)
    return np.stack([net.detect(identity, t) for t in targets])


def mask_turns_oracle(recording_id, speaker_ids, assigned):
    """Each speaker's runs of assigned frames, ordered by (start, speaker)."""
    turns = []
    for row, speaker in enumerate(speaker_ids):
        for seg in mask_to_segments(assigned[row]):
            turns.append((seg, speaker))
    turns.sort(key=lambda t: (t[0].start_s, t[1]))
    return Diarization(recording_id, turns)


def cluster_turns_oracle(recording_id, per_speaker):
    """Each cluster's segments merged, ordered by (start, speaker)."""
    turns = [
        (seg, spk)
        for spk, seg_list in sorted(per_speaker.items())
        for seg in merge_segments(seg_list)
    ]
    turns.sort(key=lambda t: (t[0].start_s, t[1]))
    return Diarization(recording_id, turns)


def single_speaker_oracle(recording_id, speech):
    return Diarization(recording_id, [(seg, "spk0") for seg in merge_segments(speech)])


def target_samples_oracle(buf, regions, max_s):
    """The first `max_s` seconds of samples of the unioned `regions`, cut by
    a running sum that stops at the first region of zero samples."""
    budget = int(round(max_s * buf.sample_rate))
    pieces = []
    for seg in merge_segments(regions):
        lo = int(round(seg.start_s * buf.sample_rate))
        hi = int(round(seg.end_s * buf.sample_rate))
        take = min(hi - lo, budget - sum(len(p) for p in pieces))
        if take <= 0:
            break
        pieces.append(buf.samples[lo : lo + take])
    return np.concatenate(pieces)


def spectral_embed_oracle(buf):
    """`SpectralEmbedder` on a whole buffer from its own STFT; raises
    EmptyInputError for silence, or for a buffer shorter than a frame."""
    profile = band_profile_oracle(stft_magnitude_oracle(buf).mean(axis=0)[None, :])[0]
    norm = np.linalg.norm(profile)
    if norm == 0.0:
        raise EmptyInputError("silent segment has no spectral profile")
    return profile / norm


def per_segment(embed_one):
    """`embedder(buf, segments)` from a one-buffer `embed_one(buf)`: each
    segment cut with `slice_seconds`, and None where `embed_one` raises
    EmptyInputError."""

    def embedder(buf, segments):
        out = []
        for seg in segments:
            try:
                out.append(embed_one(buf.slice_seconds(seg.start_s, seg.end_s)))
            except EmptyInputError:
                out.append(None)
        return out

    return embedder


@dataclass(frozen=True)
class RttmTurn:
    file_id: str
    onset_s: float
    duration_s: float
    speaker: str

    def __post_init__(self):
        if not (0 <= self.onset_s < math.inf and 0 < self.duration_s < math.inf):
            raise FormatError(
                f"invalid turn: onset {self.onset_s}, duration {self.duration_s}"
            )


def parse_rttm_oracle(text, file_id):
    """The `(Segment, speaker)` turns of `file_id` in `text`, in file order;
    every SPEAKER line is checked first, whatever its file id."""
    turns = []
    for lineno, line in records(text, ";;"):
        parts = line.split()
        if parts[0] != "SPEAKER":
            continue
        if len(parts) < 8:
            raise LineError(lineno, f"SPEAKER line has {len(parts)} fields, need >= 8")
        try:
            onset, dur = float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise LineError(lineno, "non-numeric onset/duration") from exc
        try:
            turns.append(RttmTurn(parts[1], onset, dur, parts[7]))
        except FormatError as exc:
            raise LineError(lineno, str(exc)) from exc
    selected = [t for t in turns if t.file_id == file_id]
    return [(Segment(t.onset_s, t.onset_s + t.duration_s), t.speaker) for t in selected]
