"""Network assemblies: VAD, speaker embedding, attentive pair scoring, and
target-speaker detection.

Architecture conventions (the cited designs leave these open; they are fixed
here so weight files are reproducible):
  - ResNet stem: 3x3 conv, stride 1, no max-pool; 3x3 kernels throughout;
    stage strides (1,1),(1,2),(1,2),(1,2) downsample frequency only
  - residual block: conv-bn-relu-conv-bn plus identity (or 1x1-conv-bn
    projection when shape changes), then relu
  - fully-connected stacks use ReLU between layers
  - untrained weights come from seeded fan-in uniform init, so tests are
    reproducible without any trained checkpoint

Numerics: each ResNet trunk runs in float32, with every batch norm folded
into its conv's kernel and bias once, when the model is built; the trunk's
output returns to float64 for pooling, the LSTMs and the affine heads. Each
conv sums one GEMM per kernel row over channels-last patches (`nn.conv2d`);
its [C, T, F] output is a view of [T, F, C] memory, which the bias add, ReLU
and residual add keep, so no layer transposes. Against
a float64 conv-then-batch-norm trunk, tests bound the drift to 1e-5 of the
largest magnitude for trunk maps, identity frames and embeddings, 1e-4 for
detection probabilities and 1e-5 for VAD probabilities.

Weight names are dot-paths under a per-model prefix, e.g.
"embed.resnet.stage2.block0.conv1.kernel"; each model's SPEC lists the full
set with its shapes and seeded init.
"""

from __future__ import annotations

import numpy as np

from . import audio
from .audio import FeatureMatrix
from .errors import EmptyInputError, ShapeError
from .nn import (
    _attention_forward,
    affine,
    batch_norm_infer,
    bilstm_forward,
    conv2d,
    global_avg_pool_freq,
    global_stat_pool,
    he_uniform,
    relu,
    sigmoid,
)
from .weights import WeightStore

VAD_WIDTHS = (16, 32, 64, 128)
VAD_BLOCKS = (2, 2, 2, 2)
EMBED_WIDTHS = (32, 64, 128, 256)
EMBED_BLOCKS = (3, 4, 6, 3)
STAGE_STRIDES = ((1, 1), (1, 2), (1, 2), (1, 2))

VAD_BINS = 32
EMBED_BINS = 80
EMBED_DIM = 128
MIN_EMBED_FRAMES = 25
VAD_LSTM_HIDDEN = 64
TSVAD_LSTM_HIDDEN = 128

V2S_IN = 2 * EMBED_DIM
V2S_FC1 = 256
V2S_HEADS = 2
V2S_ATT = 128
V2S_FC2 = 1024
_HEAD_WEIGHTS = tuple(f"h{h}.{kind}" for h in range(V2S_HEADS) for kind in ("wq", "wk", "wv"))


# ---------------------------------------------------------------------------
# ResNet front-ends


def _freq_out(bins: int) -> int:
    f = bins
    for _, sw in STAGE_STRIDES:
        f = -(-f // sw)
    return f


def _resnet_blocks(widths, blocks):
    """(name, input channels, width, stride, projected) of each residual block;
    a block whose shape changes takes its shortcut through a projection."""
    in_ch = widths[0]
    for s, (width, n_blocks) in enumerate(zip(widths, blocks)):
        for b in range(n_blocks):
            stride = STAGE_STRIDES[s] if b == 0 else (1, 1)
            yield f"stage{s}.block{b}", in_ch, width, stride, in_ch != width or stride != (1, 1)
            in_ch = width


def _resnet_convs(widths, blocks):
    """(conv name, batch-norm name, kernel shape) of each conv, stem first."""
    yield "stem.conv", "stem.bn", (widths[0], 1, 3, 3)
    for base, in_ch, width, _, projected in _resnet_blocks(widths, blocks):
        yield f"{base}.conv1", f"{base}.bn1", (width, in_ch, 3, 3)
        yield f"{base}.conv2", f"{base}.bn2", (width, width, 3, 3)
        if projected:
            yield f"{base}.down.conv", f"{base}.down.bn", (width, in_ch, 1, 1)


# A weight spec lists a network's entries as (name, shape, init), in the order
# their seeded values are drawn: an int init is the fan-in of a `he_uniform`
# draw, a float init a constant fill that draws nothing.


def _resnet_spec(prefix: str, widths, blocks):
    """Each conv's kernel, then its batch norm at the identity."""
    for conv, bn, shape in _resnet_convs(widths, blocks):
        c_out, c_in, k, _ = shape
        yield f"{prefix}.{conv}.kernel", shape, c_in * k * k
        for key, fill in (("gamma", 1.0), ("beta", 0.0), ("mean", 0.0), ("var", 1.0)):
            yield f"{prefix}.{bn}.{key}", (c_out,), fill


def _lstm_spec(prefix: str, d_in: int, hidden: int, layers: int):
    d = d_in
    for layer in range(layers):
        for direction in ("fw", "bw"):
            base = f"{prefix}.l{layer}.{direction}"
            yield f"{base}.w_x", (d, 4 * hidden), d
            yield f"{base}.w_h", (hidden, 4 * hidden), hidden
            yield f"{base}.b", (4 * hidden,), 0.0
        d = 2 * hidden


def _dense_spec(prefix: str, d_in: int, d_out: int):
    yield f"{prefix}.w", (d_in, d_out), d_in
    yield f"{prefix}.b", (d_out,), 0.0


def init_weights(spec, seed: int) -> WeightStore:
    """Seeded weights for every entry of `spec`, drawn in spec order."""
    rng = np.random.default_rng(seed)
    return WeightStore(
        {
            name: he_uniform(rng, shape, init) if isinstance(init, int) else np.full(shape, init)
            for name, shape, init in spec
        }
    )


def _check(store: WeightStore, spec) -> None:
    """Raise ShapeError, naming the entry, unless `store` holds every entry of
    `spec` at its shape."""
    for name, shape, _ in spec:
        if name not in store:
            raise ShapeError(f"missing weight {name!r}")
        got = store.get(name).shape
        if got != shape:
            raise ShapeError(f"weight {name!r}: shape {got}, expected {shape}")


def _fold_conv_bn(store: WeightStore, conv: str, bn: str) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and bias of `conv` followed by `bn`, as one float32 conv.

    Batch norm scales each output channel by gamma / sqrt(var + eps) and
    shifts it by beta - mean * scale. The scale is the batch norm of a ones
    vector with beta = mean = 0, and the bias that of a zero vector, both in
    float64; the float32 kernel is multiplied by the scale rounded to
    float32, one pass that keeps the build cheaper than a float64 copy.
    """
    kernel = store.get(f"{conv}.kernel")
    gamma, beta, mean, var = (store.get(f"{bn}.{k}") for k in ("gamma", "beta", "mean", "var"))
    zero = np.zeros(kernel.shape[0])
    scale = batch_norm_infer(np.ones(kernel.shape[0]), gamma, zero, zero, var).astype(np.float32)
    bias = batch_norm_infer(zero, gamma, beta, mean, var).astype(np.float32)
    return kernel * scale[:, None, None, None], bias.reshape(-1, 1, 1)


def _params(store: WeightStore, spec, trunk) -> dict:
    """A model's weights, read once when it is built.

    Every entry of `spec` is checked here, so a bad file fails before any
    audio is read, and only spec entries are kept. Each conv of the ResNet
    `trunk` becomes one float32 (kernel, bias) pair under its conv name, with
    its batch norm folded in; the other entries become float64 arrays.
    """
    _check(store, spec)
    prefix, widths, blocks = trunk
    p = {
        f"{prefix}.{conv}": _fold_conv_bn(store, f"{prefix}.{conv}", f"{prefix}.{bn}")
        for conv, bn, _ in _resnet_convs(widths, blocks)
    }
    p.update((name, store.get64(name)) for name, _, _ in spec if not name.startswith(f"{prefix}."))
    return p


def _conv(p: dict, name: str, x: np.ndarray, stride=(1, 1)) -> np.ndarray:
    kernel, bias = p[name]
    return conv2d(x, kernel, stride) + bias


def resnet_forward(p: dict, prefix: str, widths, blocks, x: np.ndarray) -> np.ndarray:
    """Run the residual stack on x[1,T,F] in float32; returns [C_last, T, F']
    in float64."""
    y = relu(_conv(p, f"{prefix}.stem.conv", x.astype(np.float32)))
    for base, _, _, stride, projected in _resnet_blocks(widths, blocks):
        base = f"{prefix}.{base}"
        out = _conv(p, f"{base}.conv2", relu(_conv(p, f"{base}.conv1", y, stride)))
        shortcut = _conv(p, f"{base}.down.conv", y, stride) if projected else y
        y = relu(out + shortcut)
    return y.astype(np.float64)


def _lstm_stack(p: dict, prefix: str, hidden: int, layers: int, x: np.ndarray) -> np.ndarray:
    for layer in range(layers):
        base = f"{prefix}.l{layer}"
        params = {f"{d}.{w}": p[f"{base}.{d}.{w}"] for d in ("fw", "bw") for w in ("w_x", "w_h", "b")}
        x = bilstm_forward(x, params, hidden)
    return x


# ---------------------------------------------------------------------------
# VAD network


class VadNet:
    """Frame-level speech probability from 32-bin features."""

    TRUNK = ("vad.resnet", VAD_WIDTHS, VAD_BLOCKS)
    SPEC = (
        *_resnet_spec(*TRUNK),
        *_lstm_spec("vad.lstm", VAD_WIDTHS[-1], VAD_LSTM_HIDDEN, 2),
        *_dense_spec("vad.fc1", 2 * VAD_LSTM_HIDDEN, 64),
        *_dense_spec("vad.fc2", 64, 1),
    )

    def __init__(self, store: WeightStore):
        self.p = _params(store, self.SPEC, self.TRUNK)

    def forward(self, features: FeatureMatrix) -> np.ndarray:
        if features.bins != VAD_BINS:
            raise ShapeError(f"VadNet expects {VAD_BINS} bins, got {features.bins}")
        x = features.data[None, :, :]
        maps = resnet_forward(self.p, *self.TRUNK, x)
        frames = global_avg_pool_freq(maps)
        seq = _lstm_stack(self.p, "vad.lstm", VAD_LSTM_HIDDEN, 2, frames)
        hid = relu(affine(seq, self.p["vad.fc1.w"], self.p["vad.fc1.b"]))
        return sigmoid(affine(hid, self.p["vad.fc2.w"], self.p["vad.fc2.b"]))[:, 0]


def init_vad_weights(seed: int = 0) -> WeightStore:
    return init_weights(VadNet.SPEC, seed)


# ---------------------------------------------------------------------------
# Speaker embedding network


class EmbedNet:
    """128-dim speaker embedding from 80-bin features."""

    TRUNK = ("embed.resnet", EMBED_WIDTHS, EMBED_BLOCKS)
    SPEC = (
        *_resnet_spec(*TRUNK),
        *_dense_spec("embed.fc", 2 * EMBED_WIDTHS[-1] * _freq_out(EMBED_BINS), EMBED_DIM),
    )

    def __init__(self, store: WeightStore):
        self.p = _params(store, self.SPEC, self.TRUNK)

    def forward(self, features: FeatureMatrix) -> np.ndarray:
        if features.bins != EMBED_BINS:
            raise ShapeError(f"EmbedNet expects {EMBED_BINS} bins, got {features.bins}")
        if features.n_frames < MIN_EMBED_FRAMES:
            raise EmptyInputError(
                f"embedding needs >= {MIN_EMBED_FRAMES} frames, got {features.n_frames}"
            )
        x = features.data[None, :, :]
        maps = resnet_forward(self.p, *self.TRUNK, x)
        c, t, f = maps.shape
        stats = global_stat_pool(maps.transpose(1, 0, 2).reshape(t, c * f))
        return affine(stats, self.p["embed.fc.w"], self.p["embed.fc.b"])

    def __call__(self, buf, segments) -> list[np.ndarray | None]:
        """One embedding per segment of `buf`, from the segment's own
        mean-normalised log-Mel features; None for a segment too short to
        embed."""
        out = []
        for seg in segments:
            piece = buf.slice_seconds(seg.start_s, seg.end_s)
            try:
                out.append(self.forward(audio.mean_normalize(audio.log_mel(piece, EMBED_BINS))))
            except EmptyInputError:
                out.append(None)
        return out


def init_embed_weights(seed: int = 0) -> WeightStore:
    return init_weights(EmbedNet.SPEC, seed)


# ---------------------------------------------------------------------------
# Target-speaker detection network


class TsvadNet:
    """Per-frame target-speaker probability given a target embedding."""

    TRUNK = ("tsvad.resnet", EMBED_WIDTHS, EMBED_BLOCKS)
    SPEC = (
        *_resnet_spec(*TRUNK),
        *_dense_spec("tsvad.id_fc", EMBED_WIDTHS[-1] * _freq_out(EMBED_BINS), EMBED_DIM),
        *_lstm_spec("tsvad.lstm", 2 * EMBED_DIM, TSVAD_LSTM_HIDDEN, 2),
        *_dense_spec("tsvad.fc", 2 * TSVAD_LSTM_HIDDEN, 1),
    )

    def __init__(self, store: WeightStore):
        self.p = _params(store, self.SPEC, self.TRUNK)

    def identity_frames(self, features: FeatureMatrix) -> np.ndarray:
        """Frame-level 128-dim identity sequence from the residual stack."""
        if features.bins != EMBED_BINS:
            raise ShapeError(f"TsvadNet expects {EMBED_BINS} bins, got {features.bins}")
        x = features.data[None, :, :]
        maps = resnet_forward(self.p, *self.TRUNK, x)
        c, t, f = maps.shape
        flat = maps.transpose(1, 0, 2).reshape(t, c * f)
        return affine(flat, self.p["tsvad.id_fc.w"], self.p["tsvad.id_fc.b"])

    def detect(self, identity: np.ndarray, target: np.ndarray) -> np.ndarray:
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (EMBED_DIM,):
            raise ShapeError(f"target embedding must be ({EMBED_DIM},), got {target.shape}")
        tiled = np.broadcast_to(target, (identity.shape[0], EMBED_DIM))
        seq = np.concatenate([identity, tiled], axis=1)
        seq = _lstm_stack(self.p, "tsvad.lstm", TSVAD_LSTM_HIDDEN, 2, seq)
        return sigmoid(affine(seq, self.p["tsvad.fc.w"], self.p["tsvad.fc.b"]))[:, 0]

    def bind(self, buf):
        """The recording's identity frames, computed once; the returned
        `tracks(targets)` runs one detection track per target over them."""
        identity = self.identity_frames(audio.mean_normalize(audio.log_mel(buf, EMBED_BINS)))
        return lambda targets: np.stack([self.detect(identity, t) for t in targets])


def init_tsvad_weights(seed: int = 0) -> WeightStore:
    return init_weights(TsvadNet.SPEC, seed)


# ---------------------------------------------------------------------------
# Attentive pair scorer (trainable)


class V2sScorer:
    """Scores one anchor embedding against a sequence of paired embeddings.

    Input rows are [anchor ; candidate] concatenations (each half 128-dim).
    The net is a linear layer, two-head self-attention over the sequence,
    and a 1024-then-1 linear head with a sigmoid output. Parameters are kept
    in float64 because this is the one trainable subgraph; `loss_and_grad`
    implements the analytic backward pass used by SGD and gradient checks.
    """

    SPEC = (
        *_dense_spec("v2s.fc1", V2S_IN, V2S_FC1),
        ("v2s.att.wo", (V2S_ATT, V2S_FC1), V2S_ATT),
        ("v2s.att.bo", (V2S_FC1,), 0.0),
        *_dense_spec("v2s.fc2", V2S_FC1, V2S_FC2),
        *_dense_spec("v2s.fc3", V2S_FC2, 1),
        *((f"v2s.att.{n}", (V2S_FC1, V2S_ATT // V2S_HEADS), V2S_FC1) for n in _HEAD_WEIGHTS),
    )

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = {n: np.array(v, dtype=np.float64) for n, v in params.items()}

    @classmethod
    def init(cls, seed: int = 0) -> "V2sScorer":
        return cls.from_store(init_weights(cls.SPEC, seed))

    @classmethod
    def from_store(cls, store: WeightStore) -> "V2sScorer":
        """The scorer from the SPEC entries of `store`; a missing or
        misshapen one raises ShapeError."""
        _check(store, cls.SPEC)
        return cls({name.removeprefix("v2s."): store.get(name) for name, _, _ in cls.SPEC})

    def to_store(self) -> WeightStore:
        return WeightStore({f"v2s.{n}": v for n, v in self.params.items()})

    def _forward(self, m: np.ndarray) -> dict:
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != V2S_IN:
            raise ShapeError(f"scorer input must be [n, {V2S_IN}], got {m.shape}")
        p = self.params
        h0 = m @ p["fc1.w"] + p["fc1.b"]
        att_params = {n: p[f"att.{n}"] for n in ("wo", "bo", *_HEAD_WEIGHTS)}
        h1, att = _attention_forward(h0, V2S_HEADS, V2S_ATT, att_params)
        h2 = h1 @ p["fc2.w"] + p["fc2.b"]
        r = relu(h2)
        z = (r @ p["fc3.w"] + p["fc3.b"])[:, 0]
        return {"m": m, "h0": h0, "att": att, "h1": h1, "h2": h2, "r": r,
                "z": z, "prob": sigmoid(z)}

    def forward(self, m: np.ndarray) -> np.ndarray:
        return self._forward(m)["prob"]

    def loss(self, m: np.ndarray, labels: np.ndarray) -> float:
        return self._bce(self.forward(m), np.asarray(labels, dtype=np.float64))

    @staticmethod
    def _bce(prob: np.ndarray, labels: np.ndarray) -> float:
        p = np.clip(prob, 1e-12, 1.0 - 1e-12)
        return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))

    def loss_and_grad(self, m: np.ndarray, labels: np.ndarray):
        """BCE loss and analytic gradients for every parameter."""
        labels = np.asarray(labels, dtype=np.float64)
        cache = self._forward(m)
        if labels.shape != cache["prob"].shape:
            raise ShapeError(f"labels shape {labels.shape} vs scores {cache['prob'].shape}")
        p = self.params
        n = labels.size
        d_head = V2S_ATT // V2S_HEADS
        g: dict[str, np.ndarray] = {}

        dz = (cache["prob"] - labels) / n
        g["fc3.w"] = cache["r"].T @ dz[:, None]
        g["fc3.b"] = np.array([dz.sum()])
        dr = np.outer(dz, p["fc3.w"][:, 0])
        dh2 = dr * (cache["h2"] > 0)
        g["fc2.w"] = cache["h1"].T @ dh2
        g["fc2.b"] = dh2.sum(axis=0)
        dh1 = dh2 @ p["fc2.w"].T
        g["att.wo"] = cache["att"]["concat"].T @ dh1
        g["att.bo"] = dh1.sum(axis=0)
        dc = dh1 @ p["att.wo"].T
        dh0 = np.zeros_like(cache["h0"])
        for h in range(V2S_HEADS):
            head = cache["att"]["heads"][h]
            dpart = dc[:, h * d_head : (h + 1) * d_head]
            datt = dpart @ head["v"].T
            dv = head["att"].T @ dpart
            ds = head["att"] * (datt - (datt * head["att"]).sum(axis=1, keepdims=True))
            ds /= np.sqrt(d_head)
            dq = ds @ head["k"]
            dk = ds.T @ head["q"]
            g[f"att.h{h}.wq"] = cache["h0"].T @ dq
            g[f"att.h{h}.wk"] = cache["h0"].T @ dk
            g[f"att.h{h}.wv"] = cache["h0"].T @ dv
            dh0 += dq @ p[f"att.h{h}.wq"].T + dk @ p[f"att.h{h}.wk"].T + dv @ p[f"att.h{h}.wv"].T
        g["fc1.w"] = cache["m"].T @ dh0
        g["fc1.b"] = dh0.sum(axis=0)
        return self._bce(cache["prob"], labels), g

    def apply_grads(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name, grad in grads.items():
            self.params[name] -= lr * grad
