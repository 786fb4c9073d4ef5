"""Network assemblies: VAD, speaker embedding, attentive pair scoring, and
target-speaker detection, plus the margin-logit classifier head.

Architecture conventions (the cited designs leave these open; they are fixed
here so weight files are reproducible):
  - ResNet stem: 3x3 conv, stride 1, no max-pool; 3x3 kernels throughout;
    stage strides (1,1),(1,2),(1,2),(1,2) downsample frequency only
  - residual block: conv-bn-relu-conv-bn plus identity (or 1x1-conv-bn
    projection when shape changes), then relu
  - fully-connected stacks use ReLU between layers
  - untrained weights come from seeded fan-in uniform init, so tests are
    reproducible without any trained checkpoint

Weight names are dot-paths under a per-model prefix, e.g.
"embed.resnet.stage2.block0.conv1.kernel"; see init_* for the full set.
"""

from __future__ import annotations

import numpy as np

from .audio import FeatureMatrix
from .errors import EmptyInputError, NumericError, ShapeError
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

ARCFACE_SCALE = 32.0
ARCFACE_MARGIN = 0.2


# ---------------------------------------------------------------------------
# ResNet front-ends


def _freq_out(bins: int) -> int:
    f = bins
    for _, sw in STAGE_STRIDES:
        f = -(-f // sw)
    return f


def _init_bn(store: WeightStore, name: str, ch: int) -> None:
    store.put(f"{name}.gamma", np.ones(ch, dtype=np.float32))
    store.put(f"{name}.beta", np.zeros(ch, dtype=np.float32))
    store.put(f"{name}.mean", np.zeros(ch, dtype=np.float32))
    store.put(f"{name}.var", np.ones(ch, dtype=np.float32))


def _init_conv(store: WeightStore, name: str, c_out: int, c_in: int, k: int, rng) -> None:
    store.put(f"{name}.kernel", he_uniform(rng, (c_out, c_in, k, k), c_in * k * k))


def init_resnet(store: WeightStore, prefix: str, widths, blocks, rng) -> None:
    _init_conv(store, f"{prefix}.stem.conv", widths[0], 1, 3, rng)
    _init_bn(store, f"{prefix}.stem.bn", widths[0])
    in_ch = widths[0]
    for s, (width, n_blocks) in enumerate(zip(widths, blocks)):
        for b in range(n_blocks):
            base = f"{prefix}.stage{s}.block{b}"
            stride = STAGE_STRIDES[s] if b == 0 else (1, 1)
            _init_conv(store, f"{base}.conv1", width, in_ch, 3, rng)
            _init_bn(store, f"{base}.bn1", width)
            _init_conv(store, f"{base}.conv2", width, width, 3, rng)
            _init_bn(store, f"{base}.bn2", width)
            if in_ch != width or stride != (1, 1):
                _init_conv(store, f"{base}.down.conv", width, in_ch, 1, rng)
                _init_bn(store, f"{base}.down.bn", width)
            in_ch = width


class _Params:
    """Float64 view of a WeightStore subtree, cached per model instance."""

    def __init__(self, store: WeightStore):
        self._arrays = {name: store.get64(name) for name in store.names()}

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            raise ShapeError(f"missing weight {name!r}")
        return self._arrays[name]


def _bn(p: _Params, name: str, x: np.ndarray) -> np.ndarray:
    return batch_norm_infer(
        x, p[f"{name}.gamma"], p[f"{name}.beta"], p[f"{name}.mean"], p[f"{name}.var"]
    )


def resnet_forward(p: _Params, prefix: str, widths, blocks, x: np.ndarray) -> np.ndarray:
    """Run the residual stack on x[1,T,F]; returns [C_last, T, F']."""
    y = relu(_bn(p, f"{prefix}.stem.bn", conv2d(x, p[f"{prefix}.stem.conv.kernel"])))
    in_ch = widths[0]
    for s, (width, n_blocks) in enumerate(zip(widths, blocks)):
        for b in range(n_blocks):
            base = f"{prefix}.stage{s}.block{b}"
            stride = STAGE_STRIDES[s] if b == 0 else (1, 1)
            out = relu(_bn(p, f"{base}.bn1", conv2d(y, p[f"{base}.conv1.kernel"], stride)))
            out = _bn(p, f"{base}.bn2", conv2d(out, p[f"{base}.conv2.kernel"]))
            if in_ch != width or stride != (1, 1):
                shortcut = _bn(p, f"{base}.down.bn", conv2d(y, p[f"{base}.down.conv.kernel"], stride))
            else:
                shortcut = y
            y = relu(out + shortcut)
            in_ch = width
    return y


def _init_lstm_stack(store: WeightStore, prefix: str, d_in: int, hidden: int, layers: int, rng) -> None:
    d = d_in
    for layer in range(layers):
        for direction in ("fw", "bw"):
            base = f"{prefix}.l{layer}.{direction}"
            store.put(f"{base}.w_x", he_uniform(rng, (d, 4 * hidden), d))
            store.put(f"{base}.w_h", he_uniform(rng, (hidden, 4 * hidden), hidden))
            store.put(f"{base}.b", np.zeros(4 * hidden, dtype=np.float32))
        d = 2 * hidden


def _lstm_stack(p: _Params, prefix: str, hidden: int, layers: int, x: np.ndarray) -> np.ndarray:
    for layer in range(layers):
        base = f"{prefix}.l{layer}"
        x = bilstm_forward(
            x,
            {
                "fw.w_x": p[f"{base}.fw.w_x"],
                "fw.w_h": p[f"{base}.fw.w_h"],
                "fw.b": p[f"{base}.fw.b"],
                "bw.w_x": p[f"{base}.bw.w_x"],
                "bw.w_h": p[f"{base}.bw.w_h"],
                "bw.b": p[f"{base}.bw.b"],
            },
            hidden,
        )
    return x


# ---------------------------------------------------------------------------
# VAD network


class VadNet:
    """Frame-level speech probability from 32-bin features."""

    def __init__(self, store: WeightStore):
        self.p = _Params(store)

    def forward(self, features: FeatureMatrix) -> np.ndarray:
        if features.bins != VAD_BINS:
            raise ShapeError(f"VadNet expects {VAD_BINS} bins, got {features.bins}")
        x = features.data[None, :, :]
        maps = resnet_forward(self.p, "vad.resnet", VAD_WIDTHS, VAD_BLOCKS, x)
        frames = global_avg_pool_freq(maps)
        seq = _lstm_stack(self.p, "vad.lstm", VAD_LSTM_HIDDEN, 2, frames)
        hid = relu(affine(seq, self.p["vad.fc1.w"], self.p["vad.fc1.b"]))
        return sigmoid(affine(hid, self.p["vad.fc2.w"], self.p["vad.fc2.b"]))[:, 0]


def init_vad_weights(seed: int = 0) -> WeightStore:
    rng = np.random.default_rng(seed)
    store = WeightStore()
    init_resnet(store, "vad.resnet", VAD_WIDTHS, VAD_BLOCKS, rng)
    _init_lstm_stack(store, "vad.lstm", VAD_WIDTHS[-1], VAD_LSTM_HIDDEN, 2, rng)
    store.put("vad.fc1.w", he_uniform(rng, (2 * VAD_LSTM_HIDDEN, 64), 2 * VAD_LSTM_HIDDEN))
    store.put("vad.fc1.b", np.zeros(64, dtype=np.float32))
    store.put("vad.fc2.w", he_uniform(rng, (64, 1), 64))
    store.put("vad.fc2.b", np.zeros(1, dtype=np.float32))
    return store


# ---------------------------------------------------------------------------
# Speaker embedding network


class EmbedNet:
    """128-dim speaker embedding from 80-bin features."""

    def __init__(self, store: WeightStore):
        self.p = _Params(store)

    def forward(self, features: FeatureMatrix) -> np.ndarray:
        if features.bins != EMBED_BINS:
            raise ShapeError(f"EmbedNet expects {EMBED_BINS} bins, got {features.bins}")
        if features.n_frames < MIN_EMBED_FRAMES:
            raise EmptyInputError(
                f"embedding needs >= {MIN_EMBED_FRAMES} frames, got {features.n_frames}"
            )
        x = features.data[None, :, :]
        maps = resnet_forward(self.p, "embed.resnet", EMBED_WIDTHS, EMBED_BLOCKS, x)
        c, t, f = maps.shape
        stats = global_stat_pool(maps.transpose(1, 0, 2).reshape(t, c * f))
        return affine(stats, self.p["embed.fc.w"], self.p["embed.fc.b"])


def init_embed_weights(seed: int = 0) -> WeightStore:
    rng = np.random.default_rng(seed)
    store = WeightStore()
    init_resnet(store, "embed.resnet", EMBED_WIDTHS, EMBED_BLOCKS, rng)
    stat_dim = 2 * EMBED_WIDTHS[-1] * _freq_out(EMBED_BINS)
    store.put("embed.fc.w", he_uniform(rng, (stat_dim, EMBED_DIM), stat_dim))
    store.put("embed.fc.b", np.zeros(EMBED_DIM, dtype=np.float32))
    return store


class NetEmbedder:
    """Adapter giving the embedding network the buffer-to-vector interface."""

    def __init__(self, net: EmbedNet):
        self.net = net

    def __call__(self, buf) -> np.ndarray:
        from .audio import log_mel, mean_normalize

        return self.net.forward(mean_normalize(log_mel(buf, EMBED_BINS)))


# ---------------------------------------------------------------------------
# Target-speaker detection network


class TsvadNet:
    """Per-frame target-speaker probability given a target embedding."""

    def __init__(self, store: WeightStore):
        self.p = _Params(store)

    def identity_frames(self, features: FeatureMatrix) -> np.ndarray:
        """Frame-level 128-dim identity sequence from the residual stack."""
        if features.bins != EMBED_BINS:
            raise ShapeError(f"TsvadNet expects {EMBED_BINS} bins, got {features.bins}")
        x = features.data[None, :, :]
        maps = resnet_forward(self.p, "tsvad.resnet", EMBED_WIDTHS, EMBED_BLOCKS, x)
        c, t, f = maps.shape
        flat = maps.transpose(1, 0, 2).reshape(t, c * f)
        return affine(flat, self.p["tsvad.id_fc.w"], self.p["tsvad.id_fc.b"])

    def forward(self, features: FeatureMatrix, target: np.ndarray) -> np.ndarray:
        identity = self.identity_frames(features)
        return self.detect(identity, target)

    def detect(self, identity: np.ndarray, target: np.ndarray) -> np.ndarray:
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (EMBED_DIM,):
            raise ShapeError(f"target embedding must be ({EMBED_DIM},), got {target.shape}")
        tiled = np.broadcast_to(target, (identity.shape[0], EMBED_DIM))
        seq = np.concatenate([identity, tiled], axis=1)
        seq = _lstm_stack(self.p, "tsvad.lstm", TSVAD_LSTM_HIDDEN, 2, seq)
        return sigmoid(affine(seq, self.p["tsvad.fc.w"], self.p["tsvad.fc.b"]))[:, 0]

    def tracks(self, buf, targets: list[np.ndarray]) -> np.ndarray:
        """One detection track per target over the full recording."""
        from .audio import log_mel, mean_normalize

        features = mean_normalize(log_mel(buf, EMBED_BINS))
        identity = self.identity_frames(features)
        return np.stack([self.detect(identity, t) for t in targets])


def init_tsvad_weights(seed: int = 0) -> WeightStore:
    rng = np.random.default_rng(seed)
    store = WeightStore()
    init_resnet(store, "tsvad.resnet", EMBED_WIDTHS, EMBED_BLOCKS, rng)
    flat_dim = EMBED_WIDTHS[-1] * _freq_out(EMBED_BINS)
    store.put("tsvad.id_fc.w", he_uniform(rng, (flat_dim, EMBED_DIM), flat_dim))
    store.put("tsvad.id_fc.b", np.zeros(EMBED_DIM, dtype=np.float32))
    _init_lstm_stack(store, "tsvad.lstm", 2 * EMBED_DIM, TSVAD_LSTM_HIDDEN, 2, rng)
    store.put("tsvad.fc.w", he_uniform(rng, (2 * TSVAD_LSTM_HIDDEN, 1), 2 * TSVAD_LSTM_HIDDEN))
    store.put("tsvad.fc.b", np.zeros(1, dtype=np.float32))
    return store


def copy_embed_resnet_to_tsvad(embed_store: WeightStore, tsvad_store: WeightStore) -> int:
    """Copy the embedding front-end parameters into the detector's identity
    extractor (name-for-name under the respective resnet prefixes)."""
    copied = 0
    for name in embed_store.names():
        if name.startswith("embed.resnet."):
            tsvad_store.put("tsvad.resnet." + name[len("embed.resnet.") :], embed_store.get(name))
            copied += 1
    return copied


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

    PARAM_NAMES = (
        "fc1.w", "fc1.b",
        "att.h0.wq", "att.h0.wk", "att.h0.wv",
        "att.h1.wq", "att.h1.wk", "att.h1.wv",
        "att.wo", "att.bo",
        "fc2.w", "fc2.b", "fc3.w", "fc3.b",
    )

    def __init__(self, params: dict[str, np.ndarray]):
        missing = [n for n in self.PARAM_NAMES if n not in params]
        if missing:
            raise ShapeError(f"scorer missing parameters: {missing}")
        self.params = {n: np.array(params[n], dtype=np.float64) for n in self.PARAM_NAMES}

    @classmethod
    def init(cls, seed: int = 0) -> "V2sScorer":
        rng = np.random.default_rng(seed)
        d_head = V2S_ATT // V2S_HEADS
        p = {
            "fc1.w": he_uniform(rng, (V2S_IN, V2S_FC1), V2S_IN),
            "fc1.b": np.zeros(V2S_FC1, dtype=np.float32),
            "att.wo": he_uniform(rng, (V2S_ATT, V2S_FC1), V2S_ATT),
            "att.bo": np.zeros(V2S_FC1, dtype=np.float32),
            "fc2.w": he_uniform(rng, (V2S_FC1, V2S_FC2), V2S_FC1),
            "fc2.b": np.zeros(V2S_FC2, dtype=np.float32),
            "fc3.w": he_uniform(rng, (V2S_FC2, 1), V2S_FC2),
            "fc3.b": np.zeros(1, dtype=np.float32),
        }
        for h in range(V2S_HEADS):
            for kind in ("wq", "wk", "wv"):
                p[f"att.h{h}.{kind}"] = he_uniform(rng, (V2S_FC1, d_head), V2S_FC1)
        return cls(p)

    @classmethod
    def from_store(cls, store: WeightStore, prefix: str = "v2s") -> "V2sScorer":
        sub = store.subset(prefix)
        return cls({n: sub.get64(n) for n in cls.PARAM_NAMES})

    def to_store(self, prefix: str = "v2s") -> WeightStore:
        store = WeightStore()
        for name, value in self.params.items():
            store.put(f"{prefix}.{name}", value)
        return store

    def _forward(self, m: np.ndarray) -> dict:
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != V2S_IN:
            raise ShapeError(f"scorer input must be [n, {V2S_IN}], got {m.shape}")
        p = self.params
        h0 = m @ p["fc1.w"] + p["fc1.b"]
        h1, att = _attention_forward(
            h0, V2S_HEADS, V2S_ATT, {k[4:]: v for k, v in p.items() if k.startswith("att.")}
        )
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


# ---------------------------------------------------------------------------
# Margin-logit classifier head


def arcface_logits(
    embedding: np.ndarray,
    class_weights: np.ndarray,
    label: int,
    s: float = ARCFACE_SCALE,
    m: float = ARCFACE_MARGIN,
) -> np.ndarray:
    """Angular-margin logits: s*cos(theta_k), with s*cos(theta+m) at the label."""
    e = np.asarray(embedding, dtype=np.float64)
    w = np.asarray(class_weights, dtype=np.float64)
    if e.ndim != 1 or w.ndim != 2 or w.shape[1] != e.shape[0]:
        raise ShapeError(f"arcface: embedding {e.shape} vs class weights {w.shape}")
    if not 0 <= label < w.shape[0]:
        raise ShapeError(f"label {label} outside 0..{w.shape[0] - 1}")
    e_norm = np.linalg.norm(e)
    w_norms = np.linalg.norm(w, axis=1)
    if e_norm == 0.0 or np.any(w_norms == 0.0):
        raise NumericError("arcface: zero vector cannot be normalized")
    cos = np.clip((w @ e) / (w_norms * e_norm), -1.0, 1.0)
    logits = s * cos
    theta = np.arccos(cos[label])
    logits[label] = s * np.cos(theta + m)
    return logits
