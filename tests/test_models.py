"""Model assemblies: shape laws, output ranges, weight plumbing, the float32
trunk against the float64 reference, and the scorer's analytic gradients."""

import numpy as np
import pytest

from diarkit import models
from diarkit.audio import FeatureMatrix
from diarkit.errors import EmptyInputError, ShapeError
from diarkit.models import (
    EmbedNet,
    TsvadNet,
    V2sScorer,
    VadNet,
    init_embed_weights,
    init_tsvad_weights,
    init_vad_weights,
)
from diarkit.nn import finite_diff_check
from diarkit.weights import WeightStore, load_weights, save_weights
from oracles import resnet_forward_oracle


@pytest.fixture(scope="module")
def vad_net():
    return VadNet(init_vad_weights(1))


@pytest.fixture(scope="module")
def embed_net():
    return EmbedNet(init_embed_weights(2))


@pytest.fixture(scope="module")
def tsvad_net():
    return TsvadNet(init_tsvad_weights(3))


def feats(rng, t, bins):
    return FeatureMatrix(rng.normal(0, 1.0, size=(t, bins)))


def without(store, name, value=None):
    """`store` with entry `name` left out, or replaced by `value`."""
    entries = {n: store.get(n) for n in store.names() if n != name}
    if value is not None:
        entries[name] = value
    return WeightStore(entries)


class TestVadNet:
    def test_output_per_frame_in_unit_interval(self, vad_net):
        rng = np.random.default_rng(0)
        out = vad_net.forward(feats(rng, 50, 32))
        assert out.shape == (50,)
        assert np.all((out > 0) & (out < 1))

    def test_zero_final_affine_gives_half(self):
        store = init_vad_weights(1)
        store.put("vad.fc2.w", np.zeros((64, 1), dtype=np.float32))
        store.put("vad.fc2.b", np.zeros(1, dtype=np.float32))
        net = VadNet(store)
        out = net.forward(feats(np.random.default_rng(1), 30, 32))
        np.testing.assert_allclose(out, 0.5)

    @pytest.mark.parametrize("t", [25, 40, 80])
    def test_frame_count_law(self, vad_net, t):
        rng = np.random.default_rng(t)
        assert vad_net.forward(feats(rng, t, 32)).shape == (t,)
        assert vad_net.forward(feats(rng, 2 * t, 32)).shape == (2 * t,)

    def test_bin_mismatch(self, vad_net):
        with pytest.raises(ShapeError):
            vad_net.forward(feats(np.random.default_rng(0), 30, 80))


class TestEmbedNet:
    def test_output_is_128(self, embed_net):
        out = embed_net.forward(feats(np.random.default_rng(4), 30, 80))
        assert out.shape == (128,)
        assert np.all(np.isfinite(out))

    def test_deterministic(self, embed_net):
        f = feats(np.random.default_rng(5), 32, 80)
        np.testing.assert_array_equal(embed_net.forward(f), embed_net.forward(f))

    def test_too_short(self, embed_net):
        with pytest.raises(EmptyInputError):
            embed_net.forward(feats(np.random.default_rng(6), 24, 80))

    def test_pooling_mean_invariant_under_frame_repeat(self):
        # Pooling-level oracle: repeating frames leaves the GSP mean intact.
        from diarkit.nn import global_stat_pool

        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 6))
        rep = np.repeat(x, 2, axis=0)
        np.testing.assert_allclose(
            global_stat_pool(x)[:6], global_stat_pool(rep)[:6], atol=1e-5
        )


class TestTsvadNet:
    def test_outputs_in_unit_interval(self, tsvad_net):
        rng = np.random.default_rng(8)
        out = tsvad_net.detect(tsvad_net.identity_frames(feats(rng, 30, 80)), rng.normal(size=128))
        assert out.shape == (30,)
        assert np.all((out > 0) & (out < 1))

    def test_different_targets_differ(self, tsvad_net):
        rng = np.random.default_rng(9)
        identity = tsvad_net.identity_frames(feats(rng, 30, 80))
        a = tsvad_net.detect(identity, rng.normal(size=128))
        b = tsvad_net.detect(identity, rng.normal(size=128))
        assert not np.allclose(a, b)

    def test_target_dim_checked(self, tsvad_net):
        identity = tsvad_net.identity_frames(feats(np.random.default_rng(10), 30, 80))
        with pytest.raises(ShapeError):
            tsvad_net.detect(identity, np.zeros(64))

    def test_zero_concat_path_ignores_target(self):
        # Zeroing the input rows that see the target makes tracks target-free.
        store = init_tsvad_weights(3)
        for direction in ("fw", "bw"):
            w = store.get(f"tsvad.lstm.l0.{direction}.w_x").copy()
            w[128:, :] = 0.0
            store.put(f"tsvad.lstm.l0.{direction}.w_x", w)
        net = TsvadNet(store)
        rng = np.random.default_rng(11)
        identity = net.identity_frames(feats(rng, 28, 80))
        a = net.detect(identity, rng.normal(size=128))
        b = net.detect(identity, np.zeros(128))
        np.testing.assert_allclose(a, b, atol=1e-12)


# (model class, weight init, feature bins, the call that runs its trunk)
TRUNK_MODELS = [
    (VadNet, init_vad_weights, 32, VadNet.forward),
    (EmbedNet, init_embed_weights, 80, EmbedNet.forward),
    (TsvadNet, init_tsvad_weights, 80, TsvadNet.identity_frames),
]


class TestFoldAtBuild:
    """Batch norm is folded into the conv kernels when a model is built; the
    trunk then runs every conv in float32 and no batch norm."""

    @pytest.mark.parametrize("cls, init, bins, run", TRUNK_MODELS, ids=["vad", "embed", "tsvad"])
    def test_batch_norm_at_build_float32_convs_at_forward(self, monkeypatch, cls, init, bins, run):
        bn_calls, conv_dtypes = [], []
        batch_norm, conv2d = models.batch_norm_infer, models.conv2d

        def counted_bn(*args, **kwargs):
            bn_calls.append(args)
            return batch_norm(*args, **kwargs)

        def spied_conv(x, kernel, *args):
            conv_dtypes.append((x.dtype, kernel.dtype))
            return conv2d(x, kernel, *args)

        monkeypatch.setattr(models, "batch_norm_infer", counted_bn)
        monkeypatch.setattr(models, "conv2d", spied_conv)
        net = cls(init(0))
        convs = {name.removesuffix(".kernel") for name, _, _ in cls.SPEC if name.endswith(".kernel")}
        n_convs = len(convs)
        assert len(bn_calls) == 2 * n_convs  # one for the scale, one for the bias
        # The trunk keeps one folded (kernel, bias) pair per conv and no other entry.
        trunk = cls.TRUNK[0] + "."
        assert {name for name in net.p if name.startswith(trunk)} == convs
        assert all(k.dtype == b.dtype == np.float32 for k, b in (net.p[c] for c in convs))
        assert conv_dtypes == []
        bn_calls.clear()
        run(net, feats(np.random.default_rng(0), 30, bins))
        assert bn_calls == []
        assert conv_dtypes == [(np.float32, np.float32)] * n_convs


class TestTrunkValidation:
    """Every trunk entry is checked when the model is built."""

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("stage1.block0.bn1.var", None, "missing weight '{}'"),
            ("stem.bn.gamma", np.ones(15), "'{}': shape (15,), expected (16,)"),
            ("stage3.block1.conv2.kernel", None, "missing weight '{}'"),
            ("stage2.block0.down.conv.kernel", np.ones((64, 32, 3, 3)),
             "'{}': shape (64, 32, 3, 3), expected (64, 32, 1, 1)"),
        ],
        ids=["missing-bn", "bn-length", "missing-kernel", "kernel-shape"],
    )
    def test_bad_entry_raises_shape_error_naming_it(self, name, value, message):
        name = f"vad.resnet.{name}"
        with pytest.raises(ShapeError) as err:
            VadNet(without(init_vad_weights(0), name, value))
        assert message.format(name) in str(err.value)


# network -> (build from a weight store, seeded weight store)
BUILDS = {
    "vad": (VadNet, init_vad_weights),
    "embed": (EmbedNet, init_embed_weights),
    "tsvad": (TsvadNet, init_tsvad_weights),
    "v2s": (V2sScorer.from_store, lambda seed: V2sScorer.init(seed).to_store()),
}


class TestSpecValidation:
    """Every spec entry outside the trunk is checked at build as well, so a
    bad head or LSTM entry fails before any forward pass reads it."""

    @pytest.mark.parametrize(
        "net, name, value, message",
        [
            ("tsvad", "tsvad.fc.b", None, "missing weight '{}'"),
            ("tsvad", "tsvad.lstm.l1.bw.w_h", np.ones((3, 3)),
             "'{}': shape (3, 3), expected (128, 512)"),
            ("vad", "vad.fc2.w", None, "missing weight '{}'"),
            ("embed", "embed.fc.w", np.ones((5, 128)),
             "'{}': shape (5, 128), expected (5120, 128)"),
            ("v2s", "v2s.fc2.w", np.ones((256, 10)),
             "'{}': shape (256, 10), expected (256, 1024)"),
        ],
        ids=["tsvad-head-bias", "tsvad-lstm-w_h", "vad-head-weight", "embed-head", "v2s-fc2"],
    )
    def test_bad_entry_raises_shape_error_naming_it(self, net, name, value, message):
        build, init = BUILDS[net]
        with pytest.raises(ShapeError) as err:
            build(without(init(0), name, value))
        assert message.format(name) in str(err.value)

    @pytest.mark.parametrize("net", sorted(BUILDS))
    def test_extra_entries_are_not_kept(self, net):
        build, init = BUILDS[net]
        store = init(0)
        store.put(f"{net}.unused.w", np.ones(3))
        model = build(store)
        kept = model.params if net == "v2s" else model.p
        assert not [name for name in kept if "unused" in name]


class _Reads(dict):
    """A weight dict that records the name of every entry read from it."""

    def __init__(self, entries):
        super().__init__(entries)
        self.names = set()

    def __getitem__(self, name):
        self.names.add(name)
        return super().__getitem__(name)


class TestSpecIsWhatModelsRead:
    """One forward pass reads exactly the SPEC entries outside the trunk,
    and every trunk conv, so a SPEC cannot drift from its model."""

    @pytest.mark.parametrize(
        "cls, init, run",
        [
            (VadNet, init_vad_weights, lambda net, rng: net.forward(feats(rng, 30, 32))),
            (EmbedNet, init_embed_weights, lambda net, rng: net.forward(feats(rng, 30, 80))),
            (TsvadNet, init_tsvad_weights, lambda net, rng: net.detect(
                net.identity_frames(feats(rng, 30, 80)), rng.normal(size=128))),
        ],
        ids=["vad", "embed", "tsvad"],
    )
    def test_trunk_models(self, cls, init, run):
        net = cls(init(0))
        net.p = reads = _Reads(net.p)
        run(net, np.random.default_rng(0))
        trunk = cls.TRUNK[0] + "."
        spec = [name for name, _, _ in cls.SPEC]
        assert {n for n in reads.names if not n.startswith(trunk)} == {
            n for n in spec if not n.startswith(trunk)
        }
        assert {n for n in reads.names if n.startswith(trunk)} == {
            n.removesuffix(".kernel") for n in spec if n.endswith(".kernel")
        }

    def test_scorer(self):
        scorer = V2sScorer.init(0)
        scorer.params = reads = _Reads(scorer.params)
        scorer.forward(np.random.default_rng(0).normal(size=(3, 256)))
        assert reads.names == {name.removeprefix("v2s.") for name, _, _ in V2sScorer.SPEC}


class TestFloat32Drift:
    """The float32 forwards against the same models run on the float64
    conv-then-batch-norm trunk of `oracles.resnet_forward_oracle`.

    Bounds, set from float32's unit roundoff (6e-8) over a trunk of 20-36
    convs: trunk maps, identity frames and embeddings within 1e-5 of their
    largest reference magnitude; detection probabilities within 1e-4 and
    VAD probabilities within 1e-5, absolute. With the channels-last conv
    (kh GEMMs summed per output), these cases measure at most 6.8e-7 (VAD
    trunk), 9.0e-7 (identity), 2.3e-7 (embedding), 8.2e-6 (detection) and
    4.6e-7 (VAD).
    """

    REL = 1e-5
    DETECT_ABS = 1e-4
    VAD_ABS = 1e-5

    @staticmethod
    def reference(monkeypatch, store, call):
        with monkeypatch.context() as m:
            m.setattr(
                models, "resnet_forward", lambda p, *trunk: resnet_forward_oracle(store, *trunk)
            )
            return call()

    def assert_relative(self, got, want):
        assert np.abs(got - want).max() <= self.REL * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_vad(self, monkeypatch, seed):
        store = init_vad_weights(seed)
        net = VadNet(store)
        f = feats(np.random.default_rng(100 + seed), 60, 32)
        x = f.data[None]
        self.assert_relative(
            models.resnet_forward(net.p, *net.TRUNK, x), resnet_forward_oracle(store, *net.TRUNK, x)
        )
        want = self.reference(monkeypatch, store, lambda: net.forward(f))
        assert np.abs(net.forward(f) - want).max() <= self.VAD_ABS

    @pytest.mark.parametrize("seed", range(4))
    def test_embed(self, monkeypatch, seed):
        store = init_embed_weights(seed)
        net = EmbedNet(store)
        f = feats(np.random.default_rng(200 + seed), 40, 80)
        want = self.reference(monkeypatch, store, lambda: net.forward(f))
        self.assert_relative(net.forward(f), want)

    @pytest.mark.parametrize("seed", range(4))
    def test_tsvad(self, monkeypatch, seed):
        store = init_tsvad_weights(seed)
        net = TsvadNet(store)
        rng = np.random.default_rng(300 + seed)
        f = feats(rng, 40, 80)
        identity = net.identity_frames(f)
        want = self.reference(monkeypatch, store, lambda: net.identity_frames(f))
        self.assert_relative(identity, want)
        target = rng.normal(size=128)
        drift = np.abs(net.detect(identity, target) - net.detect(want, target)).max()
        assert drift <= self.DETECT_ABS


class TestV2sScorer:
    def test_single_row(self):
        scorer = V2sScorer.init(0)
        out = scorer.forward(np.random.default_rng(0).normal(size=(1, 256)))
        assert out.shape == (1,)
        assert 0 < out[0] < 1

    def test_permutation_equivariance(self):
        scorer = V2sScorer.init(1)
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 256))
        perm = rng.permutation(6)
        np.testing.assert_allclose(scorer.forward(m[perm]), scorer.forward(m)[perm], atol=1e-10)

    def test_zero_head_gives_half(self):
        scorer = V2sScorer.init(2)
        scorer.params["fc3.w"][:] = 0.0
        scorer.params["fc3.b"][:] = 0.0
        out = scorer.forward(np.random.default_rng(2).normal(size=(4, 256)))
        np.testing.assert_allclose(out, 0.5)

    def test_rejects_wrong_width(self):
        with pytest.raises(ShapeError):
            V2sScorer.init(0).forward(np.zeros((3, 128)))

    def test_gradients_match_finite_differences(self):
        scorer = V2sScorer.init(3)
        rng = np.random.default_rng(3)
        m = rng.normal(0, 0.3, size=(4, 256))
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        _, grads = scorer.loss_and_grad(m, labels)
        err = finite_diff_check(
            lambda p: V2sScorer(p).loss(m, labels), scorer.params, grads, probes=6, rng=rng
        )
        assert err < 1e-3

    def test_store_roundtrip(self, tmp_path):
        scorer = V2sScorer.init(4)
        path = tmp_path / "v2s.nnw"
        save_weights(scorer.to_store(), path)
        back = V2sScorer.from_store(load_weights(path))
        m = np.random.default_rng(4).normal(size=(3, 256))
        np.testing.assert_array_equal(scorer.forward(m), back.forward(m))


class TestAssemblyProperties:
    """Finite outputs in range for random weights and inputs (25 trials per
    assembly keeps the whole sweep inside the runtime budget)."""

    def test_vad_random_trials(self):
        rng = np.random.default_rng(20)
        for trial in range(25):
            net = VadNet(init_vad_weights(trial))
            t = int(rng.integers(10, 60))
            out = net.forward(feats(rng, t, 32))
            assert out.shape == (t,)
            assert np.all((out > 0) & (out < 1))

    def test_embed_random_trials(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            net = EmbedNet(init_embed_weights(trial))
            out = net.forward(feats(rng, int(rng.integers(25, 50)), 80))
            assert out.shape == (128,)
            assert np.all(np.isfinite(out))

    def test_tsvad_random_trials(self):
        rng = np.random.default_rng(22)
        for trial in range(25):
            net = TsvadNet(init_tsvad_weights(trial))
            t = int(rng.integers(10, 40))
            out = net.detect(net.identity_frames(feats(rng, t, 80)), rng.normal(size=128))
            assert out.shape == (t,)
            assert np.all((out > 0) & (out < 1))

    def test_scorer_random_trials(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            scorer = V2sScorer.init(trial)
            n = int(rng.integers(1, 10))
            out = scorer.forward(rng.normal(size=(n, 256)))
            assert out.shape == (n,)
            assert np.all((out > 0) & (out < 1))
