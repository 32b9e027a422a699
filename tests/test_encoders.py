import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import numeric_param_grad, split_like_params
from gradcheck import finite_diff_grad, max_rel_error

from botaclip import encoders
from botaclip.encoders import (
    AlignmentModel,
    AttentionEncoder,
    BotaniaMLP,
    BotaSPModel,
    Dropout,
    Gelu,
    GradientTape,
    LayerNorm,
    Linear,
    LinearAdapter,
    Param,
    Relu,
    RowNormalize,
    SingleTokenAttention,
    TwoLayerEncoder,
    init_identity_adapter,
)
from botaclip.errors import DataError, MissingForwardCache, ShapeMismatch, ZeroRow
from botaclip.numerics import Rng, l2_normalize_rows, normal_cdf, softmax


class TestIdentityAdapterInit:
    def test_zero_noise_is_exact_identity(self):
        a = init_identity_adapter(6, noise_variance=0.0,
                                  gen=Rng(0).substream("init"))
        x = Rng(1).substream("x").normal(size=(4, 6))
        np.testing.assert_array_equal(a.linear.forward(x), x)

    def test_bias_is_zero(self):
        a = init_identity_adapter(16, noise_variance=1e-4,
                                  gen=Rng(0).substream("root"))
        np.testing.assert_array_equal(a.linear.bias.value, np.zeros(16))

    def test_mean_abs_perturbation(self):
        # E|N(0, 1e-4)| = 0.01 * sqrt(2/pi) ~= 0.0079788
        a = init_identity_adapter(768, noise_variance=1e-4,
                                  gen=Rng(3).substream("root"))
        dev = np.mean(np.abs(a.linear.weight.value - np.eye(768)))
        assert abs(dev - 0.0079788) / 0.0079788 < 0.10

    def test_relative_output_change_small_dim(self):
        # ||A(x) - x|| / ||x|| concentrates near sqrt(dim * variance)
        gen = Rng(9).substream("draws")
        a = init_identity_adapter(8, noise_variance=1e-4,
                                  gen=Rng(9).substream("root"))
        for _ in range(100):
            x = l2_normalize_rows(gen.normal(size=(1, 8)))
            assert np.linalg.norm(a.forward(x) - x) < 0.05

    def test_relative_output_change_full_dim(self):
        # at dim 768 the expected relative change is sqrt(768e-4) ~= 0.277
        gen = Rng(10).substream("draws")
        a = init_identity_adapter(768, noise_variance=1e-4,
                                  gen=Rng(10).substream("root"))
        ratios = []
        for _ in range(100):
            x = l2_normalize_rows(gen.normal(size=(1, 768)))
            ratios.append(np.linalg.norm(a.forward(x) - x))
        assert abs(np.mean(ratios) - 0.277) / 0.277 < 0.15


class TestAdapterForward:
    def test_identity_on_unit_rows(self):
        a = init_identity_adapter(5, noise_variance=0.0,
                                  gen=Rng(0).substream("init"))
        x = l2_normalize_rows(Rng(2).substream("x").normal(size=(3, 5)))
        np.testing.assert_allclose(a.forward(x), x, atol=1e-12)

    def test_scaling_cancels_under_normalization(self):
        a = init_identity_adapter(5, noise_variance=0.0,
                                  gen=Rng(0).substream("init"))
        a.linear.weight.value = 2.0 * np.eye(5)
        x = l2_normalize_rows(Rng(2).substream("y").normal(size=(3, 5)))
        np.testing.assert_allclose(a.forward(x), x, atol=1e-12)

    def test_zero_map_raises(self):
        a = init_identity_adapter(5, noise_variance=0.0,
                                  gen=Rng(0).substream("init"))
        a.linear.weight.value = np.zeros((5, 5))
        with pytest.raises(ZeroRow):
            a.forward(np.ones((2, 5)))

    def test_shape_mismatch(self):
        a = init_identity_adapter(5, noise_variance=0.0,
                                  gen=Rng(0).substream("init"))
        with pytest.raises(ShapeMismatch):
            a.forward(np.ones((2, 4)))

    def test_backward_without_forward(self):
        a = init_identity_adapter(3, noise_variance=0.0,
                                  gen=Rng(0).substream("init"))
        with pytest.raises(MissingForwardCache):
            a.backward(np.ones((2, 3)), GradientTape())


@pytest.mark.parametrize("build", [
    lambda: Linear("lin", 0, 3), lambda: Linear("lin", 3, 0),
    lambda: Dropout(1.0), lambda: Dropout(-0.1), lambda: Dropout(math.nan),
], ids=["in_0", "out_0", "rate_1", "rate_negative", "rate_nan"])
def test_layer_rejects_out_of_range_setting(build):
    with pytest.raises(ValueError):
        build()


class TestBackwardBasics:
    def test_zero_upstream_gives_zero_grads(self):
        a = LinearAdapter(4, 4, gen=Rng(5).substream("init"))
        a.forward(Rng(5).substream("x").normal(size=(3, 4)))
        tape = GradientTape()
        a.backward(np.zeros((3, 4)), tape)
        assert np.all(tape.get(a.linear.weight) == 0)
        assert np.all(tape.get(a.linear.bias) == 0)

    def test_bias_gradient_is_column_sums(self):
        a = init_identity_adapter(4, noise_variance=0.0,
                                  gen=Rng(0).substream("init"))
        x = Rng(6).substream("x").normal(size=(3, 4))
        a.linear.forward(x)
        g = Rng(6).substream("g").normal(size=(3, 4))
        tape = GradientTape()
        a.linear.backward(g, tape)
        np.testing.assert_allclose(tape.get(a.linear.bias), g.sum(axis=0),
                                   atol=1e-12)

    def test_tape_rejects_bad_shape(self):
        a = init_identity_adapter(3, noise_variance=0.0,
                                  gen=Rng(0).substream("init"))
        tape = GradientTape()
        with pytest.raises(ShapeMismatch):
            tape.add(a.linear.weight, np.zeros(2))

    def test_gelu_matches_exact_forms_bit_for_bit(self):
        # The frozen composites below use the package's own Gelu, so this
        # pins its arithmetic: y = x*Phi(x), dy/dx = Phi(x) + x*phi(x), in
        # the operation order of the original backward pass.
        gen = Rng(8).substream("gelu")
        layer = Gelu()
        for shape in [(5, 7), (64, 33)]:
            x = gen.normal(scale=3.0, size=shape)
            x[0, :3] = [0.0, -0.0, 40.0]
            g = gen.normal(size=shape)
            y = layer.forward(x)
            assert y.tobytes() == (x * normal_cdf(x)).tobytes()
            slope = normal_cdf(x) + x * (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(
                -0.5 * x * x)
            assert layer.backward(g, GradientTape()).tobytes() == \
                (g * slope).tobytes()


class TestBotania:
    def _model(self, gen):
        return BotaniaMLP(in_dim=7, hidden=6, embed=5, n_classes=4,
                          dropout_rate=0.4, gen=gen)

    def test_eval_mode_deterministic(self):
        m = self._model(Rng(1).substream("init"))
        covers = Rng(1).substream("c").uniform(0, 100, size=(3, 7))
        np.testing.assert_array_equal(m.forward(covers), m.forward(covers))
        np.testing.assert_array_equal(m.embedding.forward(covers),
                                      m.embedding.forward(covers))

    def test_softmax_of_logits_normalized(self):
        m = self._model(Rng(2).substream("init"))
        logits = m.forward(Rng(2).substream("c").uniform(0, 100, size=(2, 7)))
        np.testing.assert_allclose(softmax(logits, axis=1).sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_penult_unit_norm(self):
        m = self._model(Rng(3).substream("init"))
        penult = m.embedding.forward(
            Rng(3).substream("c").uniform(0, 100, size=(4, 7)))
        np.testing.assert_allclose(np.linalg.norm(penult, axis=1), 1.0,
                                   atol=1e-12)

    def test_train_mode_uses_rng(self):
        m = self._model(Rng(4).substream("init"))
        covers = Rng(4).substream("c").uniform(0, 100, size=(3, 7))
        la = m.forward(covers, train=True, gen=Rng(4).substream("drop", 0))
        lb = m.forward(covers, train=True, gen=Rng(4).substream("drop", 0))
        lc = m.forward(covers, train=True, gen=Rng(4).substream("drop", 1))
        np.testing.assert_array_equal(la, lb)
        assert not np.array_equal(la, lc)


class TestSingleTokenAttention:
    def test_reduces_to_affine_map(self):
        mha = SingleTokenAttention("m", 8, Rng(7).substream("init"))
        gen = Rng(7).substream("x")
        x = gen.normal(size=(1, 8))
        y = gen.normal(size=(1, 8))
        f0 = mha.forward(np.zeros((1, 8)))
        fx = mha.forward(x) - f0
        fy = mha.forward(y) - f0
        fxy = mha.forward(2.0 * x + 3.0 * y) - f0
        np.testing.assert_allclose(fxy, 2.0 * fx + 3.0 * fy, atol=1e-10)


def _loss_through(model_forward, weights):
    out = model_forward()
    return float(np.sum(out * weights))


GRADCHECK_TOL = 1e-5


class TestGradientsAgainstFiniteDifferences:
    """Analytic backward vs the central-difference oracle, dims <= 8, batch <= 4."""

    def _check(self, params, scalar_fn, analytic_fn, h=1e-6):
        tape = analytic_fn()
        numeric = split_like_params(numeric_param_grad(scalar_fn, params, h=h),
                                    params)
        for p in params:
            err = max_rel_error(tape.get(p), numeric[p.name])
            assert err < GRADCHECK_TOL, f"{p.name}: rel err {err:.2e}"

    def test_linear_adapter_normalized(self):
        for seed in range(3):
            rng = Rng(seed)
            a = LinearAdapter(5, 5, gen=rng.substream("init"))
            x = rng.substream("x").normal(size=(3, 5))
            c = rng.substream("c").normal(size=(3, 5))

            def run():
                return _loss_through(lambda: a.forward(x), c)

            def analytic():
                out = a.forward(x)
                tape = GradientTape()
                a.backward(c * np.ones_like(out), tape)
                return tape

            self._check(a.params(), run, analytic)

    def _check_botania_path(self, path, out_dim, seed0):
        # h = 1e-5: cover inputs are O(100), smaller steps are
        # roundoff-dominated
        for seed in range(3):
            rng = Rng(seed + seed0)
            m = BotaniaMLP(in_dim=6, hidden=5, embed=4, n_classes=3,
                           dropout_rate=0.4, gen=rng.substream("init"))
            layer = path(m)
            covers = rng.substream("c").uniform(0, 100, size=(3, 6))
            c = rng.substream("c_out").normal(size=(3, out_dim))

            def run():
                return _loss_through(lambda: layer.forward(covers), c)

            def analytic():
                layer.forward(covers)
                tape = GradientTape()
                layer.backward(c, tape)
                return tape

            self._check(layer.params(), run, analytic, h=1e-5)

    def test_botania_classifier(self):
        self._check_botania_path(lambda m: m, 3, 100)

    def test_botania_embedding(self):
        # params() include the head, which the embedding does not reach:
        # its analytic and numeric gradients must both be zero
        self._check_botania_path(lambda m: m.embedding, 4, 110)

    def test_botania_train_mode_same_dropout_masks(self):
        rng = Rng(77)
        m = BotaniaMLP(in_dim=6, hidden=5, embed=4, n_classes=3,
                       dropout_rate=0.4, gen=rng.substream("init"))
        covers = rng.substream("c").uniform(0, 100, size=(4, 6))
        cl = rng.substream("cl").normal(size=(4, 3))

        def run():
            logits = m.forward(covers, train=True,
                               gen=Rng(77).substream("drop"))
            return float(np.sum(logits * cl))

        def analytic():
            m.forward(covers, train=True, gen=Rng(77).substream("drop"))
            tape = GradientTape()
            m.backward(cl, tape)
            return tape

        self._check(m.params(), run, analytic, h=1e-5)

    def test_two_layer_encoder(self):
        for seed in range(3):
            rng = Rng(seed + 200)
            enc = TwoLayerEncoder(7, 6, 4, rng.substream("init"))
            x = rng.substream("x").normal(size=(2, 7))
            c = rng.substream("c").normal(size=(2, 4))

            def run():
                return _loss_through(lambda: enc.forward(x), c)

            def analytic():
                enc.forward(x)
                tape = GradientTape()
                enc.backward(c, tape)
                return tape

            self._check(enc.params(), run, analytic)

    def test_attention_encoder(self):
        for seed in range(3):
            rng = Rng(seed + 300)
            enc = AttentionEncoder(6, 4, rng.substream("init"), model_dim=8)
            x = rng.substream("x").normal(size=(3, 6))
            c = rng.substream("c").normal(size=(3, 4))

            def run():
                return _loss_through(lambda: enc.forward(x), c)

            def analytic():
                enc.forward(x)
                tape = GradientTape()
                enc.backward(c, tape)
                return tape

            self._check(enc.params(), run, analytic)

    def test_attention_has_no_qk_params(self):
        # Q and K cannot move the output of a one-token attention, so
        # the block keeps only V and O, and any width takes it
        rng = Rng(301)
        enc = AttentionEncoder(6, 4, rng.substream("init"), model_dim=8)
        assert [p.name for p in enc.mha.params()] == [
            "attn.mha.v.weight", "attn.mha.v.bias",
            "attn.mha.o.weight", "attn.mha.o.bias"]
        enc.forward(rng.substream("x").normal(size=(2, 6)))
        tape = GradientTape()
        enc.backward(rng.substream("c").normal(size=(2, 4)), tape)
        assert set(tape.grads) == {p.name for p in enc.params()}
        mha = SingleTokenAttention("m", 7, rng.substream("init"))
        assert mha.forward(np.ones((2, 7))).shape == (2, 7)

    def test_botasp_model(self):
        rng = Rng(400)
        m = BotaSPModel(in_dim=5, n_species=3, proj_dim=4, hidden=6,
                        dropout_rate=0.4, gen=rng.substream("init"))
        x = rng.substream("x").normal(size=(3, 5))
        cl = rng.substream("cl").normal(size=(3, 3))
        cz = rng.substream("cz").normal(size=(3, 4))

        def run():
            logits, z, _ = m.forward(x)
            return float(np.sum(logits * cl) + np.sum(z * cz))

        def analytic():
            m.forward(x)
            tape = GradientTape()
            m.backward(tape, g_logits=cl, g_z=cz)
            return tape

        self._check(m.params(), run, analytic)

    def test_input_gradient(self):
        rng = Rng(500)
        enc = TwoLayerEncoder(5, 4, 3, rng.substream("init"))
        x0 = rng.substream("x").normal(size=(2, 5))
        c = rng.substream("c").normal(size=(2, 3))

        enc.forward(x0)
        tape = GradientTape()
        gx = enc.backward(c, tape)

        numeric = finite_diff_grad(
            lambda v: _loss_through(lambda: enc.forward(v.reshape(2, 5)), c),
            x0.reshape(-1).copy())
        assert max_rel_error(gx.reshape(-1), numeric) < GRADCHECK_TOL


class TestAlignmentModel:
    def test_projections_unit_norm_all_variants(self):
        rng = Rng(900)
        img = rng.substream("img").normal(size=(4, 6))
        covers = rng.substream("cov").uniform(0, 100, size=(4, 9))
        botania = BotaniaMLP(in_dim=9, hidden=5, embed=6, n_classes=3,
                             dropout_rate=0.4, gen=rng.substream("binit"))
        for variant in ("botania-linear", "mlp", "attention"):
            m = AlignmentModel(variant, d_img=6, d_tab=9, rng=Rng(901),
                               proj_dim=6, botania=botania,
                               adapter_noise_variance=1e-4,
                               mlp_img_hidden=5, mlp_tab_hidden=5,
                               attn_model_dim=8)
            zi = m.encode_images(img)
            zt = m.encode_tables(covers)
            np.testing.assert_allclose(np.linalg.norm(zi, axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(np.linalg.norm(zt, axis=1), 1.0, atol=1e-9)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            AlignmentModel("cnn", d_img=4, d_tab=4, rng=Rng(0), proj_dim=4)


# --- frozen reference: each model as its own hand-written backward chain ------
# The composite classes as they were before the layer protocol, built on the
# package's primitive layers. The Sequential compositions must match them bit
# for bit: init draws, params() names and order, dropout draws, outputs and
# every gradient.

class _RefSingleTokenAttention:
    def __init__(self, name, dim, n_heads, gen):
        if dim % n_heads:
            raise ShapeMismatch(f"dim {dim} not divisible by {n_heads} heads")
        self.q = Linear(f"{name}.q", dim, dim, gen)
        self.k = Linear(f"{name}.k", dim, dim, gen)
        self.v = Linear(f"{name}.v", dim, dim, gen)
        self.o = Linear(f"{name}.o", dim, dim, gen)

    def forward(self, x, train=False, gen=None):
        return self.o.forward(self.v.forward(x))

    def backward(self, g, tape):
        return self.v.backward(self.o.backward(g, tape), tape)

    def params(self):
        # Q and K are drawn, so V and O start where they did, but not kept
        return self.v.params() + self.o.params()


class _RefLinearAdapter:
    def __init__(self, in_dim, out_dim, name="adapter", gen=None):
        self.linear = Linear(name, in_dim, out_dim, gen)
        self.norm = RowNormalize()

    def forward(self, x, train=False, gen=None):
        return self.norm.forward(self.linear.forward(
            np.asarray(x, dtype=np.float64)))

    def backward(self, g, tape):
        return self.linear.backward(self.norm.backward(g, tape), tape)

    def params(self):
        return self.linear.params()


def _ref_identity_adapter(dim, noise_variance, gen, name):
    adapter = _RefLinearAdapter(dim, dim, name=name)
    w = np.eye(dim)
    if noise_variance > 0:
        w = w + gen.normal(0.0, math.sqrt(noise_variance), size=(dim, dim))
    adapter.linear.weight.value = w
    adapter.linear.bias.value = np.zeros(dim)
    return adapter


class _RefBotaniaMLP:
    def __init__(self, in_dim=3587, hidden=1536, embed=768, n_classes=232,
                 dropout_rate=0.4, gen=None, name="botania"):
        self.in_dim = in_dim
        self.embed_dim = embed
        self.lin1 = Linear(f"{name}.lin1", in_dim, hidden, gen)
        self.lin2 = Linear(f"{name}.lin2", hidden, embed, gen)
        self.head = Linear(f"{name}.head", embed, n_classes, gen)
        self.gelu1 = Gelu()
        self.gelu2 = Gelu()
        self.drop1 = Dropout(dropout_rate)
        self.drop2 = Dropout(dropout_rate)
        self.norm = RowNormalize()
        self._ran_forward = False

    def forward(self, covers, train=False, gen=None, with_head=True,
                with_penult=True):
        x = np.asarray(covers, dtype=np.float64)
        if x.min(initial=0.0) < 0.0 or x.max(initial=0.0) > 100.0:
            raise DataError("cover values must lie in [0, 100]")
        h1 = self.drop1.forward(self.gelu1.forward(self.lin1.forward(x)),
                                train, gen)
        h2 = self.gelu2.forward(self.lin2.forward(h1))
        penult = self.norm.forward(h2) if with_penult else None
        logits = None
        if with_head:
            logits = self.head.forward(self.drop2.forward(h2, train, gen))
        self._ran_forward = True
        self._with_head = with_head
        return logits, penult

    def backward(self, tape, g_logits=None, g_penult=None):
        if not self._ran_forward:
            raise MissingForwardCache("botania")
        g_h2 = 0.0
        if g_logits is not None:
            if not self._with_head:
                raise MissingForwardCache("botania head")
            g_h2 = g_h2 + self.drop2.backward(
                self.head.backward(g_logits, tape), tape)
        if g_penult is not None:
            g_h2 = g_h2 + self.norm.backward(g_penult, tape)
        g_h1 = self.lin2.backward(self.gelu2.backward(g_h2, tape), tape)
        return self.lin1.backward(self.gelu1.backward(
            self.drop1.backward(g_h1, tape), tape), tape)

    def params(self):
        return self.lin1.params() + self.lin2.params() + self.head.params()


class _RefTwoLayerEncoder:
    def __init__(self, in_dim, hidden, out_dim, gen, name="mlp",
                 dropout_rate=0.1):
        self.lin1 = Linear(f"{name}.lin1", in_dim, hidden, gen)
        self.lin2 = Linear(f"{name}.lin2", hidden, out_dim, gen)
        self.relu = Relu()
        self.drop = Dropout(dropout_rate)
        self.norm = RowNormalize()

    def forward(self, x, train=False, gen=None):
        h = self.drop.forward(self.relu.forward(self.lin1.forward(
            np.asarray(x, dtype=np.float64))), train, gen)
        return self.norm.forward(self.lin2.forward(h))

    def backward(self, g, tape):
        g = self.lin2.backward(self.norm.backward(g, tape), tape)
        return self.lin1.backward(self.relu.backward(
            self.drop.backward(g, tape), tape), tape)

    def params(self):
        return self.lin1.params() + self.lin2.params()


class _RefAttentionEncoder:
    def __init__(self, in_dim, out_dim, gen, model_dim=1024, n_heads=4,
                 name="attn", dropout_rate=0.1):
        self.reduce = Linear(f"{name}.reduce", in_dim, model_dim, gen)
        self.ln1 = LayerNorm(f"{name}.ln1", model_dim)
        self.mha = _RefSingleTokenAttention(f"{name}.mha", model_dim, n_heads,
                                            gen)
        self.ln2 = LayerNorm(f"{name}.ln2", model_dim)
        self.relu = Relu()
        self.drop = Dropout(dropout_rate)
        self.project = Linear(f"{name}.project", model_dim, out_dim, gen)
        self.norm = RowNormalize()

    def forward(self, x, train=False, gen=None):
        h = self.reduce.forward(np.asarray(x, dtype=np.float64))
        attended = h + self.mha.forward(self.ln1.forward(h))
        f = self.drop.forward(self.relu.forward(self.ln2.forward(attended)),
                              train, gen)
        return self.norm.forward(self.project.forward(f))

    def backward(self, g, tape):
        g = self.project.backward(self.norm.backward(g, tape), tape)
        g_att = self.ln2.backward(self.relu.backward(
            self.drop.backward(g, tape), tape), tape)
        g_h = g_att + self.ln1.backward(self.mha.backward(g_att, tape), tape)
        return self.reduce.backward(g_h, tape)

    def params(self):
        return (self.reduce.params() + self.ln1.params() + self.mha.params()
                + self.ln2.params() + self.project.params())


class _RefBotaSPModel:
    def __init__(self, in_dim, n_species, proj_dim=768, hidden=1536,
                 dropout_rate=0.4, gen=None, name="botasp"):
        self.proj = Linear(f"{name}.proj", in_dim, proj_dim, gen)
        self.hidden = Linear(f"{name}.hidden", proj_dim, hidden, gen)
        self.head = Linear(f"{name}.head", hidden, n_species, gen)
        self.proj_norm = RowNormalize()
        self.gelu = Gelu()
        self.drop = Dropout(dropout_rate)

    def forward(self, x, train=False, gen=None):
        z = self.proj_norm.forward(self.proj.forward(
            np.asarray(x, dtype=np.float64)))
        feat = self.gelu.forward(self.hidden.forward(z))
        logits = self.head.forward(self.drop.forward(feat, train, gen))
        return logits, z, feat

    def backward(self, tape, g_logits, g_z=None):
        g_feat = self.drop.backward(self.head.backward(g_logits, tape), tape)
        g_zt = self.hidden.backward(self.gelu.backward(g_feat, tape), tape)
        if g_z is not None:
            g_zt = g_zt + g_z
        return self.proj.backward(self.proj_norm.backward(g_zt, tape), tape)

    def params(self):
        return self.proj.params() + self.hidden.params() + self.head.params()


class _RefAlignmentModel:
    def __init__(self, variant, d_img, d_tab, rng, proj_dim=768, botania=None,
                 mlp_img_hidden=2600, mlp_tab_hidden=1024, attn_model_dim=1024,
                 attn_heads=4, adapter_noise_variance=1e-4,
                 tau_init=math.log(10.0), bias_init=-10.0):
        self.variant = variant
        if variant == "botania-linear":
            self.img_branch = _ref_identity_adapter(
                d_img, adapter_noise_variance, rng.substream("init/img_adapter"),
                name="img_adapter")
            self.botania = botania
            self.tab_adapter = _RefLinearAdapter(
                botania.embed_dim, proj_dim, name="tab_adapter",
                gen=rng.substream("init/tab_adapter"))
        elif variant == "mlp":
            self.img_branch = _RefTwoLayerEncoder(
                d_img, mlp_img_hidden, proj_dim,
                rng.substream("init/img_encoder"), name="img_encoder")
            self.tab_branch = _RefTwoLayerEncoder(
                d_tab, mlp_tab_hidden, proj_dim,
                rng.substream("init/tab_encoder"), name="tab_encoder")
        else:
            self.img_branch = _RefTwoLayerEncoder(
                d_img, mlp_img_hidden, proj_dim,
                rng.substream("init/img_encoder"), name="img_encoder")
            self.tab_branch = _RefAttentionEncoder(
                d_tab, proj_dim, rng.substream("init/tab_encoder"),
                model_dim=attn_model_dim, n_heads=attn_heads,
                name="tab_encoder")
        self.tau = Param("scalars.tau", np.float64(tau_init), decay=False)
        self.bias = Param("scalars.bias", np.float64(bias_init), decay=False)

    def encode_images(self, x, train=False, gen=None):
        if self.variant == "botania-linear":
            return self.img_branch.forward(x)
        return self.img_branch.forward(x, train=train, gen=gen)

    def backward_images(self, g, tape):
        return self.img_branch.backward(g, tape)

    def encode_tables(self, covers, train=False, gen=None):
        if self.variant == "botania-linear":
            _, penult = self.botania.forward(covers, train=train, gen=gen,
                                             with_head=False)
            return self.tab_adapter.forward(penult)
        return self.tab_branch.forward(covers, train=train, gen=gen)

    def backward_tables(self, g, tape):
        if self.variant == "botania-linear":
            g_penult = self.tab_adapter.backward(g, tape)
            return self.botania.backward(tape, g_penult=g_penult)
        return self.tab_branch.backward(g, tape)

    def params(self):
        out = list(self.img_branch.params())
        if self.variant == "botania-linear":
            out += self.botania.params() + self.tab_adapter.params()
        else:
            out += self.tab_branch.params()
        out += [self.tau, self.bias]
        return out


_REF = SimpleNamespace(
    # the head count the frozen block takes fed its divisibility check only
    SingleTokenAttention=lambda name, dim, gen: _RefSingleTokenAttention(
        name, dim, 4, gen),
    LinearAdapter=_RefLinearAdapter, BotaniaMLP=_RefBotaniaMLP,
    TwoLayerEncoder=_RefTwoLayerEncoder, AttentionEncoder=_RefAttentionEncoder,
    BotaSPModel=_RefBotaSPModel, AlignmentModel=_RefAlignmentModel)


def _normal(seed, what, shape):
    return Rng(seed).substream(what).normal(size=shape)


def _covers(seed, shape):
    return Rng(seed).substream("covers").uniform(0, 100, size=shape)


def _layer_case(build, in_dim, out_dim, draw=_normal):
    """A one-input model: forward in train mode of draw(seed, "x", shape),
    backward of a random output gradient; returns (model, outputs, input
    gradients)."""
    def run(ns, seed):
        model = build(ns, Rng(seed).substream("init"))
        out = model.forward(draw(seed, "x", (6, in_dim)), True,
                            Rng(seed).substream("drop"))
        tape = GradientTape()
        g_in = model.backward(_normal(seed, "g", (6, out_dim)), tape)
        return model, tape, [out], [g_in]
    return run


class _RefBotaniaPath:
    """One output of a frozen _RefBotaniaMLP, the logits or the
    penultimate embedding, behind the layer protocol."""

    def __init__(self, model, logits):
        self.model = model
        self.logits = logits

    def forward(self, x, train=False, gen=None):
        logits, penult = self.model.forward(x, train, gen,
                                            with_head=self.logits,
                                            with_penult=not self.logits)
        return logits if self.logits else penult

    def backward(self, g, tape):
        if self.logits:
            return self.model.backward(tape, g_logits=g)
        return self.model.backward(tape, g_penult=g)

    def params(self):
        return self.model.params()


def _botania_case(logits):
    """The classifier (logits) or its embedding over covers in [0, 100]."""
    def build(ns, gen):
        model = ns.BotaniaMLP(in_dim=7, hidden=6, embed=5, n_classes=4,
                              dropout_rate=0.4, gen=gen)
        if ns is _REF:
            return _RefBotaniaPath(model, logits)
        return model if logits else model.embedding
    return _layer_case(build, 7, 4 if logits else 5,
                       draw=lambda seed, _, shape: _covers(seed, shape))


def _botasp_case(with_gz):
    def run(ns, seed):
        model = ns.BotaSPModel(in_dim=5, n_species=3, proj_dim=4, hidden=6,
                               dropout_rate=0.4,
                               gen=Rng(seed).substream("init"))
        outs = model.forward(_normal(seed, "x", (6, 5)), True,
                             Rng(seed).substream("drop"))
        tape = GradientTape()
        g_in = model.backward(tape, _normal(seed, "gl", (6, 3)),
                              _normal(seed, "gz", (6, 4)) if with_gz else None)
        return model, tape, list(outs), [g_in]
    return run


def _alignment_case(variant):
    def run(ns, seed):
        botania = ns.BotaniaMLP(in_dim=9, hidden=5, embed=6, n_classes=3,
                                dropout_rate=0.4,
                                gen=Rng(seed).substream("binit"))
        model = ns.AlignmentModel(variant, d_img=6, d_tab=9, rng=Rng(seed),
                                  proj_dim=6, botania=botania,
                                  adapter_noise_variance=1e-4,
                                  mlp_img_hidden=7, mlp_tab_hidden=8,
                                  attn_model_dim=8)
        gen = Rng(seed).substream("drop")
        z_img = model.encode_images(_normal(seed, "img", (6, 6)), True, gen)
        z_tab = model.encode_tables(_covers(seed, (6, 9)), True, gen)
        tape = GradientTape()
        g_img = model.backward_images(_normal(seed, "gi", (6, 6)), tape)
        g_tab = model.backward_tables(_normal(seed, "gt", (6, 6)), tape)
        return model, tape, [z_img, z_tab], [g_img, g_tab]
    return run


_CASES = {
    "linear_adapter": _layer_case(
        lambda ns, gen: ns.LinearAdapter(5, 4, gen=gen), 5, 4),
    "single_token_attention": _layer_case(
        lambda ns, gen: ns.SingleTokenAttention("m", 8, gen), 8, 8),
    "two_layer": _layer_case(
        lambda ns, gen: ns.TwoLayerEncoder(7, 6, 4, gen), 7, 4),
    "attention": _layer_case(
        lambda ns, gen: ns.AttentionEncoder(6, 4, gen, model_dim=8), 6, 4),
    # the classifier and its embedding: the frozen model's head-only and
    # penult-only outputs
    "botania_head_only": _botania_case(logits=True),
    "botania_penult_only": _botania_case(logits=False),
    "botasp": _botasp_case(True),
    "botasp_no_gz": _botasp_case(False),
    **{f"align_{v}": _alignment_case(v) for v in encoders.VARIANTS},
}


def _bits(run, ns, seed):
    model, tape, outs, g_ins = run(ns, seed)
    params = model.params()
    return ([p.name for p in params], [p.value.tobytes() for p in params],
            [o.tobytes() for o in outs], [g.tobytes() for g in g_ins],
            {k: v.tobytes() for k, v in tape.grads.items()})


@pytest.mark.parametrize("case", list(_CASES))
def test_layers_match_frozen_reference(case):
    for seed in range(3):
        new = _bits(_CASES[case], encoders, seed)
        ref = _bits(_CASES[case], _REF, seed)
        for what, a, b in zip(("params() names", "initial values", "outputs",
                               "input gradients", "tape gradients"), new, ref):
            assert a == b, f"{case}, seed {seed}: {what} differ"


# --- structure: every layer runs as an element of a Sequential ---------------

def _leaf_layer_classes():
    return [c for c in vars(encoders).values()
            if isinstance(c, type) and issubclass(c, encoders.Layer)
            and c is not encoders.Layer
            and not issubclass(c, (encoders.Sequential, encoders.Residual))]


def _model_runs(seed=0):
    """One call per model running its forward and backward in train
    mode."""
    rng = Rng(seed)
    gen = rng.substream("drop")
    covers = _covers(seed, (4, 9))
    img = _normal(seed, "img", (4, 6))
    botania = BotaniaMLP(in_dim=9, hidden=5, embed=6, n_classes=3,
                         dropout_rate=0.4, gen=rng.substream("binit"))

    def layer(model, x, out_dim):
        def run():
            model.forward(x, True, gen)
            model.backward(_normal(seed, "g", (4, out_dim)), GradientTape())
        return run

    def alignment(variant):
        model = AlignmentModel(variant, d_img=6, d_tab=9, rng=Rng(seed),
                               proj_dim=6, botania=botania,
                               adapter_noise_variance=1e-4, mlp_img_hidden=5,
                               mlp_tab_hidden=5, attn_model_dim=8)

        def run():
            model.encode_images(img, True, gen)
            model.encode_tables(covers, True, gen)
            tape = GradientTape()
            model.backward_images(_normal(seed, "gi", (4, 6)), tape)
            model.backward_tables(_normal(seed, "gt", (4, 6)), tape)
        return run

    botasp = BotaSPModel(in_dim=6, n_species=3, proj_dim=4, hidden=5,
                         dropout_rate=0.4, gen=rng.substream("spinit"))

    def supervised():
        botasp.forward(img, True, gen)
        botasp.backward(GradientTape(), _normal(seed, "gl", (4, 3)),
                        _normal(seed, "gz", (4, 4)))

    return [layer(botania, covers, 3), layer(botania.embedding, covers, 6),
            supervised, *(alignment(v) for v in encoders.VARIANTS)]


def test_every_layer_runs_inside_a_sequential(monkeypatch):
    """A hook in Sequential.forward/backward sees every layer that does
    work: each parameter or computation layer (anything but a Sequential
    or a Residual) runs only as an element of a Sequential, called from
    its loop, in every model's forward and backward."""
    seq_code = {encoders.Sequential.forward.__code__,
                encoders.Sequential.backward.__code__}
    ran, outside = set(), set()

    def watch(cls, method):
        original = getattr(cls, method)

        def watched(self, *args, **kwargs):
            caller = sys._getframe(1)
            ran.add(cls.__name__)
            if not (caller.f_code in seq_code
                    and caller.f_locals.get("layer") is self):
                outside.add(f"{cls.__name__}.{method} (from "
                            f"{caller.f_code.co_qualname})")
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, method, watched)

    leaves = _leaf_layer_classes()
    for cls in leaves:
        watch(cls, "forward")
        watch(cls, "backward")
    for run in _model_runs():
        run()
    assert not outside, sorted(outside)
    assert ran == {c.__name__ for c in leaves}
