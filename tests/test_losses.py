import math

import numpy as np
import pytest
from conftest import numeric_param_grad, split_like_params
from gradcheck import finite_diff_grad, max_rel_error
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import pairref
from pairref import pair_labels

from botaclip.encoders import (
    AlignmentModel,
    BotaniaMLP,
    BotaSPModel,
    GradientTape,
)
from botaclip.errors import DataError, NumericError
from botaclip.losses import (
    TAU_CLAMP,
    ScalarsTauB,
    binary_cross_entropy_with_logits,
    botasp_loss,
    cross_entropy_batch,
    sigmoid_contrastive_loss,
    similarity_regularizer,
    similarity_weights,
)
from botaclip.numerics import Rng, l2_normalize_rows

LN2 = math.log(2.0)
# -log sigmoid(1), frozen from a high-precision scalar evaluation
NEG_LOG_SIG_1 = 0.3132616875182228


def _scl(z_img, z_tab, s):
    return sigmoid_contrastive_loss(z_img, z_tab, s)[0]


def _pairwise_loss(logits):
    """Mean over all pairs of -log sigmoid(label * logit), label +1 on the
    diagonal, -1 elsewhere, one scalar term at a time."""
    n = logits.shape[0]
    return sum(math.log1p(math.exp(-(1.0 if i == j else -1.0) * logits[i, j]))
               for i in range(n) for j in range(n)) / (n * n)


class TestLogits:
    def test_orthonormal_identity(self):
        # logits equal the identity: n positives at 1, n^2 - n negatives at 0
        z = np.eye(4)
        expected = (4 * NEG_LOG_SIG_1 + 12 * LN2) / 16
        assert abs(_scl(z, z, ScalarsTauB(tau=0.0, b=0.0)) - expected) < 1e-12

    def test_temperature_and_bias(self):
        z_img = np.array([[1.0, 0.0]])
        z_tab = np.array([[0.5, math.sqrt(0.75)]])  # dot = 0.5
        # logit 2 * 0.5 - 1 = 0
        loss = _scl(z_img, z_tab, ScalarsTauB(tau=math.log(2.0), b=-1.0))
        assert abs(loss - LN2) < 1e-12

    def test_bias_shifts_uniformly(self):
        gen = Rng(1).substream("z")
        z_img = l2_normalize_rows(gen.normal(size=(3, 4)))
        z_tab = l2_normalize_rows(gen.normal(size=(3, 4)))
        logits = (z_img @ z_tab.T) * math.exp(0.3)
        for b in (0.0, 2.5):
            assert abs(_scl(z_img, z_tab, ScalarsTauB(tau=0.3, b=b))
                       - _pairwise_loss(logits + b)) < 1e-12


class TestSigmoidContrastiveLoss:
    def test_single_pair_zero_logit(self):
        loss = _scl(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
                    ScalarsTauB(0.0, 0.0))
        assert abs(loss - LN2) < 1e-12

    def test_single_pair_unit_logit(self):
        z = np.array([[1.0, 0.0]])
        assert abs(_scl(z, z, ScalarsTauB(0.0, 0.0)) - NEG_LOG_SIG_1) < 1e-9

    def test_two_pair_hand_case(self):
        # diagonal dots 1, off-diagonal dots 0, tau=0, b=0:
        # brute force over the four terms gives (2*0.313262 + 2*ln2)/4
        z = np.eye(2)
        loss = _scl(z, z, ScalarsTauB(0.0, 0.0))
        expected = (2 * NEG_LOG_SIG_1 + 2 * LN2) / 4.0
        assert abs(expected - 0.503204) < 1e-6
        assert abs(loss - expected) < 1e-12

    def test_all_zero_logits_is_ln2(self):
        for n in (1, 3, 7):
            z = np.zeros((n, 2))
            assert abs(_scl(z, z, ScalarsTauB(0.0, 0.0)) - LN2) < 1e-12

    def test_nonnegative_on_random_inputs(self):
        gen = Rng(2).substream("r")
        for _ in range(20):
            z_img = gen.normal(scale=2.0, size=(4, 3))
            z_tab = gen.normal(scale=2.0, size=(4, 3))
            s = ScalarsTauB(0.0, float(gen.normal(scale=5.0)))
            assert _scl(z_img, z_tab, s) >= 0.0

    def test_rejects_rectangular(self):
        with pytest.raises(DataError, match="pairwise logits must be square"):
            _scl(np.zeros((2, 4)), np.zeros((3, 4)), ScalarsTauB(0.0, 0.0))
        with pytest.raises(DataError, match="projection widths differ"):
            _scl(np.zeros((2, 4)), np.zeros((2, 3)), ScalarsTauB(0.0, 0.0))

    def test_permutation_invariance(self):
        gen = Rng(3).substream("p")
        z_img = l2_normalize_rows(gen.normal(size=(5, 4)))
        z_tab = l2_normalize_rows(gen.normal(size=(5, 4)))
        s = ScalarsTauB(0.2, -0.7)
        perm = gen.permutation(5)
        a = _scl(z_img, z_tab, s)
        b = _scl(z_img[perm], z_tab[perm], s)
        assert abs(a - b) < 1e-12


def _drift(img, z):
    return similarity_regularizer(img, z)[0]


class TestRegularizer:
    def test_zero_at_identity(self):
        gen = Rng(4).substream("z")
        img = l2_normalize_rows(gen.normal(size=(4, 6)))
        assert _drift(img, img) == 0.0

    def test_antipodal_pair_ignored(self):
        img = np.array([[1.0, 0.0], [-1.0, 0.0]])
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        # W off-diagonal is ((1-1)/2)^2 = 0; diagonal drift is zero anyway
        assert _drift(img, z) == 0.0

    def test_collapsed_pair_hand_case(self):
        img = np.eye(2)
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert abs(_drift(img, z) - 0.125) < 1e-12

    def test_weights_in_unit_interval(self):
        gen = Rng(5).substream("w")
        img = l2_normalize_rows(gen.normal(size=(6, 5)))
        w = similarity_weights(img @ img.T)
        assert w.min() >= 0.0 and w.max() <= 1.0 + 1e-12

    def test_rejects_unnormalized(self):
        gen = Rng(6).substream("u")
        img = gen.normal(size=(3, 4)) * 2.0
        with pytest.raises(NumericError, match="deviate from unit norm"):
            _drift(img, l2_normalize_rows(img))

    @pytest.mark.parametrize("which", ["original", "projected"])
    def test_rejects_nan_row(self, which):
        bad = np.eye(3)
        bad[1] = np.nan
        img, z = (bad, np.eye(3)) if which == "original" else (np.eye(3), bad)
        with pytest.raises(NumericError, match="deviate from unit norm"):
            similarity_regularizer(img, z)

    def test_permutation_invariance(self):
        gen = Rng(7).substream("p")
        img = l2_normalize_rows(gen.normal(size=(5, 4)))
        z = l2_normalize_rows(gen.normal(size=(5, 4)))
        perm = gen.permutation(5)
        assert abs(_drift(img, z) - _drift(img[perm], z[perm])) < 1e-12


class TestCombinedLoss:
    """botasp_loss: the BCE term plus lam times the drift penalty."""

    @staticmethod
    def _case(seed):
        gen = Rng(seed).substream("z")
        z_orig = l2_normalize_rows(gen.normal(size=(4, 5)))
        z_new = l2_normalize_rows(gen.normal(size=(4, 5)))
        logits = gen.normal(size=(4, 3))
        targets = (gen.random((4, 3)) < 0.5).astype(float)
        return logits, targets, z_orig, z_new

    def test_lambda_zero_reduction_exact(self):
        logits, targets, z_orig, z_new = self._case(8)
        assert botasp_loss(logits, targets, z_orig, z_new, 0.0) == \
            binary_cross_entropy_with_logits(logits, targets)

    def test_additivity(self):
        logits, targets, z_orig, z_new = self._case(9)
        bce, _ = binary_cross_entropy_with_logits(logits, targets)
        total, _ = botasp_loss(logits, targets, z_orig, z_new, 1.0)
        assert abs(total - (bce + _drift(z_orig, z_new))) < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            botasp_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2),
                        np.eye(2), -1.0)


class TestCrossEntropy:
    @staticmethod
    def _one_row(logits, label):
        return cross_entropy_batch(np.asarray(logits)[None, :],
                                   np.array([label]))[0]

    def test_uniform_logits(self):
        assert abs(self._one_row(np.zeros(232), 17) - math.log(232)) < 1e-12
        assert abs(math.log(232) - 5.44674) < 1e-5

    def test_saturated_logits(self):
        logits = np.zeros(5)
        logits[2] = 1e3
        assert self._one_row(logits, 2) < 1e-12

    def test_two_class_hand_value(self):
        assert abs(self._one_row(np.array([1.0, 0.0]), 0)
                   - NEG_LOG_SIG_1) < 1e-9

    def test_bad_label(self):
        with pytest.raises(DataError, match="labels outside logit range"):
            self._one_row(np.zeros(3), 3)


class TestBotaSPLoss:
    def test_zero_logits_zero_targets(self):
        logits = np.zeros((3, 4))
        targets = np.zeros((3, 4))
        z = l2_normalize_rows(Rng(9).substream("z").normal(size=(3, 5)))
        loss, _ = botasp_loss(logits, targets, z, z, lam=0.0)
        assert abs(loss - LN2) < 1e-12

    def test_identity_projection_kills_regularizer(self):
        gen = Rng(10).substream("z")
        z = l2_normalize_rows(gen.normal(size=(4, 5)))
        logits = gen.normal(size=(4, 3))
        targets = (gen.random((4, 3)) < 0.5).astype(float)
        bce, _ = binary_cross_entropy_with_logits(logits, targets)
        loss, _ = botasp_loss(logits, targets, z, z, lam=100.0)
        assert abs(loss - bce) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="logits and targets differ"):
            binary_cross_entropy_with_logits(np.zeros((2, 3)), np.zeros((2, 2)))


@st.composite
def _loss_cases(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    floats = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)

    def unit_rows(width):
        m = draw(hnp.arrays(np.float64, (n, width), elements=floats))
        m[np.linalg.norm(m, axis=1) < 1e-3] = 1.0
        return l2_normalize_rows(m)

    s = ScalarsTauB(draw(st.floats(-12.0, 12.0)), draw(floats))
    z_img, z_tab, img = unit_rows(d), unit_rows(d), unit_rows(d + 1)
    logits = draw(hnp.arrays(np.float64, (n, k), elements=floats))
    targets = draw(hnp.arrays(np.float64, (n, k),
                              elements=st.sampled_from([0.0, 1.0])))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    lam = draw(st.sampled_from([0.0, 0.5, 100.0]))
    return {
        "scl": lambda grad: sigmoid_contrastive_loss(z_img, z_tab, s, grad),
        "drift": lambda grad: similarity_regularizer(z_img, z_tab, grad),
        "ce": lambda grad: cross_entropy_batch(logits, labels, grad),
        "bce": lambda grad: binary_cross_entropy_with_logits(logits, targets,
                                                             grad),
        "botasp": lambda grad: botasp_loss(logits, targets, img,
                                           np.roll(img, 1, axis=1), lam, grad),
    }


class TestGradFlag:
    @settings(max_examples=200, deadline=None)
    @given(_loss_cases())
    def test_loss_bits_do_not_depend_on_grad(self, losses):
        for name, f in losses.items():
            loss, grads = f(False)
            assert grads is None, name
            loss_g, grads_g = f(True)
            assert np.float64(loss).tobytes() == \
                np.float64(loss_g).tobytes(), name
            assert grads_g is not None, name


def _unit_rows(seed, purpose, n, d):
    return l2_normalize_rows(Rng(seed).substream(purpose).normal(size=(n, d)))


def _same_bits(a, b):
    return np.asarray(a, np.float64).tobytes() == np.asarray(b, np.float64).tobytes()


class TestPairKernelBits:
    """The in-place pair kernels against the frozen expressions with a label
    matrix in tests/pairref.py: loss and every gradient byte for byte, with
    tau at and beyond the clamp and biases that saturate every pair."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 256]), st.sampled_from([1, 3, 8]),
           st.integers(0, 2**16),
           st.one_of(st.sampled_from([TAU_CLAMP, -TAU_CLAMP, 12.0, -15.0]),
                     st.floats(-TAU_CLAMP, TAU_CLAMP)),
           st.sampled_from([0.0, -800.0, 900.0]))
    def test_contrastive_loss(self, n, d, seed, tau, b):
        z_img, z_tab = _unit_rows(seed, "i", n, d), _unit_rows(seed, "t", n, d)
        s = ScalarsTauB(tau=tau, b=b)
        loss, grads = sigmoid_contrastive_loss(z_img, z_tab, s, grad=True)
        want_loss, want_grads = pairref.sigmoid_contrastive_loss(z_img, z_tab,
                                                                 s)
        assert _same_bits(loss, want_loss)
        for got, want in zip(grads, want_grads):
            assert _same_bits(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 256]), st.sampled_from([1, 3, 8]),
           st.integers(0, 2**16))
    def test_similarity_regularizer(self, n, d, seed):
        img, z = _unit_rows(seed, "o", n, d), _unit_rows(seed, "z", n, d)
        loss, dz = similarity_regularizer(img, z, grad=True)
        want_loss, want_dz = pairref.similarity_regularizer(img, z)
        assert _same_bits(loss, want_loss) and _same_bits(dz, want_dz)


class TestLossGradients:
    def test_db_hand_value(self):
        # single pair, logit 0, positive label: dL/db = -sigmoid(0) = -0.5
        z = np.array([[1.0, 0.0]])
        _, (_, _, _, d_b) = sigmoid_contrastive_loss(
            z, z, ScalarsTauB(tau=0.0, b=-1.0), grad=True)
        # dot=1, tau=0 -> logit 0; gradient wrt b is -sigma(-0) = -0.5
        assert abs(d_b - (-0.5)) < 1e-12

    def test_regularizer_gradient_zero_at_minimum(self):
        gen = Rng(11).substream("z")
        img = l2_normalize_rows(gen.normal(size=(4, 5)))
        _, dz = similarity_regularizer(img, img, grad=True)
        np.testing.assert_allclose(dz, 0.0, atol=1e-12)

    def test_scl_grads_vs_finite_differences(self):
        for seed in range(5):
            rng = Rng(seed + 20)
            n, d = 4, 5
            z_img = l2_normalize_rows(rng.substream("zi").normal(size=(n, d)))
            z_tab = l2_normalize_rows(rng.substream("zt").normal(size=(n, d)))
            s = ScalarsTauB(tau=0.4, b=-0.8)
            _, (d_zi, d_zt, d_tau, d_b) = sigmoid_contrastive_loss(
                z_img, z_tab, s, grad=True)

            # projections are free variables here; unit norm is not required
            # by the loss itself, only by the training contract
            num_zi = finite_diff_grad(
                lambda v: _scl(v.reshape(n, d), z_tab, s),
                z_img.reshape(-1).copy()).reshape(n, d)
            num_zt = finite_diff_grad(
                lambda v: _scl(z_img, v.reshape(n, d), s),
                z_tab.reshape(-1).copy()).reshape(n, d)
            num_tau = finite_diff_grad(
                lambda v: _scl(z_img, z_tab, ScalarsTauB(float(v[0]), s.b)),
                np.array([s.tau]))
            num_b = finite_diff_grad(
                lambda v: _scl(z_img, z_tab, ScalarsTauB(s.tau, float(v[0]))),
                np.array([s.b]))
            assert max_rel_error(d_zi, num_zi) < 1e-5
            assert max_rel_error(d_zt, num_zt) < 1e-5
            assert max_rel_error(np.array([d_tau]), num_tau) < 1e-5
            assert max_rel_error(np.array([d_b]), num_b) < 1e-5

    def test_regularizer_grad_vs_finite_differences(self):
        # the oracle evaluates the raw formula without the unit-norm check,
        # since finite-difference perturbations leave the sphere
        for seed in range(5):
            rng = Rng(seed + 40)
            n, d = 3, 4
            img = l2_normalize_rows(rng.substream("img").normal(size=(n, d)))
            z = l2_normalize_rows(rng.substream("z").normal(size=(n, d)))
            _, dz = similarity_regularizer(img, z, grad=True)

            def f(v):
                zz = v.reshape(n, d)
                s_orig = img @ img.T
                s_new = zz @ zz.T
                w = ((1.0 + s_orig) / 2.0) ** 2
                return float(np.sum(w * (s_orig - s_new) ** 2) / (n * n))

            num = finite_diff_grad(f, z.reshape(-1).copy()).reshape(n, d)
            assert max_rel_error(dz, num) < 1e-5

    def test_cross_entropy_batch_grads(self):
        rng = Rng(60)
        logits = rng.substream("l").normal(size=(3, 5))
        labels = np.array([0, 3, 2])
        loss, dl = cross_entropy_batch(logits, labels, grad=True)
        # the loss-only form gives the same loss and no gradient
        assert cross_entropy_batch(logits, labels) == (loss, None)
        num = finite_diff_grad(
            lambda v: cross_entropy_batch(v.reshape(3, 5), labels)[0],
            logits.reshape(-1).copy()).reshape(3, 5)
        assert max_rel_error(dl, num) < 1e-5

    def test_botasp_grads(self):
        rng = Rng(61)
        n, s, d = 3, 4, 5
        logits = rng.substream("l").normal(size=(n, s))
        targets = (rng.substream("t").random((n, s)) < 0.4).astype(float)
        z_orig = l2_normalize_rows(rng.substream("zo").normal(size=(n, d)))
        z_new = l2_normalize_rows(rng.substream("zn").normal(size=(n, d)))
        _, (dlogits, dz) = botasp_loss(logits, targets, z_orig, z_new,
                                       lam=7.0, grad=True)
        num_l = finite_diff_grad(
            lambda v: botasp_loss(v.reshape(n, s), targets, z_orig, z_new,
                                  7.0)[0],
            logits.reshape(-1).copy()).reshape(n, s)

        def f_z(v):
            zz = v.reshape(n, d)
            s_orig = z_orig @ z_orig.T
            s_new = zz @ zz.T
            w = ((1.0 + s_orig) / 2.0) ** 2
            bce, _ = binary_cross_entropy_with_logits(logits, targets)
            return bce + 7.0 * float(np.sum(w * (s_orig - s_new) ** 2) / (n * n))

        num_z = finite_diff_grad(f_z, z_new.reshape(-1).copy()).reshape(n, d)
        assert max_rel_error(dlogits, num_l) < 1e-5
        assert max_rel_error(dz, num_z) < 1e-5


class TestFullChainGradients:
    """Loss through encoder, normalization and scalars vs finite differences."""

    def _check_alignment_chain(self, variant, seed):
        rng = Rng(seed)
        n, d_img, d_tab, proj = 3, 4, 6, 4
        botania = None
        if variant == "botania-linear":
            botania = BotaniaMLP(in_dim=d_tab, hidden=5, embed=proj,
                                 n_classes=3, dropout_rate=0.4,
                                 gen=rng.substream("binit"))
        model = AlignmentModel(variant, d_img=d_img, d_tab=d_tab,
                               rng=Rng(seed + 1), proj_dim=proj,
                               botania=botania, adapter_noise_variance=1e-4,
                               mlp_img_hidden=5, mlp_tab_hidden=5,
                               attn_model_dim=8)
        model.tau.value, model.bias.value = 0.3, -0.5
        img = l2_normalize_rows(rng.substream("img").normal(size=(n, d_img)))
        covers = rng.substream("cov").uniform(0, 100, size=(n, d_tab))
        lam = 0.8
        params = model.params()

        def scalar_fn():
            zi = model.encode_images(img)
            zt = model.encode_tables(covers)
            s = ScalarsTauB(float(model.tau.value), float(model.bias.value))
            return _scl(zi, zt, s) + lam * _drift(img, zi)

        zi = model.encode_images(img)
        zt = model.encode_tables(covers)
        s = ScalarsTauB(float(model.tau.value), float(model.bias.value))
        _, (d_zi, d_zt, d_tau, d_b) = sigmoid_contrastive_loss(zi, zt, s,
                                                               grad=True)
        _, d_zi_reg = similarity_regularizer(img, zi, grad=True)
        tape = GradientTape()
        model.backward_images(d_zi + lam * d_zi_reg, tape)
        model.backward_tables(d_zt, tape)
        tape.add(model.tau, np.float64(d_tau))
        tape.add(model.bias, np.float64(d_b))

        # h = 1e-5 keeps the quotient out of roundoff for O(100) covers
        numeric = split_like_params(
            numeric_param_grad(scalar_fn, params, h=1e-5), params)
        for p in params:
            err = max_rel_error(tape.get(p), numeric[p.name])
            assert err < 1e-5, f"{variant}/{p.name}: rel err {err:.2e}"

    def test_botania_linear_chain(self):
        self._check_alignment_chain("botania-linear", 70)

    def test_mlp_chain(self):
        self._check_alignment_chain("mlp", 71)

    def test_attention_chain(self):
        self._check_alignment_chain("attention", 72)

    def test_botasp_chain(self):
        rng = Rng(80)
        n, d, s_dim = 3, 5, 4
        model = BotaSPModel(in_dim=d, n_species=s_dim, proj_dim=4, hidden=6,
                            dropout_rate=0.4, gen=rng.substream("init"))
        x = l2_normalize_rows(rng.substream("x").normal(size=(n, d)))
        targets = (rng.substream("t").random((n, s_dim)) < 0.5).astype(float)
        z_orig = l2_normalize_rows(rng.substream("zo").normal(size=(n, 4)))
        lam = 3.0
        params = model.params()

        def scalar_fn():
            logits, z, _ = model.forward(x)
            return botasp_loss(logits, targets, z_orig, z, lam)[0]

        logits, z, _ = model.forward(x)
        _, (dlogits, dz) = botasp_loss(logits, targets, z_orig, z, lam,
                                       grad=True)
        tape = GradientTape()
        model.backward(tape, g_logits=dlogits, g_z=dz)

        numeric = split_like_params(numeric_param_grad(scalar_fn, params),
                                    params)
        for p in params:
            err = max_rel_error(tape.get(p), numeric[p.name])
            assert err < 1e-5, f"botasp/{p.name}: rel err {err:.2e}"


def test_pair_labels_structure():
    lab = pair_labels(4)
    assert np.all(np.diag(lab) == 1.0)
    assert np.sum(lab == 1.0) == 4
    off = lab[~np.eye(4, dtype=bool)]
    assert np.all(off == -1.0)
