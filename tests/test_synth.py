import numpy as np

from botaclip.forest import ForestConfig, Job, fit, predict
from botaclip.metrics import classification_metrics, confusion_counts
from botaclip.numerics import Rng
from botaclip.spatial import FoldAssignment, buffered_split
from botaclip.synth import generate_synthetic, view_ids


def _small(**kw):
    defaults = dict(pairs=40, latent_dim=4, img_dim=16, n_species=12,
                    views_per_pair=2, noise=0.5, seed=3, cell_size=5000.0,
                    n_classes=8, n_eval_species=10)
    defaults.update(kw)
    return generate_synthetic(**defaults)


class TestGenerator:
    def test_shapes(self):
        data = _small()
        ds = data.dataset
        assert ds.images.shape == (80, 16)
        assert ds.covers.shape == (40, 12)
        assert ds.locations.shape == (40, 2)
        assert data.latents.shape == (40, 4)
        assert data.eval_presence.shape == (40, 10)

    def test_zero_noise_views_identical(self):
        data = _small(noise=0.0)
        ds = data.dataset
        v0 = ds.images[ds.view_index == 0]
        v1 = ds.images[ds.view_index == 1]
        np.testing.assert_array_equal(v0, v1)

    def test_cover_range_and_sparsity(self):
        data = _small()
        covers = data.dataset.covers
        assert covers.min() >= 0.0 and covers.max() <= 100.0
        zero_frac = np.mean(covers == 0.0, axis=1)
        assert np.all(zero_frac >= 0.7)

    def test_images_unit_norm_and_frozen(self):
        data = _small()
        norms = np.linalg.norm(data.dataset.images, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert not data.dataset.images.flags.writeable

    def test_same_seed_identical(self):
        a = _small()
        b = _small()
        np.testing.assert_array_equal(a.dataset.images, b.dataset.images)
        np.testing.assert_array_equal(a.dataset.covers, b.dataset.covers)
        np.testing.assert_array_equal(a.eval_presence, b.eval_presence)

    def test_seed_changes_data(self):
        a = _small(seed=1)
        b = _small(seed=2)
        assert not np.array_equal(a.dataset.images, b.dataset.images)

    def test_spatial_autocorrelation(self):
        # pairs sharing a cell share the base latent, so their latent
        # distance is smaller than across cells
        data = _small(pairs=200, noise=0.0)
        ds = data.dataset
        cells = np.floor(ds.locations / 5000.0).astype(int)
        keys = [tuple(c) for c in cells]
        same, diff = [], []
        for i in range(0, 200, 5):
            for j in range(i + 1, 200, 7):
                d = np.linalg.norm(data.latents[i] - data.latents[j])
                (same if keys[i] == keys[j] else diff).append(d)
        assert np.mean(same) < np.mean(diff)

    def test_view_ids_format(self):
        data = _small()
        ids = view_ids(data)
        assert len(ids) == 80
        assert ids[0] == "p00000#0"
        assert len(set(ids)) == 80

    def test_class_labels_in_range(self):
        data = _small(n_classes=5)
        assert data.class_labels.min() >= 0
        assert data.class_labels.max() < 5


def _mean_tss(X, presence, tr, va, seed):
    out = []
    for s in range(presence.shape[1]):
        y = presence[:, s]
        if min(y[tr].sum(), len(tr) - y[tr].sum(),
               y[va].sum(), len(va) - y[va].sum()) < 5:
            continue
        forest = fit(X, [Job(tr, y, ForestConfig(n_trees=15,
                                                 seed=seed * 31 + s))])[0]
        pred = (predict(forest, X[va]) >= 0.5).astype(int)
        out.append(classification_metrics(confusion_counts(y[va], pred))["tss"])
    return float(np.mean(out))


def test_random_split_overestimates_vs_buffered():
    """Cell-shared latents make a naive random split leak: validation scores
    come out visibly higher than under the buffered spatial split."""
    inflation = []
    for seed in range(3):
        data = generate_synthetic(pairs=300, latent_dim=6, img_dim=24,
                                  n_species=32, views_per_pair=1, noise=1.0,
                                  seed=seed, cell_size=5000.0, n_classes=8,
                                  n_eval_species=10)
        ds = data.dataset
        fa = FoldAssignment.build(ds.locations, 5,
                                  Rng(seed).substream("f"), 5000.0)
        tr_b, va_b = buffered_split(fa, 1)
        perm = Rng(seed).substream("rand").permutation(300)
        va_r = perm[:len(va_b)]
        tr_r = perm[len(va_b):len(va_b) + len(tr_b)]
        inflation.append(
            _mean_tss(ds.images, data.eval_presence, tr_r, va_r, seed)
            - _mean_tss(ds.images, data.eval_presence, tr_b, va_b, seed))
    assert np.mean(inflation) > 0.05
