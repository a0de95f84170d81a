import numpy as np
import pytest

from haraudit.baseline import (
    TrainConfig,
    extract_feature_matrix,
    loss_and_gradients,
    predict_proba,
    train_baseline,
)
from haraudit.synth import ScenarioSpec, generate
from haraudit.windowing import WindowConfig, slice_corpus


def extract_features(block):
    """Per-channel mean and std of one [size, channels] window, by a loop over
    channels: [mean_0, std_0, mean_1, std_1, ...]."""
    feats = []
    for column in np.asarray(block, dtype=float).T:
        feats += [column.mean(), column.std()]
    return np.array(feats)


class TestFeatures:
    def test_constant_window(self):
        block = np.full((50, 1), 3.0)
        assert extract_feature_matrix(block[None])[0].tolist() == [3.0, 0.0]

    def test_two_point_window(self):
        block = np.array([[1.0], [3.0]])
        assert extract_feature_matrix(block[None])[0].tolist() == [2.0, 1.0]

    def test_two_channels_in_channel_order(self):
        block = np.column_stack([np.full(10, 1.0), np.full(10, 5.0)])
        feats = extract_feature_matrix(block[None])[0]
        assert feats.tolist() == [1.0, 0.0, 5.0, 0.0]

    def test_matrix_form_matches_single_form(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(7, 30, 3))
        mat = extract_feature_matrix(blocks)
        for i in range(7):
            assert np.allclose(mat[i], extract_features(blocks[i]))

    @pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3, 1)], ids=["2-d", "4-d"])
    def test_blocks_must_be_three_dimensional(self, shape):
        with pytest.raises(ValueError, match=r"^blocks must be \[num_windows, size, channels\]$"):
            extract_feature_matrix(np.zeros(shape))


class TestGradients:
    def finite_difference(self, weights, bias, features, labels, h=1e-5):
        grad_w = np.zeros_like(weights)
        grad_b = np.zeros_like(bias)
        for idx in np.ndindex(*weights.shape):
            bump = weights.copy()
            bump[idx] += h
            up, _, _ = loss_and_gradients(bump, bias, features, labels)
            bump[idx] -= 2 * h
            down, _, _ = loss_and_gradients(bump, bias, features, labels)
            grad_w[idx] = (up - down) / (2 * h)
        for j in range(bias.size):
            bump = bias.copy()
            bump[j] += h
            up, _, _ = loss_and_gradients(weights, bump, features, labels)
            bump[j] -= 2 * h
            down, _, _ = loss_and_gradients(weights, bump, features, labels)
            grad_b[j] = (up - down) / (2 * h)
        return grad_w, grad_b

    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            c, f = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            n = int(rng.integers(c, c + 6))
            features = rng.normal(size=(n, f))
            labels = rng.integers(0, c, size=n)
            labels[:c] = np.arange(c)  # ensure all classes appear
            weights = rng.normal(scale=0.5, size=(c, f))
            bias = rng.normal(scale=0.5, size=c)
            _, grad_w, grad_b = loss_and_gradients(weights, bias, features, labels)
            fd_w, fd_b = self.finite_difference(weights, bias, features, labels)
            scale = max(np.abs(fd_w).max(), np.abs(fd_b).max(), 1e-12)
            assert np.abs(grad_w - fd_w).max() / scale < 1e-6
            assert np.abs(grad_b - fd_b).max() / scale < 1e-6


class TestTraining:
    @pytest.mark.parametrize("runs", [0, -2])
    def test_a_config_without_runs_is_refused(self, runs):
        with pytest.raises(ValueError, match=f"runs must be at least 1, got {runs}"):
            TrainConfig(runs=runs)

    def separable_dataset(self):
        spec = ScenarioSpec(
            num_classes=2,
            num_channels=1,
            samples_per_segment=2000,
            num_segments=8,
            class_signatures=[[-1.0], [1.0]],
            noise_std=0.1,
            seed=42,
        )
        rec, _ = generate(spec)
        # stride == segment length divisor so no window spans a class change;
        # the classes are then linearly separable in feature space
        ds = slice_corpus([rec], WindowConfig(200, 200), num_classes=2)
        features = extract_feature_matrix(ds.gather(np.arange(ds.num_windows)))
        labels = ds.windows.label
        return features, labels

    def test_high_accuracy_on_separable_classes(self):
        features, labels = self.separable_dataset()
        train = np.arange(0, features.shape[0], 2)
        held_out = np.arange(1, features.shape[0], 2)
        model = train_baseline(features[train], labels[train], 2)
        preds = predict_proba(model, features[held_out]).argmax(axis=1)
        assert (preds == labels[held_out]).mean() > 0.99

    def test_identical_features_converge_to_priors(self):
        features = np.ones((40, 2))
        labels = np.array([0] * 30 + [1] * 10)
        model = train_baseline(features, labels, 2, TrainConfig(epochs=2000))
        probs = predict_proba(model, features[:1])[0]
        assert abs(probs[0] - 0.75) < 0.01
        assert abs(probs[1] - 0.25) < 0.01

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = train_baseline(rng.normal(size=(20, 3)), rng.integers(0, 3, 20), 3)
        probs = predict_proba(model, rng.normal(size=(50, 3)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_absent_class_rejected(self):
        features = np.zeros((10, 2))
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ValueError, match="absent"):
            train_baseline(features, labels, 3)

    @pytest.mark.parametrize("bad", [5, -1])
    def test_label_outside_the_classes_rejected(self, bad):
        features = np.zeros((4, 2))
        labels = np.array([0, 1, bad, 2])
        with pytest.raises(ValueError, match=f"label {bad} outside 0..2"):
            train_baseline(features, labels, 3)

    @pytest.mark.parametrize("features", [np.zeros(4), np.zeros((3, 2))], ids=["1-d", "3-rows"])
    def test_features_must_align_with_labels(self, features):
        with pytest.raises(ValueError, match=r"^features must be \[n, f\] aligned with labels$"):
            train_baseline(features, np.array([0, 1, 2, 0]), 3)

    def test_training_is_deterministic(self):
        features, labels = self.separable_dataset()
        a = train_baseline(features, labels, 2)
        b = train_baseline(features, labels, 2)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
