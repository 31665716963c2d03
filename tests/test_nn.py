"""MLP engine: gradient correctness against finite differences, contracts."""

import numpy as np
import pytest

from ciforge.core import derive_rng
from ciforge.errors import EmptyData, NonFiniteLoss
from ciforge.nn import Mlp, MlpConfig, _loss_value, mlp_grad_check, mlp_train


def random_model(rng, loss, widths=None):
    d_in = int(rng.integers(1, 4))
    d_out = 1 if loss == "logistic" else int(rng.integers(1, 3))
    widths = widths or tuple(int(w) for w in rng.integers(2, 6, size=rng.integers(1, 3)))
    x = rng.standard_normal((8, d_in))
    t = rng.standard_normal((8, d_out))
    if loss == "logistic":
        t = (t > 0).astype(float)
    model = mlp_train(x, t, MlpConfig(widths=widths, epochs=0), seed=int(rng.integers(1000)), loss=loss)
    return model, x, t


class TestGradCheck:
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_backprop_matches_finite_differences(self, loss):
        rng = derive_rng(0, f"gc-{loss}")
        for _ in range(20):
            model, x, t = random_model(rng, loss)
            assert mlp_grad_check(model, (x[:4], t[:4]), 1e-5) < 1e-4

    def test_zero_model_zero_target_has_zero_gradient(self):
        model = Mlp(
            weights=[np.zeros((2, 3)), np.zeros((3, 1))],
            biases=[np.zeros(3), np.zeros(1)],
            x_mean=np.zeros(2),
            x_std=np.ones(2),
            loss="squared",
        )
        x = np.array([[0.4, -1.2]])
        t = np.array([[0.0]])
        assert mlp_grad_check(model, (x, t), 1e-5) < 1e-10

    def test_eps_validation(self):
        rng = derive_rng(1, "gc-eps")
        model, x, t = random_model(rng, "squared")
        with pytest.raises(ValueError):
            mlp_grad_check(model, (x[:1], t[:1]), 1e-2)


class TestTraining:
    def test_fits_linear_target(self):
        rng = derive_rng(2, "fit")
        x = rng.standard_normal((100, 1))
        y = 2.0 * x[:, 0]
        model = mlp_train(x, y, MlpConfig(widths=(8,), epochs=500, batch=16, lr=0.05), seed=3)
        mse = _loss_value(model.forward(x), y[:, None], "squared")
        assert mse < 1e-2

    def test_zero_epochs_returns_initialized_model(self):
        rng = derive_rng(3, "zero-epochs")
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        cfg = MlpConfig(widths=(4,), epochs=0)
        model = mlp_train(x, y, cfg, seed=7)
        assert len(model.loss_history) == 1
        again = mlp_train(x, y, cfg, seed=7)
        for w1, w2 in zip(model.weights, again.weights):
            assert np.array_equal(w1, w2)

    def test_deterministic_parameters(self):
        rng = derive_rng(4, "det")
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        cfg = MlpConfig(widths=(6, 4), epochs=20, batch=8, lr=0.02)
        a = mlp_train(x, y, cfg, seed=13)
        b = mlp_train(x, y, cfg, seed=13)
        for w1, w2 in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(w1, w2)

    def test_final_loss_never_exceeds_initial(self):
        rng = derive_rng(5, "noinc")
        for seed in range(5):
            x = rng.standard_normal((40, 2))
            y = rng.standard_normal(40)
            model = mlp_train(x, y, MlpConfig(widths=(5,), epochs=15, batch=4, lr=0.3), seed=seed)
            fitted = _loss_value(model.forward(x), y[:, None], "squared")
            assert fitted <= model.loss_history[0] + 1e-12

    def test_full_batch_descent_is_monotone(self):
        """Full-batch GD with a small rate on a realizable quadratic."""
        rng = derive_rng(6, "mono")
        x = rng.standard_normal((60, 2))
        y = 0.5 * x[:, 0] - 0.3 * x[:, 1]
        model = mlp_train(x, y, MlpConfig(widths=(4,), epochs=50, batch=60, lr=0.01), seed=2)
        hist = model.loss_history
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))

    def test_divergence_raises(self):
        rng = derive_rng(7, "diverge")
        x = 100.0 * rng.standard_normal((30, 2))
        y = 100.0 * rng.standard_normal(30)
        with pytest.raises(NonFiniteLoss):
            mlp_train(x, y, MlpConfig(widths=(8,), epochs=200, batch=30, lr=1e4), seed=1)

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyData):
            mlp_train(np.zeros((1, 2)), np.zeros(1), MlpConfig())

    def test_logistic_output_is_probability(self):
        rng = derive_rng(8, "prob")
        x = rng.standard_normal((40, 2))
        y = (x[:, 0] > 0).astype(float)
        model = mlp_train(x, y, MlpConfig(widths=(4,), epochs=30), loss="logistic", seed=0)
        p = model.predict(x)
        assert np.all((p > 0) & (p < 1))
