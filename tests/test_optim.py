import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling.coupling import METHOD_KINDS, TSNE, CouplingProblem
from graphcoupling.errors import DivergenceError, ParameterError
from graphcoupling.optim import Evaluation, MinimizeResult, OptimizerConfig, minimize
from graphcoupling.pipeline import prepare_input


class Quadratic:
    """Separable strongly convex test problem ||Z - A||^2.

    Exaggeration multiplies the whole objective.
    """

    def __init__(self, A):
        self.A = np.asarray(A, dtype=np.float64)

    def loss(self, Z):
        return float(((np.asarray(Z) - self.A) ** 2).sum())

    def evaluate(self, Z, exaggeration=1.0):
        loss = self.loss(Z)
        if not np.isfinite(loss):
            return Evaluation(loss, loss, None)
        return Evaluation(loss, exaggeration * loss,
                          exaggeration * 2.0 * (np.asarray(Z) - self.A))


class Walled(Quadratic):
    """Quadratic bowl surrounded by an infinite-loss wall."""

    def __init__(self, A, radius):
        super().__init__(A)
        self.radius = radius

    def loss(self, Z):
        if np.abs(np.asarray(Z)).max() > self.radius:
            return np.inf
        return super().loss(Z)


class Counting(Walled):
    """Walled bowl recording (factor, objective finite) for every evaluation."""

    def __init__(self, A, radius):
        super().__init__(A, radius)
        self.calls = []

    def evaluate(self, Z, exaggeration=1.0):
        result = super().evaluate(Z, exaggeration)
        self.calls.append((exaggeration, bool(np.isfinite(result.objective))))
        return result


def coupling_problem(method=TSNE, seed=2, n=30):
    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.normal(size=(n // 2, 3)),
                        rng.normal(size=(n - n // 2, 3)) + 6.0])
    P, _ = prepare_input(X, method, 10.0)
    return CouplingProblem(method, P)


class TestConfig:
    def test_defaults_validate(self):
        cfg = OptimizerConfig().validate()
        assert cfg.iterations == 1000
        assert cfg.learning_rate == 200.0
        assert cfg.momentum_switch == 250

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            OptimizerConfig(iterations=-1).validate()
        with pytest.raises(ParameterError):
            OptimizerConfig(learning_rate=0.0).validate()
        with pytest.raises(ParameterError):
            OptimizerConfig(momentum_early=1.0).validate()
        with pytest.raises(ParameterError):
            OptimizerConfig(momentum_late=-0.1).validate()
        with pytest.raises(ParameterError):
            OptimizerConfig(exaggeration_factor=0.0).validate()


class TestQuadratic:
    def test_converges(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 2))
        prob = Quadratic(A)
        cfg = OptimizerConfig(iterations=500, learning_rate=0.1,
                              momentum_switch=100, grad_tol=0.0)
        result = minimize(prob, np.zeros((5, 2)), cfg)
        assert prob.loss(result.Z) <= 1e-6
        npt.assert_allclose(result.Z, A, atol=1e-3)

    def test_history_matches_losses(self):
        prob = Quadratic(np.ones((3, 2)))
        cfg = OptimizerConfig(iterations=40, learning_rate=0.05, grad_tol=0.0)
        result = minimize(prob, np.zeros((3, 2)), cfg)
        assert isinstance(result, MinimizeResult)
        assert result.history.shape == (40,)
        assert result.history[0] == prob.loss(np.zeros((3, 2)))
        # momentum may overshoot near the optimum, but the run makes progress
        # and the returned iterate beats everything recorded
        assert result.history[-1] < result.history[0] / 100.0
        assert prob.loss(result.Z) <= result.history.min()

    def test_starts_at_optimum_stops_immediately(self):
        A = np.arange(6.0).reshape(3, 2)
        result = minimize(Quadratic(A), A.copy(),
                          OptimizerConfig(iterations=100, learning_rate=0.1))
        assert result.history.shape == (1,)
        npt.assert_array_equal(result.Z, A)

    def test_grad_tol_early_stop(self):
        prob = Quadratic(np.ones((4, 2)))
        cfg = OptimizerConfig(iterations=10_000, learning_rate=0.1,
                              momentum_switch=100, grad_tol=1e-6)
        result = minimize(prob, np.zeros((4, 2)), cfg)
        assert result.history.shape[0] < 10_000
        assert np.abs(prob.evaluate(result.Z).grad).max() <= 1e-4

    def test_zero_iterations_returns_init(self):
        A = np.ones((2, 2))
        result = minimize(Quadratic(A), np.zeros((2, 2)),
                          OptimizerConfig(iterations=0))
        assert result.history.shape == (0,)
        npt.assert_array_equal(result.Z, np.zeros((2, 2)))

    def test_deterministic(self):
        prob = Quadratic(np.ones((4, 3)))
        cfg = OptimizerConfig(iterations=200, learning_rate=0.07)
        Z0 = np.full((4, 3), 0.25)
        r1 = minimize(prob, Z0, cfg)
        r2 = minimize(prob, Z0, cfg)
        assert r1.Z.tobytes() == r2.Z.tobytes()
        assert r1.history.tobytes() == r2.history.tobytes()


class TestTrace:
    def test_sink_sees_every_iteration(self):
        rows = []
        prob = Quadratic(np.ones((3, 2)))
        cfg = OptimizerConfig(iterations=25, learning_rate=0.05, grad_tol=0.0)
        result = minimize(prob, np.zeros((3, 2)), cfg,
                          trace=lambda t, l, g: rows.append((t, l, g)))
        assert [r[0] for r in rows] == list(range(25))
        npt.assert_array_equal([r[1] for r in rows], result.history)
        assert all(r[2] >= 0.0 for r in rows)


class TestFailureModes:
    def test_infinite_initial_loss(self):
        prob = Walled(np.zeros((2, 2)), radius=0.5)
        with pytest.raises(ParameterError):
            minimize(prob, np.ones((2, 2)), OptimizerConfig(iterations=5))

    def test_unrecoverable_step_raises_divergence(self):
        class Trap(Quadratic):
            def __init__(self, Z0):
                super().__init__(np.asarray(Z0) + 1.0)
                self.Z0 = np.asarray(Z0)

            def loss(self, Z):
                # finite only exactly at the start: no halved step can land
                if np.array_equal(np.asarray(Z), self.Z0):
                    return 0.0
                return np.inf

        Z0 = np.zeros((2, 2))
        with pytest.raises(DivergenceError, match="iteration 0"):
            minimize(Trap(Z0), Z0,
                     OptimizerConfig(iterations=5, learning_rate=1.0,
                                     max_halvings=8))

    def test_halving_recovers_from_wall(self):
        # Large learning rate keeps proposing steps beyond the wall; the
        # halving loop shrinks them and optimization still converges.
        A = np.zeros((3, 2))
        prob = Walled(A, radius=1.0)
        Z0 = np.full((3, 2), 0.9)
        cfg = OptimizerConfig(iterations=300, learning_rate=5.0,
                              momentum_switch=50, grad_tol=0.0)
        result = minimize(prob, Z0, cfg)
        assert np.isfinite(result.history).all()
        assert prob.loss(result.Z) < prob.loss(Z0) / 100.0


class TestOnePass:
    @pytest.mark.parametrize("exaggerate", [False, True])
    def test_one_evaluation_per_step(self, exaggerate):
        # Every evaluation is either an accepted iterate (the start plus one
        # per iteration) or a candidate rejected by a halving; accepted
        # candidates are scored under the factor of the iteration they enter.
        prob = Counting(np.zeros((3, 2)), radius=1.0)
        cfg = OptimizerConfig(iterations=60, learning_rate=5.0, momentum_switch=20,
                              grad_tol=0.0, early_exaggeration=exaggerate,
                              exaggeration_factor=4.0, exaggeration_iters=10)
        result = minimize(prob, np.full((3, 2), 0.9), cfg)
        halvings = sum(1 for _, finite in prob.calls if not finite)
        assert halvings > 0
        assert len(prob.calls) == cfg.iterations + 1 + halvings
        accepted = [factor for factor, finite in prob.calls if finite]
        boosted = 10 if exaggerate else 0
        assert accepted == [4.0] * boosted + [1.0] * (cfg.iterations + 1 - boosted)
        assert result.loss == prob.loss(result.Z)

    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_result_loss_is_plain_loss_bit_for_bit(self, method):
        prob = coupling_problem(method)
        cfg = OptimizerConfig(iterations=30, early_exaggeration=True,
                              exaggeration_iters=15, grad_tol=0.0)
        Z0 = np.random.default_rng(11).normal(size=(30, 2)) * 1e-4
        result = minimize(prob, Z0, cfg)
        assert result.loss == prob.loss(result.Z)


class TestExaggeration:
    def test_history_shows_switch_discontinuity(self):
        prob = coupling_problem()
        cfg = OptimizerConfig(iterations=80, early_exaggeration=True,
                              exaggeration_factor=12.0, exaggeration_iters=40,
                              momentum_switch=40, grad_tol=0.0)
        rng = np.random.default_rng(7)
        result = minimize(prob, rng.normal(size=(30, 2)) * 1e-4, cfg)
        # losses before the switch are scored under the boosted attraction,
        # so turning exaggeration off shows up as a drop
        assert result.history[40] < result.history[39]

    def test_best_iterate_measured_without_exaggeration(self):
        prob = coupling_problem()
        cfg = OptimizerConfig(iterations=80, early_exaggeration=True,
                              exaggeration_iters=40, momentum_switch=40,
                              grad_tol=0.0)
        rng = np.random.default_rng(8)
        result = minimize(prob, rng.normal(size=(30, 2)) * 1e-4, cfg)
        # post-switch history records the plain objective; the returned Z is
        # at least as good as every iterate scored there
        assert prob.loss(result.Z) <= result.history[40:].min() + 1e-12
        assert result.loss == prob.loss(result.Z)

    def test_disabled_by_default(self):
        prob = coupling_problem()
        cfg = OptimizerConfig(iterations=30, grad_tol=0.0, learning_rate=100.0)
        rng = np.random.default_rng(9)
        Z0 = rng.normal(size=(30, 2)) * 1e-4
        plain = minimize(prob, Z0, cfg)
        explicit = minimize(prob, Z0,
                            OptimizerConfig(iterations=30, grad_tol=0.0,
                                            learning_rate=100.0,
                                            early_exaggeration=False))
        assert plain.history.tobytes() == explicit.history.tobytes()

    def test_exaggerated_history_scales_attraction(self):
        # for t-SNE the factor scales attraction and the normalizer weight,
        # so the exaggerated objective is the plain loss times the factor
        prob = coupling_problem()
        rng = np.random.default_rng(10)
        Z0 = rng.normal(size=(30, 2)) * 1e-4
        cfg = OptimizerConfig(iterations=1, early_exaggeration=True,
                              exaggeration_factor=12.0, exaggeration_iters=5,
                              grad_tol=0.0)
        result = minimize(prob, Z0, cfg)
        npt.assert_allclose(result.history[0], 12.0 * prob.loss(Z0), rtol=1e-12)
