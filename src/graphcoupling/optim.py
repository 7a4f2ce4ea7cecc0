"""Full-batch gradient descent with momentum and adaptive per-coordinate gains.

The update rule is the classical neighbor-embedding recipe: a momentum
term that switches from a low to a high coefficient partway through,
per-coordinate gain factors driven by sign agreement between the
gradient and the velocity, optional early exaggeration of the input
affinity, and step halving when a step would make the loss infinite.

Any object with an ``evaluate(Z, exaggeration) -> Evaluation`` method can
be minimized.  One call returns the plain loss, the objective at the
exaggeration factor and that objective's gradient; the problem decides
how the factor applies, and rejects factors it has no form for.  Each
optimizer step evaluates its candidate exactly once.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DivergenceError, ParameterError
from .linalg import as_float_matrix


@dataclass(frozen=True)
class OptimizerConfig:
    iterations: int = 1000
    learning_rate: float = 200.0
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    momentum_switch: int = 250
    gain_min: float = 0.01
    gain_increase: float = 0.2
    gain_decay: float = 0.8
    # None lets the caller's policy decide; the optimizer reads it as off.
    early_exaggeration: Optional[bool] = None
    exaggeration_factor: float = 12.0
    exaggeration_iters: int = 250
    grad_tol: float = 1e-7
    max_halvings: int = 30

    def validate(self) -> "OptimizerConfig":
        for name in ("iterations", "momentum_switch", "exaggeration_iters", "max_halvings"):
            value = getattr(self, name)
            if value < 0:
                raise ParameterError(f"{name} must be nonnegative, got {value}")
        for name in ("learning_rate", "exaggeration_factor", "gain_min", "gain_decay"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ParameterError(f"{name} must be positive and finite, got {value}")
        for name in ("gain_increase", "grad_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ParameterError(f"{name} must be nonnegative and finite, got {value}")
        for name in ("momentum_early", "momentum_late"):
            m = getattr(self, name)
            if not (0.0 <= m < 1.0):
                raise ParameterError(f"{name} must lie in [0, 1), got {m}")
        return self


class Evaluation(NamedTuple):
    loss: float                   # plain objective at Z
    objective: float              # objective at the requested exaggeration
    grad: Optional[np.ndarray]    # gradient of ``objective``; None if it is infinite


class MinimizeResult(NamedTuple):
    Z: np.ndarray          # lowest-loss iterate observed, under the plain objective
    history: np.ndarray    # objective per iteration, under the exaggeration active then
    loss: float            # plain loss of Z
    best_iteration: int    # index of Z among the iterates; 0 is Z0


TraceSink = Callable[[int, float, float], None]


def minimize(problem, Z0, config: OptimizerConfig = None,
             trace: Optional[TraceSink] = None) -> MinimizeResult:
    """Minimize a coupling-style problem starting from Z0.

    ``history[t]`` records the objective of the iterate entering
    iteration t under the exaggeration active at that iteration, so
    switching off early exaggeration shows up as a discontinuity.  Each
    candidate step is evaluated once, under the factor of the iteration
    it enters; that evaluation decides whether the step is accepted and
    supplies the next value and gradient.  The returned Z is the best
    iterate measured by the plain loss, which makes it monotone in
    hindsight regardless of transient loss increases; ``best_iteration``
    is its index, iterate t being the one entering iteration t.  A run
    that diverges from its start returns a small index, not an error.

    Raises
    ------
    ParameterError
        If the objective at Z0 is not finite.
    DivergenceError
        If a gradient turns non-finite, or step halving cannot restore a
        finite objective within ``config.max_halvings`` halvings.
    """
    cfg = (config or OptimizerConfig()).validate()
    exaggerate = bool(cfg.early_exaggeration) and cfg.exaggeration_iters > 0

    def factor(t: int) -> float:
        return cfg.exaggeration_factor if exaggerate and t < cfg.exaggeration_iters else 1.0

    # Later iterates are fresh arrays, never modified in place, so the
    # best one is kept without copying.
    Z = as_float_matrix(Z0, "Z0").copy()
    current = problem.evaluate(Z, factor(0))
    if not np.isfinite(current.objective):
        raise ParameterError("initialization has non-finite loss")
    best_Z, best_loss, best_t = Z, current.loss, 0
    velocity = np.zeros_like(Z)
    gains = np.ones_like(Z)
    history = []

    for t in range(cfg.iterations):
        history.append(current.objective)
        g = current.grad
        if not np.isfinite(g).all():
            raise DivergenceError(f"gradient is non-finite at iteration {t}")
        grad_norm = float(np.abs(g).max()) if g.size else 0.0
        if trace is not None:
            trace(t, current.objective, grad_norm)
        if grad_norm < cfg.grad_tol:
            break

        aligned = (g > 0.0) == (velocity > 0.0)
        gains = np.where(aligned, gains * cfg.gain_decay, gains + cfg.gain_increase)
        np.clip(gains, cfg.gain_min, None, out=gains)
        momentum = cfg.momentum_early if t < cfg.momentum_switch else cfg.momentum_late
        velocity = momentum * velocity - cfg.learning_rate * gains * g

        candidate = Z + velocity
        halvings = 0
        while True:
            if np.isfinite(candidate).all():
                current = problem.evaluate(candidate, factor(t + 1))
                if np.isfinite(current.objective):
                    break
            halvings += 1
            if halvings > cfg.max_halvings:
                raise DivergenceError(
                    f"step halving failed to restore a finite loss at iteration {t}")
            velocity = velocity / 2.0
            candidate = Z + velocity
        Z = candidate
        if current.loss < best_loss:
            best_Z, best_loss, best_t = Z, current.loss, t + 1

    return MinimizeResult(best_Z, np.asarray(history, dtype=np.float64), best_loss, best_t)
