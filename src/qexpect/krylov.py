"""Step-wise Krylov propagation with an adaptive residual stopping rule.

Each step projects ``exp(-i*L*dt) rho`` onto a fresh Krylov subspace grown
one Lanczos vector at a time by the same incremental Lanczos loop that
estimates spectral intervals (:mod:`qexpect.spectral`); nothing is reused
between steps (a shared subspace across steps was considered and costs more
iterations overall). The per-growth convergence test is
``dt * beta_{m+1} * |[exp(-i*dt*T_m)]_{m,1}| <= eps``, evaluated from the
same small tridiagonal eigendecomposition that produces the step result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import SparseMatrix
from .spectral import _lanczos_steps, tridiag_expv
from .trace import DEFAULT_EPS, ExpectationTrace, RunRecord, normalize_observables, record_steps

__all__ = ["KrylovStepResult", "krylov_step", "krylov_propagate"]

DEFAULT_M_MAX = 128

# Testing the stopping rule costs a small eigensolve; beyond this subspace
# size it is only re-run every _TEST_STRIDE growths to amortise the cost.
_TEST_EVERY_UP_TO = 30
_TEST_STRIDE = 5


@dataclass
class KrylovStepResult:
    state: np.ndarray
    m_used: int
    converged: bool


def krylov_step(
    l_op: SparseMatrix,
    rho: np.ndarray,
    dt: float,
    eps: float = DEFAULT_EPS,
    m_max: int = DEFAULT_M_MAX,
) -> KrylovStepResult:
    """One adaptive subspace application of ``exp(-i*L*dt)``.

    Returns ``||rho|| * V_m exp(-i*T_m*dt) e_1`` once the residual test
    passes, at breakdown (invariant subspace found, the result is then
    exact), or at ``m_max`` with ``converged=False``.

    The subspace is grown once more past the first size passing the test (a
    safety vector). The residual estimate tracks the local error only to
    within a small factor, and local truncation errors add up nearly
    coherently over long unitary trajectories; the extra vector buys back
    more than an order of magnitude of global accuracy for one matvec.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if dt <= 0:
        raise ValueError("dt must be positive")
    m_cap = min(m_max, rho.shape[0])
    passed = False
    for fac in _lanczos_steps(l_op, rho, m_cap):
        m = fac.m
        if not (passed or fac.breakdown or m == m_cap or m <= _TEST_EVERY_UP_TO
                or m % _TEST_STRIDE == 0):
            continue
        col = tridiag_expv(fac.alpha, fac.beta[:-1], dt)
        # the vector after the first passing test (the safety vector) ends the step
        done = passed or fac.breakdown
        passed = dt * fac.beta[-1] * abs(col[-1]) <= eps
        if done or (passed and m == m_cap):
            return KrylovStepResult(state=fac.basis @ (fac.norm0 * col), m_used=m,
                                    converged=True)
    return KrylovStepResult(state=fac.basis @ (fac.norm0 * col), m_used=m_cap, converged=False)


@dataclass
class KrylovWalk:
    """Consecutive Krylov steps from one state.

    ``values[:, k]`` is ``W @ rho`` after ``k`` steps (t = 0 included),
    ``m_used`` and ``converged`` hold each step's :class:`KrylovStepResult`
    fields, and ``state`` is the state after the last step.
    """

    values: np.ndarray
    m_used: list
    converged: list
    state: np.ndarray


def krylov_walk(l_op: SparseMatrix, rho0: np.ndarray, dt: float, steps: int, w_rows: np.ndarray,
                eps=DEFAULT_EPS, m_max=DEFAULT_M_MAX, observe=lambda rho: None) -> KrylovWalk:
    """``steps`` sequential Krylov steps from ``rho0``, sampled by the rows of ``w_rows``.

    ``observe(rho)`` sees each new state.
    """
    walk = KrylovWalk(None, [], [], np.asarray(rho0, dtype=np.complex128))

    def step(rho):
        result = krylov_step(l_op, rho, dt, eps=eps, m_max=m_max)
        walk.m_used.append(result.m_used)
        walk.converged.append(result.converged)
        walk.state = result.state
        observe(walk.state)
        return walk.state

    walk.values = record_steps(step, walk.state, w_rows, steps)
    return walk


def krylov_close(run: RunRecord, dt: float, steps: int, labels, walk: KrylovWalk, eps: float,
                 m_max: int) -> ExpectationTrace:
    """Close ``run`` over the first ``steps`` steps of ``walk``.

    The trace gets their grid, values and subspace sizes, and ``run`` a
    warning if any of them hit ``m_max``.
    """
    m_used, unconverged = walk.m_used[:steps], walk.converged[:steps].count(False)
    if unconverged:
        run.warnings.append(
            f"{unconverged} of {steps} steps hit m_max={m_max} before the "
            f"residual test passed; accuracy may be below eps={eps}"
        )
    return run.close(dt * np.arange(steps + 1), labels, walk.values[:, :steps + 1],
                     m_used_max=max(m_used, default=0),
                     m_used_mean=float(np.mean(m_used)) if m_used else 0.0)


def krylov_propagate(
    l_op: SparseMatrix,
    rho0: np.ndarray,
    dt: float,
    steps: int,
    observables,
    eps: float = DEFAULT_EPS,
    m_max: int = DEFAULT_M_MAX,
) -> ExpectationTrace:
    """N sequential Krylov steps, recording expectations at every grid point."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    labels, w_rows = normalize_observables(observables, l_op.nrows)
    run = RunRecord("krylov", eps=eps)
    walk = krylov_walk(l_op, rho0, dt, steps, w_rows, eps=eps, m_max=m_max)
    return krylov_close(run, dt, steps, labels, walk, eps, m_max)
