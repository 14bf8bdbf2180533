"""Pure pure-state dynamics (PPSD) analysis.

"Pure pure-state dynamics" means evolution under a Markovian master equation
that keeps an initially pure state exactly pure at every instant.  A pure
state can stay pure only while

    R(psi) = sum_i gamma_i ( <L_i^dag L_i> - <L_i><L_i^dag> ) = 0,

since the purity of |psi><psi| obeys d tr(rho^2)/dt = -2 R(psi).  Each term
of R is non-negative by Cauchy-Schwarz, so R >= 0, vanishing only when psi is
a simultaneous eigenvector of every jump operator with nonzero rate.

This module evaluates the residual R, builds the state-dependent effective
(non-Hermitian) generator of the purity-preserving flow, integrates that flow,
checks candidate pure trajectories against the full master equation, finds
the zero-residual states (exactly on diagonal models, by a sphere search on
the others), verifies pure-state unravelings of density-matrix trajectories,
and evaluates projector history chains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NormBlowUp,
)
from .hilbert import (
    DensityMatrix,
    Operator,
    StateVector,
    _hermitian_eigvalsh,
    _state_array,
)
from .lindblad import (
    _RK_OPTIONS,
    LindbladModel,
    liouvillian_action,
    liouvillian_adjoint_action,
    liouvillian_norm,
    propagate,
    stationarity_defect,
)

#: Relative residual threshold declaring a state "zero residual": a state
#: qualifies when R(psi) < PPSD_RESIDUAL_RTOL * residual_scale(model).
PPSD_RESIDUAL_RTOL = 1e-9

#: Allowed norm drift of the nonlinear integrator between two output
#: points, in total and per unit time.  The integrated flow is norm-preserving by
#: construction, so these only trip on an integrator breakdown.
NORM_DRIFT_PER_TIME = 1e-6
NORM_DRIFT_PER_STEP = 1e-3

#: Largest trace distance between the pure flow and the master equation
#: that still counts as one trajectory.
CONSISTENCY_GAP_TOL = 1e-6

VERDICT_PPSD = "ppsd_trajectory"
VERDICT_STATIONARY = "stationary_only"
VERDICT_NO_PPSD = "no_ppsd"

#: L-BFGS-B iteration cap of each search restart.
SEARCH_MAX_ITERATIONS = 400

#: Two search hits are one state when their fidelity reaches this value.
SEARCH_DEDUPE_FIDELITY = 0.999


@dataclass(frozen=True)
class PpsdReport:
    """Outcome of examining one candidate pure state.

    ``residual`` is the largest purity-loss rate R seen along the candidate's
    pure path (just R(psi) when no path was integrated), ``consistency_gap``
    the largest trace distance between the nonlinear pure evolution and the
    master-equation evolution of the same initial projector, and
    ``max_impurity`` the largest 1 - tr(rho^2) of the master-equation path.
    """

    residual: float
    state: StateVector
    consistency_gap: float
    verdict: str
    max_impurity: float = 0.0

    def __post_init__(self):
        if self.residual < -1e-12:
            raise InvariantViolation(f"residual {self.residual} below -1e-12")
        if self.verdict not in (VERDICT_PPSD, VERDICT_STATIONARY, VERDICT_NO_PPSD):
            raise InvariantViolation(f"unknown verdict {self.verdict!r}")

    @property
    def is_stationary(self) -> bool:
        """Whether the verdict is stationary_only."""
        return self.verdict == VERDICT_STATIONARY


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the sphere search (all deterministic given ``seed``)."""

    n_restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_restarts < 1:
            raise InvariantViolation("n_restarts must be positive")


@dataclass(frozen=True)
class HistoryChain:
    """A projector chain applied along a time grid.

    ``chain_states`` holds the normalized post-projection states; the chain
    is truncated at the first projection that annihilates the state, in
    which case ``chain_weight`` is 0.
    """

    times: tuple[float, ...]
    projectors: tuple[Operator, ...]
    chain_states: tuple[StateVector, ...]
    chain_weight: float

    def __post_init__(self):
        if self.chain_weight < 0:
            raise InvariantViolation("chain_weight must be >= 0")


# ---------------------------------------------------------------------------
# residual and effective generator
# ---------------------------------------------------------------------------


def residual_scale(model: LindbladModel) -> float:
    """sum_i gamma_i ||L_i||_2^2, the natural rate scale of the residual.

    On a diagonal model ||L_k||_2 = max_i |ell_ki|, read from the stacked
    diagonals; other models take one 2-norm SVD per term.
    """
    jumps = model._diagonal_jumps
    if jumps is not None:
        rates, ell = jumps
        return float(rates @ (np.abs(ell) ** 2).max(axis=1))
    total = 0.0
    for rate, L, _, _ in model._dissipators:
        total += rate * float(np.linalg.norm(L, 2)) ** 2
    return total


def _model_state(model: LindbladModel, psi) -> np.ndarray:
    """Amplitudes of a StateVector or raw unit vector of the model's dimension."""
    v = _state_array(psi)
    if v.shape[0] != model.dim:
        raise DimensionMismatch(
            f"state dim {v.shape[0]} does not match model dim {model.dim}"
        )
    return v


def ppsd_residual_terms(model: LindbladModel, psi) -> np.ndarray:
    """Per-term contributions gamma_i (<L_i^dag L_i> - |<L_i>|^2).

    Each entry is non-negative up to roundoff (Cauchy-Schwarz with
    gamma_i >= 0); the residual is their sum.
    """
    v = _model_state(model, psi)
    return np.asarray(
        [_term_residual(rate, L, v) for rate, L, _, _ in model._dissipators],
        dtype=float,
    )


def _term_residual(rate, L, v: np.ndarray):
    """gamma (<L^dag L> - |<L>|^2) at unit v, with <L^dag L> taken as ||L v||^2."""
    Lv = L @ v
    mean = np.vdot(v, Lv)
    return rate * (np.vdot(Lv, Lv).real - abs(mean) ** 2)


def ppsd_residual(model: LindbladModel, psi) -> float:
    """Purity-loss rate R(psi) = sum_i gamma_i (<L_i^dag L_i> - <L_i><L_i^dag>).

    Equals sum_i gamma_i Var(L_i, psi) when every jump operator is Hermitian.
    It is real by construction.  A diagonal model evaluates it in O(kd) on
    p = |psi|^2 and its stacked diagonals,

        R = gamma . (|ell|^2 p - |ell p|^2);

    any other model takes the sphere search's value: term by term in model
    order, with <L^dag L> taken as ||L psi||^2.
    """
    return float(_model_residual(model, _model_state(model, psi)))


def _model_residual(model: LindbladModel, v: np.ndarray):
    """R at unit v, on the diagonal form when the model has one."""
    jumps = model._diagonal_jumps
    if jumps is None:
        return _residual_value(model._dissipators, v)
    rates, ell = jumps
    p = np.abs(v) ** 2
    return rates @ (np.abs(ell) ** 2 @ p - np.abs(ell @ p) ** 2)


def effective_hamiltonian(model: LindbladModel, psi) -> Operator:
    """State-dependent generator of the purity-preserving flow.

    H_eff = H + i sum_i gamma_i ( <L_i^dag> L_i - 1/2 <L_i^dag L_i> I
                                  - 1/2 L_i^dag L_i ),
    non-Hermitian in general.
    """
    v = _model_state(model, psi)
    d = model.dim
    eye = np.eye(d, dtype=complex)
    h_eff = model.hamiltonian.matrix.astype(complex).copy()
    for rate, L, Ld, LdL in model._dissipators:
        mean_dag = np.vdot(v, Ld @ v)
        mean_LdL = np.vdot(v, LdL @ v)
        h_eff += 1j * rate * (mean_dag * L - 0.5 * mean_LdL * eye - 0.5 * LdL)
    return Operator(h_eff)


# ---------------------------------------------------------------------------
# nonlinear pure-state flow
# ---------------------------------------------------------------------------


def _pure_flow_rhs(model: LindbladModel):
    if model._diagonal_jumps is not None:
        return _diagonal_pure_flow_rhs(model)
    terms = model._dissipators
    h = model.hamiltonian.matrix

    def rhs(_t, y):
        nrm = np.linalg.norm(y)
        u = y / nrm
        drift = -1j * (h @ u)
        r_val = 0.0
        for rate, L, _, LdL in terms:
            Lu = L @ u
            mean = np.vdot(u, Lu)
            mean_LdL = np.vdot(u, LdL @ u).real
            drift += rate * (np.conj(mean) * Lu - 0.5 * mean_LdL * u - 0.5 * (LdL @ u))
            r_val += rate * (mean_LdL - abs(mean) ** 2)
        # Scalar counterterm: removes the norm decay -2 R |psi|^2 of the raw
        # Schroedinger-like flow.  It is a multiple of u, so the ray
        # trajectory is untouched; only the bookkeeping norm changes.
        drift += r_val * u
        return drift * nrm

    return rhs


def _diagonal_pure_flow_rhs(model: LindbladModel):
    """The same flow for a diagonal model, in O(kd) per call.

    With p = |u|^2, <L_k> = ell_k . p and <L_k^dag L_k> = |ell_k|^2 . p, so
    the drift is u times the entrywise factor

        -i h - b/2 + (gamma conj(<L>)) ell + (b . p)/2 - gamma . |<L>|^2,

    b = gamma . |ell|^2; the last two terms are the -1/2 <L^dag L> part of
    the drift plus the norm counterterm R.
    """
    rates, ell = model._diagonal_jumps
    b = rates @ (np.abs(ell) ** 2)
    static = -1j * model.hamiltonian.diagonal - 0.5 * b

    def rhs(_t, y):
        p = np.abs(y) ** 2
        p /= p.sum()
        means = ell @ p
        factor = static + (rates * means.conj()) @ ell
        factor += 0.5 * (b @ p) - rates @ (np.abs(means) ** 2)
        return factor * y

    return rhs


def evolve_pure_nonlinear(
    model: LindbladModel, psi0, times, return_drift: bool = False
):
    """Integrate the nonlinear purity-preserving flow d psi/dt = -i H_eff psi.

    The flow is integrated in its norm-preserving gauge (a scalar counterterm
    cancels the analytic norm decay without altering the ray) by one DOP853
    solve at rtol 1e-10, its step capped at times[-1] / 10, whose dense
    output gives every time point, normalised as it is stored.  The norm
    drift between output points, |norm(y_k) / norm(y_k-1) - 1|, is recorded;
    above 1e-3, or 1e-6 per unit time, it raises NormBlowUp.
    """
    v = _model_state(model, psi0)
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) < 0):
        raise InvariantViolation("times must ascend from 0")
    t_eval, where = np.unique(times, return_inverse=True)
    ys = v.astype(complex)[:, None]
    if t_eval[-1] > 0:
        sol = solve_ivp(
            _pure_flow_rhs(model), (0.0, t_eval[-1]), ys[:, 0], t_eval=t_eval,
            max_step=t_eval[-1] / 10, **_RK_OPTIONS,
        )
        if not sol.success:
            raise NormBlowUp(f"pure-state integration failed: {sol.message}")
        ys = sol.y
    ys = ys[:, where]
    norms = np.linalg.norm(ys, axis=0)
    drifts = np.abs(norms / np.concatenate((norms[:1], norms[:-1])) - 1.0)
    for t, dt, drift in zip(times, np.diff(times, prepend=0.0), drifts):
        if drift > min(NORM_DRIFT_PER_STEP, NORM_DRIFT_PER_TIME * max(dt, 1e-12)):
            raise NormBlowUp(f"norm drift {drift:.3e} over dt={dt:.3e} up to t={t}")
    states = [StateVector(y / n) for y, n in zip(ys.T, norms)]
    if return_drift:
        return states, drifts
    return states


# ---------------------------------------------------------------------------
# consistency between pure flow and master equation
# ---------------------------------------------------------------------------


def trace_distance(rho, sigma) -> float:
    """(1/2) || rho - sigma ||_1 between two density matrices."""
    a = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    b = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma, dtype=complex)
    diff = (a - b + (a - b).conj().T) / 2
    return float(0.5 * np.abs(_hermitian_eigvalsh(diff)).sum())


def is_stationary_state(model: LindbladModel, psi) -> bool:
    """Whether |psi><psi| is annihilated by the generator: its defect
    ||L[|psi><psi|]||_F is below PPSD_RESIDUAL_RTOL * ||L||_F."""
    v = _model_state(model, psi)
    norm = liouvillian_norm(model)
    if norm == 0.0:
        return True
    defect = stationarity_defect(model, np.outer(v, v.conj()))
    return bool(defect < PPSD_RESIDUAL_RTOL * norm)


def consistency_check(
    model: LindbladModel, psi0, t_max: float, n_steps: int = 50
) -> PpsdReport:
    """Give the pure state psi0 its verdict; the one routine that does.

    Stationarity is decided first (``is_stationary_state``): a fixed point
    of the generator is reported as stationary_only with residual R(psi0)
    and gap 0, and nothing is integrated.  Any other state runs
    evolve_pure_nonlinear and the exact master-equation propagation of
    |psi0><psi0| on a common grid of ``n_steps`` steps up to ``t_max``.
    The report then carries the largest trace distance between the two
    paths (consistency_gap), the largest purity-loss rate R along the pure
    path (residual) and the largest 1 - tr(rho^2) of the mixed path
    (max_impurity), and the verdict is
      * ppsd_trajectory -- residual below the fixed gate
        PPSD_RESIDUAL_RTOL * residual_scale(model) and consistency_gap
        below CONSISTENCY_GAP_TOL;
      * no_ppsd        -- otherwise.
    """
    if t_max <= 0 or n_steps < 1:
        raise InvariantViolation("t_max must be > 0 and n_steps >= 1")
    psi0 = psi0 if isinstance(psi0, StateVector) else StateVector(psi0)
    if is_stationary_state(model, psi0):
        return PpsdReport(
            residual=max(ppsd_residual(model, psi0), 0.0),
            state=psi0,
            consistency_gap=0.0,
            verdict=VERDICT_STATIONARY,
        )
    times = np.linspace(0.0, float(t_max), int(n_steps) + 1)
    pure_path = evolve_pure_nonlinear(model, psi0, times)
    traj = propagate(model, DensityMatrix.from_state(psi0), times)
    gap = max(
        trace_distance(np.outer(p.amplitudes, p.amplitudes.conj()), s.matrix)
        for p, s in zip(pure_path, traj.states)
    )
    max_resid = max(float(_model_residual(model, p.amplitudes)) for p in pure_path)
    max_impurity = float(np.max(1.0 - traj.purities))
    gate = PPSD_RESIDUAL_RTOL * max(residual_scale(model), 1e-300)
    if max_resid < gate and gap < CONSISTENCY_GAP_TOL:
        verdict = VERDICT_PPSD
    else:
        verdict = VERDICT_NO_PPSD
    return PpsdReport(
        residual=max(max_resid, 0.0),
        state=psi0,
        consistency_gap=gap,
        verdict=verdict,
        max_impurity=max_impurity,
    )


# ---------------------------------------------------------------------------
# sphere search
# ---------------------------------------------------------------------------


def _residual_value(terms, v):
    """Residual at unit psi, summed term by term in order (no gradient)."""
    val = 0.0
    for rate, L, _, _ in terms:
        val += _term_residual(rate, L, v)
    return val


def _residual_grad(terms, v):
    """Wirtinger gradient d R / d conj(psi) of the residual at unit psi."""
    grad = np.zeros_like(v)
    for rate, L, Ld, LdL in terms:
        Lv = L @ v
        Ldv = Ld @ v
        mean = np.vdot(v, Lv)
        second = np.vdot(Lv, Lv).real
        grad += rate * (
            LdL @ v
            - np.conj(mean) * Lv
            - mean * Ldv
            + (2 * abs(mean) ** 2 - second) * v
        )
    return grad


def _descend_on_sphere(value, grad, v, step, max_step, min_step, gn2_floor, max_iter):
    """Projected-gradient descent with Armijo backtracking on the unit sphere.

    The Riemannian descent of Absil, Mahony & Sepulchre, *Optimization
    Algorithms on Matrix Manifolds* (2008), for an objective ``value(u)``
    with Wirtinger gradient ``grad(u)``, from a unit start v.  Trial points
    are judged by value alone; the gradient is evaluated once per iteration,
    at the current point.  The step carries over between iterations: it
    doubles (up to ``max_step``) after an accepted point and halves while
    backtracking.  Descent stops when the squared projected gradient norm
    falls below ``gn2_floor``, when backtracking passes ``min_step``, or
    after ``max_iter`` iterations.  Returns the last accepted point.
    """
    val = value(v)
    for _ in range(max_iter):
        g = grad(v)
        g = g - np.vdot(v, g) * v
        gn2 = np.vdot(g, g).real
        if gn2 < gn2_floor:
            break
        while step > min_step:
            cand = v - step * g
            cand = cand / np.linalg.norm(cand)
            cand_val = value(cand)
            if cand_val < val - 0.25 * step * gn2:
                v, val = cand, cand_val
                step = min(step * 2.0, max_step)
                break
            step *= 0.5
        else:
            break  # backtracking found no descent
    return v


def _mean_field_refine(terms, v, max_iter: int = 12):
    """Self-consistent refinement of a near-minimum of the residual.

    R(psi) = <psi| K(psi) |psi> with the positive-semidefinite mean-field
    operator K(psi) = sum_i gamma_i (L_i - <L_i>)^dag (L_i - <L_i>); near a
    minimum, iterating "smallest eigenvector of K(v)" resolves the state far
    beyond what the quadratic residual landscape lets a gradient method do.
    Returns the better of (input, refined), with a roundoff slack so an
    exactly-zero refined residual beats a spuriously negative one.
    """
    d = v.shape[0]
    eye = np.eye(d, dtype=complex)
    slack = 1e-14 * sum(rate * np.linalg.norm(L) ** 2 for rate, L, _, _ in terms)
    best_val = _residual_value(terms, v)
    best_v = v
    for _ in range(max_iter):
        K = np.zeros((d, d), dtype=complex)
        for rate, L, Ld, LdL in terms:
            mean = np.vdot(v, L @ v)
            K += rate * (
                LdL
                - np.conj(mean) * L
                - mean * Ld
                + abs(mean) ** 2 * eye
            )
        _, vecs = np.linalg.eigh(K)
        v_new = vecs[:, 0]
        val_new = _residual_value(terms, v_new)
        if val_new < best_val + slack:
            best_val, best_v = min(val_new, best_val), v_new
        if np.linalg.norm(v_new - np.vdot(v, v_new) * v) < 1e-14:
            break
        v = v_new
    return best_val, best_v


def _stationarity_snap(model: LindbladModel, v: np.ndarray) -> np.ndarray:
    """Pull a near-stationary candidate onto the stationary manifold.

    Jump operators with nilpotent structure give the residual a quartic
    valley around their fixed point, so a residual-driven search resolves
    the state only to ~(machine eps)^(1/4).  The stationarity functional
    f(psi) = ||L[|psi><psi|]||_F^2 is quadratic in the state error and can
    be polished to machine precision; candidates whose defect is already
    within 1e-3 of the generator scale are refined by the projected-gradient
    sphere descent ``_descend_on_sphere``, run on f with steps scaled by
    1/||L||^2, guarded by a fidelity check so the snap never changes the
    candidate.
    """
    norm = liouvillian_norm(model)
    if norm == 0.0:
        return v
    defect = stationarity_defect(model, np.outer(v, v.conj()))
    if defect > 1e-3 * norm or defect == 0.0:
        return v

    def value(u):
        return stationarity_defect(model, np.outer(u, u.conj())) ** 2

    def grad(u):
        rho_u = np.outer(u, u.conj())
        b = liouvillian_adjoint_action(model, liouvillian_action(model, rho_u))
        return 2.0 * (b @ u)

    current = _descend_on_sphere(
        value,
        grad,
        v,
        step=1.0 / (4.0 * norm**2),
        max_step=1.0 / norm**2,
        min_step=1e-22 / norm**2,
        gn2_floor=4.0 * (1e-14 * norm) ** 2,
        max_iter=200,
    )
    if abs(np.vdot(current, v)) ** 2 < 1.0 - 1e-6:
        return v
    return current


def _gauge_fix(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant amplitude is real > 0."""
    idx = int(np.argmax(np.abs(v) > 1e-8))
    phase = v[idx] / abs(v[idx]) if abs(v[idx]) > 0 else 1.0
    return v / phase


def fidelity(psi_a, psi_b) -> float:
    """|<a|b>|^2 between two pure states."""
    a = psi_a.amplitudes if isinstance(psi_a, StateVector) else np.asarray(psi_a)
    b = psi_b.amplitudes if isinstance(psi_b, StateVector) else np.asarray(psi_b)
    return float(abs(np.vdot(a, b)) ** 2)


def _default_consistency_horizon(model: LindbladModel) -> float:
    scale = residual_scale(model)
    return 2.0 / scale if scale > 0 else 1.0


def zero_residual_subspaces(model: LindbladModel) -> list[list[int]] | None:
    """The exact zero-residual set of a diagonal model, or None.

    When H and every jump operator are diagonal, R = gamma . (|ell|^2 p -
    |ell p|^2) with p = |psi|^2 is a rate-weighted sum of variances of the
    diagonals under p.  It vanishes exactly when p sits on basis vectors
    that share one signature ell[:, i] over the nonzero-rate terms (the
    simplest case of Shemesh, Linear Algebra Appl. 62 (1984) 11).  Returns
    those groups of basis indices, each ascending, ordered by their
    smallest index: every state supported on one group has zero residual,
    and no other state has.  Signatures are compared exactly, with no
    tolerance, since distinct but tiny values (the Gaussian tails of a
    localisation family) are distinct signatures.

    Any other model returns None: its zero set is only sampled, by the
    sphere search.  This is the one place that decides which of the two
    ``ppsd_search`` gives.
    """
    jumps = model._diagonal_jumps
    if jumps is None:
        return None
    groups: dict[tuple, list[int]] = {}
    for i, signature in enumerate(jumps[1].T.tolist()):
        groups.setdefault(tuple(signature), []).append(i)
    return list(groups.values())


def _zero_set_reports(
    model: LindbladModel, groups: list[list[int]], gate: float
) -> list[PpsdReport]:
    """The consistency report of each basis vector of the exact zero set,
    group by group; a vector failing the residual gate or not judged
    stationary raises InvariantViolation rather than being dropped."""
    horizon = _default_consistency_horizon(model)
    reports = []
    for i in [i for group in groups for i in group]:
        psi = StateVector.basis(model.dim, i)
        report = consistency_check(model, psi, t_max=horizon, n_steps=40)
        if not report.residual < gate:
            raise InvariantViolation(
                f"basis vector {i}: residual {report.residual:.3e} not below the gate {gate:.3e}"
            )
        if not report.is_stationary:
            raise InvariantViolation(f"basis vector {i} of the zero set is not stationary")
        reports.append(report)
    return reports


def ppsd_search(model: LindbladModel, config: SearchConfig = SearchConfig()) -> list[PpsdReport]:
    """Find the zero-residual pure states of a model.

    A diagonal model has an exact answer (``zero_residual_subspaces``): the
    search reports every basis vector, group by group, each stationary
    with gap 0, and runs no restart, so neither ``n_restarts`` nor ``seed``
    changes its result.  A superposition within a group also has zero
    residual and is not listed; the group sizes say where one exists.

    Any other model is searched on the unit sphere.  Each seeded restart
    runs two stages:

      1. L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16 (1995)
         1190) on x = (Re v, Im v) for an unnormalized state v, minimizing
         F(x) = R(v/|v|) (the scale gauge removed) with its analytic
         gradient (2 Re g~, 2 Im g~), where g~ = (g - <u,g> u)/|v| is the
         Wirtinger gradient g of R at u = v/|v| projected onto the sphere's
         tangent space (Absil, Mahony & Sepulchre, 2008);
      2. a mean-field refinement (smallest eigenvector of the mean-field
         operator K(psi), iterated), which evaluates residual values only.

    Minima with residual below the fixed gate
    PPSD_RESIDUAL_RTOL * residual_scale(model) are kept, phase-gauge-fixed,
    merged deterministically by (residual, lexicographic amplitudes), and
    deduplicated: any two reported states have pairwise fidelity below
    SEARCH_DEDUPE_FIDELITY.

    Every reported state, exact or sampled, takes its verdict from
    ``consistency_check``; a sampled hit keeps the search's residual.  An
    empty list means no pure state can satisfy the purity-preservation
    condition below the gate -- a meaningful outcome, not a failure.  A
    model without dissipation returns an empty list too.
    """
    scale = residual_scale(model)
    if scale == 0.0:
        # No dissipation: every state trivially preserves purity; report the
        # configuration as "no zero-residual candidates" rather than the
        # whole sphere.
        return []
    gate = PPSD_RESIDUAL_RTOL * scale
    groups = zero_residual_subspaces(model)
    if groups is not None:
        return _zero_set_reports(model, groups, gate)
    terms = model._dissipators
    d = model.dim
    rng = np.random.default_rng(config.seed)
    starts = rng.standard_normal((config.n_restarts, 2 * d))

    def value_and_grad(x):
        v = x[:d] + 1j * x[d:]
        nrm = np.linalg.norm(v)
        u = v / nrm
        g = _residual_grad(terms, u)
        g = (g - np.vdot(u, g) * u) / nrm
        return _residual_value(terms, u), 2.0 * np.concatenate([g.real, g.imag])

    hits = []
    for x0 in starts:
        res = minimize(
            value_and_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            options=dict(maxiter=SEARCH_MAX_ITERATIONS, gtol=1e-14 * scale, ftol=0.0),
        )
        v = res.x[:d] + 1j * res.x[d:]
        v = v / np.linalg.norm(v)
        val, v = _mean_field_refine(terms, v)
        if val < gate:
            hits.append((val, _gauge_fix(v)))
    # Deterministic merge order: residual first, then lexicographic on the
    # rounded gauge-fixed amplitudes.
    hits.sort(key=lambda h: (h[0], tuple(np.round(h[1].view(float), 10))))
    kept: list[tuple[float, np.ndarray]] = []
    for val, v in hits:
        if all(abs(np.vdot(v, u)) ** 2 < SEARCH_DEDUPE_FIDELITY for _, u in kept):
            kept.append((val, v))

    reports = []
    horizon = _default_consistency_horizon(model)
    for val, v in kept:
        psi = StateVector.normalized(_gauge_fix(_stationarity_snap(model, v)))
        report = consistency_check(model, psi, t_max=horizon, n_steps=40)
        reports.append(replace(report, residual=max(val, 0.0)))
    return reports


# ---------------------------------------------------------------------------
# unraveling and history chains
# ---------------------------------------------------------------------------


def _central_difference(values: list[np.ndarray], times: np.ndarray, j: int) -> np.ndarray:
    """Three-point first derivative at interior index j (non-uniform safe)."""
    h1 = times[j] - times[j - 1]
    h2 = times[j + 1] - times[j]
    return (
        h1 * h1 * values[j + 1]
        + (h2 * h2 - h1 * h1) * values[j]
        - h2 * h2 * values[j - 1]
    ) / (h1 * h2 * (h1 + h2))


def unraveling_check(model: LindbladModel, weights, trajectories, times) -> float:
    """Residual of a candidate pure-state unraveling of the master equation.

    A candidate decomposition rho(t) = sum_k p_k(t) |psi_k(t)><psi_k(t)| is a
    valid unraveling iff its time derivative (computed term by term with
    central differences) matches the generator applied to the mixture.  The
    returned value is the maximum over interior grid times of the max-entry
    norm of that mismatch; small values certify the candidate, large values
    falsify it.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size < 3:
        raise InvariantViolation("unraveling check needs at least 3 grid points")
    if np.any(np.diff(times) <= 0):
        raise InvariantViolation("times must be strictly ascending")
    p = np.asarray(weights, dtype=float)
    if p.ndim != 2 or p.shape[1] != times.size:
        raise DimensionMismatch("weights must have shape (n_trajectories, n_times)")
    if np.abs(p.sum(axis=0) - 1.0).max() > 1e-10:
        raise InvariantViolation("weights must sum to 1 at every sample")
    if len(trajectories) != p.shape[0]:
        raise DimensionMismatch("weights and trajectories disagree in count")
    projectors = []
    for traj in trajectories:
        if len(traj) != times.size:
            raise DimensionMismatch("every trajectory must match the time grid")
        projectors.append(
            [
                (s if isinstance(s, StateVector) else StateVector(s)).projector()
                for s in traj
            ]
        )

    worst = 0.0
    for j in range(1, times.size - 1):
        mix = sum(p[k, j] * projectors[k][j] for k in range(p.shape[0]))
        lhs = liouvillian_action(model, mix)
        rhs = np.zeros_like(mix)
        for k in range(p.shape[0]):
            pdot = _central_difference([np.array(p[k, i]) for i in range(times.size)], times, j)
            proj_dot = _central_difference(projectors[k], times, j)
            rhs += float(pdot) * projectors[k][j] + p[k, j] * proj_dot
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def history_chain(psi0, times, projectors) -> HistoryChain:
    """Apply a chain of rank-1 projectors along a time grid.

    Each step projects the previous state and renormalizes; the chain weight
    accumulates the squared norms (the joint realization weight).  A
    projection onto an orthogonal subspace kills the chain: weight 0 and the
    state list is truncated there.
    """
    psi0 = psi0 if isinstance(psi0, StateVector) else StateVector(psi0)
    times = tuple(float(t) for t in np.asarray(times, dtype=float).reshape(-1))
    if len(times) != len(projectors):
        raise DimensionMismatch("times and projectors must have equal length")
    if any(t2 <= t1 for t1, t2 in zip(times[:-1], times[1:])):
        raise InvariantViolation("times must be strictly ascending")
    ops = []
    for proj in projectors:
        mat = proj.matrix if isinstance(proj, Operator) else np.asarray(proj, dtype=complex)
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise InvariantViolation("projector must be Hermitian")
        if np.abs(mat @ mat - mat).max() > 1e-10:
            raise InvariantViolation("projector must be idempotent")
        if abs(mat.trace() - 1.0) > 1e-10:
            raise InvariantViolation("projector must have rank 1")
        ops.append(Operator(mat))

    states: list[StateVector] = []
    weight = 1.0
    current = psi0.amplitudes
    for op in ops:
        nxt = op.matrix @ current
        w = float(np.vdot(nxt, nxt).real)
        if w <= 1e-30:
            weight = 0.0
            break
        weight *= w
        current = nxt / np.sqrt(w)
        states.append(StateVector(current.copy()))
    return HistoryChain(
        times=times,
        projectors=tuple(ops),
        chain_states=tuple(states),
        chain_weight=weight,
    )
