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
checks candidate pure trajectories against the full master equation,
enumerates the zero-residual states exactly as joint eigenspaces of the jump
operators (with a sphere search as a cross-check that lists nothing),
verifies pure-state unravelings of density-matrix trajectories, and
evaluates projector history chains.
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

#: L-BFGS-B iteration cap of each restart of ``unlisted_hits``.
SEARCH_MAX_ITERATIONS = 400


@dataclass(frozen=True)
class PpsdReport:
    """Outcome of examining one candidate pure state.

    ``residual`` is the largest purity-loss rate R seen along the candidate's
    pure path (just R(psi) when no path was integrated), ``consistency_gap``
    the largest trace distance between the nonlinear pure evolution and the
    master-equation evolution of the same initial projector, and
    ``max_impurity`` the largest 1 - tr(rho^2) of the master-equation path
    (0 when no path was integrated).
    """

    residual: float
    state: StateVector
    consistency_gap: float
    verdict: str
    max_impurity: float

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
    """Knobs for the sphere-search cross-check of ``unlisted_hits`` (all
    deterministic given ``seed``); the zero set itself takes none."""

    n_restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_restarts < 1:
            raise InvariantViolation("n_restarts must be positive")
        if self.seed < 0:
            raise InvariantViolation(f"seed must be >= 0, got {self.seed}")


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
    diagonals; other models take the 2-norms of the stacked operators.
    """
    jumps = model._diagonal_jumps
    if jumps is not None:
        rates, ell = jumps
        return float(rates @ (np.abs(ell) ** 2).max(axis=1))
    rates, L = model._jumps
    return float((rates * np.linalg.norm(L, 2, axis=(1, 2)) ** 2).sum())


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
    rates, var = _rates_and_variances(model, _model_state(model, psi))
    return rates * var


def _rates_and_variances(model: LindbladModel, v: np.ndarray):
    """(gamma (k,), <L_i^dag L_i> - |<L_i>|^2 (k,)) at unit v: on the
    diagonal form when the model has one, else on the ``_jumps`` stack."""
    jumps = model._diagonal_jumps
    if jumps is None:
        rates, L = model._jumps
        return rates, _stacked_moments(L, v)[1]
    rates, ell = jumps
    p = np.abs(v) ** 2
    return rates, np.abs(ell) ** 2 @ p - np.abs(ell @ p) ** 2


def _stacked_moments(L: np.ndarray, v: np.ndarray):
    """(<L_i> (k,), ||L_i v||^2 - |<L_i>|^2 (k,)) at unit v.

    ``L @ v`` gives every L_i v at once, as a (k, d) array.
    """
    Lv = L @ v
    means = Lv @ v.conj()
    x = Lv.view(float)
    return means, (x * x).sum(axis=1) - np.abs(means) ** 2


def ppsd_residual(model: LindbladModel, psi) -> float:
    """Purity-loss rate R(psi) = sum_i gamma_i (<L_i^dag L_i> - <L_i><L_i^dag>).

    Equals sum_i gamma_i Var(L_i, psi) when every jump operator is Hermitian.
    It is real by construction.  A diagonal model evaluates it in O(kd) on
    p = |psi|^2 and its stacked diagonals,

        R = gamma . (|ell|^2 p - |ell p|^2);

    any other model on its stacked jump operators, with <L^dag L> taken as
    ||L psi||^2, as the in-order sum of ``ppsd_residual_terms``: the sphere
    search's value, bit for bit.
    """
    return float(_model_residual(model, _model_state(model, psi)))


def _model_residual(model: LindbladModel, v: np.ndarray):
    """R at unit v, the rate-weighted sum of the variances: one dot product
    on a diagonal model, the sum of the terms on any other."""
    rates, var = _rates_and_variances(model, v)
    if model._diagonal_jumps is not None:
        return rates @ var
    return (rates * var).sum()


def _gram(rates: np.ndarray, L: np.ndarray) -> np.ndarray:
    """M = sum_i gamma_i L_i^dag L_i, as A^dag A for the (kd x d) stack A of
    sqrt(gamma_i) L_i: one matrix product."""
    k, d, _ = L.shape
    A = (np.sqrt(rates)[:, None, None] * L).reshape(k * d, d)
    return A.conj().T @ A


def effective_hamiltonian(model: LindbladModel, psi) -> Operator:
    """State-dependent generator of the purity-preserving flow.

    H_eff = H + i sum_i gamma_i ( <L_i^dag> L_i - 1/2 <L_i^dag L_i> I
                                  - 1/2 L_i^dag L_i ),
    non-Hermitian in general.  A diagonal model returns a diagonal operator
    formed from its stacked diagonals.
    """
    v = _model_state(model, psi)
    jumps = model._diagonal_jumps
    if jumps is not None:
        rates, ell = jumps
        p = np.abs(v) ** 2
        b = rates @ (np.abs(ell) ** 2)
        drift = (rates * (ell @ p).conj()) @ ell - 0.5 * b - 0.5 * (b @ p)
        return Operator.from_diagonal(model.hamiltonian.diagonal + 1j * drift)
    rates, L = model._jumps
    M = _gram(rates, L)
    C = np.tensordot(rates * ((L @ v) @ v.conj()).conj(), L, axes=1)
    drift = C - 0.5 * M - 0.5 * np.vdot(v, M @ v).real * np.eye(model.dim)
    return Operator(model.hamiltonian.matrix + 1j * drift)


# ---------------------------------------------------------------------------
# nonlinear pure-state flow
# ---------------------------------------------------------------------------


def _pure_flow_rhs(model: LindbladModel):
    """The pure-flow RHS: G y + (gamma conj(<L>)) . (L y) + s y with
    G = -iH - M/2 formed once per solve.  The scalar s is the -1/2
    <L^dag L> part of the drift plus the norm counterterm R; a multiple of
    y, it leaves the ray untouched and only cancels the norm decay
    -2 R |psi|^2 of the raw Schroedinger-like flow."""
    if model._diagonal_jumps is not None:
        return _diagonal_pure_flow_rhs(model)
    rates, L = model._jumps
    static = -1j * model.hamiltonian.matrix - 0.5 * _gram(rates, L)

    def rhs(_t, y):
        n = np.vdot(y, y).real
        Ly = L @ y
        means = (Ly @ y.conj()) / n
        x = Ly.view(float)
        scalar = rates @ (0.5 * (x * x).sum(axis=1) / n - np.abs(means) ** 2)
        return static @ y + (rates * means.conj()) @ Ly + scalar * y

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
    solve at rtol 1e-10, its step capped at times[-1] / 10 (or times[-1] if
    that underflows to 0), whose dense output gives every time point,
    normalised as it is stored.  The norm drift between output points,
    |norm(y_k) / norm(y_k-1) - 1|, is recorded; above 1e-3, or 1e-6 per
    unit time, it raises NormBlowUp.
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
            max_step=t_eval[-1] / 10 or t_eval[-1], **_RK_OPTIONS,
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
    """(1/2) || rho - sigma ||_1 between two density matrices.

    Two real matrices are subtracted and diagonalised in real arithmetic.
    """
    a = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    b = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma)
    d = a - b
    diff = (d + d.conj().T) / 2
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


def consistency_check(model: LindbladModel, psi0, t_max: float, n_steps: int) -> PpsdReport:
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
            max_impurity=0.0,
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
# exact zero-residual set and its cross-check
# ---------------------------------------------------------------------------


def _residual_and_grad(rates, L, M, v):
    """R and its Wirtinger gradient d R / d conj(psi) = K(psi) psi - R psi
    at unit psi, with M the Gram matrix of ``_gram``.

    K(psi) = sum_i gamma_i (L_i - <L_i>)^dag (L_i - <L_i>) is formed from
    the means as M - C - C^dag + (gamma . |<L>|^2) I, with
    C = sum_i gamma_i conj(<L_i>) L_i.
    """
    means, var = _stacked_moments(L, v)
    val = (rates * var).sum()
    C = ((rates * means.conj()) @ L.reshape(len(rates), -1)).reshape(M.shape)
    K = M - C - C.conj().T
    K.flat[:: K.shape[0] + 1] += rates @ np.abs(means) ** 2
    return val, K @ v - val * v


def _gauge_fix(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant amplitude is real > 0."""
    idx = int(np.argmax(np.abs(v) > 1e-8))
    phase = v[idx] / abs(v[idx]) if abs(v[idx]) > 0 else 1.0
    return v / phase


def _amplitude_key(v: np.ndarray) -> tuple:
    """The amplitudes rounded to 10 decimals, (Re, Im) in turn: the row order."""
    return tuple(np.round(np.ascontiguousarray(v).view(float), 10))


def fidelity(psi_a, psi_b) -> float:
    """|<a|b>|^2 between two pure states."""
    a = psi_a.amplitudes if isinstance(psi_a, StateVector) else np.asarray(psi_a)
    b = psi_b.amplitudes if isinstance(psi_b, StateVector) else np.asarray(psi_b)
    return float(abs(np.vdot(a, b)) ** 2)


def _default_consistency_horizon(model: LindbladModel) -> float:
    scale = residual_scale(model)
    return 2.0 / scale if scale > 0 else 1.0


def _canonical_basis(B: np.ndarray) -> np.ndarray:
    """An orthonormal basis of span(B) that depends on the subspace alone.

    Gram-Schmidt runs over P e_0, P e_1, ..., with P = B B^dag, and keeps a
    vector when its remainder has squared norm above 1/(2d); the remainders'
    squared norms sum to the dimension still missing, so the scan always
    completes the basis.  A coordinate subspace so gives its coordinate
    vectors.  Each vector is gauge-fixed, and real and imaginary parts
    below 1e-12, which are SVD roundoff, are set to 0.
    """
    d, m = B.shape
    P = B @ B.conj().T
    basis = np.empty((d, m), dtype=complex)
    k = 0
    for p in P.T:
        v = p - basis[:, :k] @ (basis[:, :k].conj().T @ p)
        norm = np.linalg.norm(v)
        if norm * norm > 0.5 / d:
            basis[:, k] = _gauge_fix(v / norm)
            k += 1
            if k == m:
                break
    basis.real[np.abs(basis.real) < 1e-12] = 0.0
    basis.imag[np.abs(basis.imag) < 1e-12] = 0.0
    return basis


def _joint_eigenspaces(L: np.ndarray) -> list[np.ndarray]:
    """Canonical bases of the joint eigenspaces of the stacked operators L.

    Starts from the whole space, Q = I, and splits each subspace by one
    operator at a time.  The eigenvalues mu of L_i on span(Q) are among
    those of Q^dag L_i Q; each such candidate keeps the null space of
    (L_i - mu) Q, found by SVD at 1e-9 ||L_i||_2, and a candidate within
    that tolerance of one already taken is skipped.  Every subspace kept
    takes its ``_canonical_basis`` before the next operator, so the
    compression of a ladder operator to a coordinate subspace is the
    triangular matrix itself, whose eigenvalues are exact.
    """
    eye = np.eye(L.shape[-1], dtype=complex)
    spaces = [eye]
    for Li in L:
        tol = 1e-9 * np.linalg.norm(Li, 2)
        split = []
        for Q in spaces:
            taken: list[complex] = []
            for mu in np.linalg.eigvals(Q.conj().T @ Li @ Q):
                if any(abs(mu - nu) <= tol for nu in taken):
                    continue
                taken.append(mu)
                _, s, vh = np.linalg.svd((Li - mu * eye) @ Q)
                null = vh[np.count_nonzero(s > tol):].conj().T
                if null.shape[1]:
                    split.append(_canonical_basis(Q @ null))
        spaces = split
    return spaces


def zero_residual_subspaces(model: LindbladModel) -> list[np.ndarray]:
    """The exact zero-residual set: an orthonormal (d x m) basis per subspace.

    R(psi) = 0 exactly when psi is a simultaneous eigenvector of every jump
    operator with a nonzero rate, so the zero set is a finite union of
    joint eigenspaces (Shemesh, Linear Algebra Appl. 62 (1984) 11;
    Jamiolkowski & Pastuszak, Linear Multilinear Algebra (2015)).  Every
    state of a returned subspace has zero residual, and no other state has.

    On a diagonal model R = gamma . (|ell|^2 p - |ell p|^2), p = |psi|^2,
    vanishes exactly when p sits on basis vectors that share one signature
    ell[:, i] over the nonzero-rate terms.  Each group of such indices is
    returned as identity columns, in ascending order, and the groups in
    the order of their smallest index.  Signatures are compared exactly,
    with no tolerance, since distinct but tiny values (the Gaussian tails
    of a localisation family) are distinct signatures.

    Any other model takes the joint eigenspaces of its ``_jumps`` stack
    (``_joint_eigenspaces``), each in its canonical basis.  The columns of
    a subspace, and the subspaces by their first column, are in ascending
    order of their rounded gauge-fixed amplitudes (``_amplitude_key``).
    A model without dissipation returns the whole space.
    """
    jumps = model._diagonal_jumps
    if jumps is not None:
        groups: dict[tuple, list[int]] = {}
        for i, signature in enumerate(jumps[1].T.tolist()):
            groups.setdefault(tuple(signature), []).append(i)
        eye = np.eye(model.dim, dtype=complex)
        return [eye[:, group] for group in groups.values()]
    bases = []
    for B in _joint_eigenspaces(model._jumps[1]):
        order = sorted(range(B.shape[1]), key=lambda j: _amplitude_key(B[:, j]))
        bases.append(B[:, order])
    return sorted(bases, key=lambda B: _amplitude_key(B[:, 0]))


def ppsd_search(model: LindbladModel) -> list[PpsdReport]:
    """The zero-residual pure states of a model, each with its verdict.

    The states are the basis vectors of ``zero_residual_subspaces(model)``,
    subspace by subspace, so the result depends on the model alone.  Each
    must have R(psi) below the fixed gate PPSD_RESIDUAL_RTOL *
    residual_scale(model), and each takes its verdict from
    ``consistency_check`` and reports R(psi) as its residual.  A vector
    that fails the gate, or a vector of a diagonal model (whose zero set is
    made of fixed points) that is not judged stationary, raises
    InvariantViolation rather than being dropped.  A superposition within
    a subspace also has zero residual and is not listed; the subspace
    dimensions say where one exists.

    An empty list means no pure state satisfies the purity-preservation
    condition -- a meaningful outcome, not a failure.  A model without
    dissipation returns an empty list too: every state keeps its purity.
    """
    return _judge_zero_set(model, zero_residual_subspaces(model))


def _judge_zero_set(model: LindbladModel, subspaces: list[np.ndarray]) -> list[PpsdReport]:
    """``ppsd_search`` on ``subspaces``, the model's zero set already
    enumerated, so a caller that also needs the subspaces enumerates once."""
    scale = residual_scale(model)
    if scale == 0.0:
        return []
    gate = PPSD_RESIDUAL_RTOL * scale
    horizon = _default_consistency_horizon(model)
    reports = []
    for basis in subspaces:
        for v in basis.T:
            psi = StateVector(v)
            val = ppsd_residual(model, psi)
            if not val < gate:
                raise InvariantViolation(
                    f"zero-set vector {len(reports)}: residual {val:.3e} not below the gate {gate:.3e}"
                )
            report = consistency_check(model, psi, t_max=horizon, n_steps=40)
            if model._diagonal_jumps is not None and not report.is_stationary:
                raise InvariantViolation(
                    f"zero-set vector {len(reports)} of a diagonal model is not stationary"
                )
            reports.append(replace(report, residual=max(val, 0.0)))
    return reports


def unlisted_hits(
    model: LindbladModel, subspaces: list[np.ndarray], config: SearchConfig = SearchConfig()
) -> int | None:
    """How many sphere-search restarts end on a zero-residual state that
    ``subspaces`` does not list; None when no restart runs.

    The cross-check of the exact zero set.  It runs on a non-diagonal model
    with dissipation only: a diagonal model's zero set is exact by
    construction.  Each seeded restart runs L-BFGS-B (Byrd, Lu, Nocedal &
    Zhu, SIAM J. Sci. Comput. 16 (1995) 1190) once, on x = (Re v, Im v)
    for an unnormalized state v, minimizing F(x) = R(v/|v|) with the
    gradient (2 Re g~, 2 Im g~), where g~ = (g - <u,g> u)/|v| is the
    Wirtinger gradient g of ``_residual_and_grad`` at u = v/|v| projected
    onto the sphere's tangent space (Absil, Mahony & Sepulchre,
    *Optimization Algorithms on Matrix Manifolds*, 2008), to a
    projected-gradient tolerance of 1e-14 residual_scale(model).  A restart
    counts when it ends below the gate PPSD_RESIDUAL_RTOL *
    residual_scale(model) with weight ||Q^dag u||^2 below 1 - 1e-6 in every
    listed subspace Q: a point of a family the enumeration does not list,
    such as the near-coherent states of a truncated ladder operator.
    """
    scale = residual_scale(model)
    if model._diagonal_jumps is not None or scale == 0.0:
        return None
    rates, L = model._jumps
    M = _gram(rates, L)
    d = model.dim

    def fun(x):
        v = x[:d] + 1j * x[d:]
        nrm = np.linalg.norm(v)
        u = v / nrm
        val, g = _residual_and_grad(rates, L, M, u)
        g = (g - np.vdot(u, g) * u) / nrm
        return val, 2.0 * np.concatenate([g.real, g.imag])

    starts = np.random.default_rng(config.seed).standard_normal((config.n_restarts, 2 * d))
    unlisted = 0
    for x0 in starts:
        res = minimize(
            fun, x0, jac=True, method="L-BFGS-B",
            options=dict(maxiter=SEARCH_MAX_ITERATIONS, gtol=1e-14 * scale, ftol=0.0),
        )
        u = res.x[:d] + 1j * res.x[d:]
        u /= np.linalg.norm(u)
        if res.fun < PPSD_RESIDUAL_RTOL * scale and all(
            np.linalg.norm(Q.conj().T @ u) ** 2 < 1.0 - 1e-6 for Q in subspaces
        ):
            unlisted += 1
    return unlisted


# ---------------------------------------------------------------------------
# unraveling and history chains
# ---------------------------------------------------------------------------


def _central_difference(values, times: np.ndarray, j: int) -> np.ndarray:
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
            pdot = _central_difference(p[k], times, j)
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
