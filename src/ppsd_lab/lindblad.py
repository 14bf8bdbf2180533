"""Markovian master-equation machinery.

A model is a Hamiltonian plus rate-weighted jump operators; its generator is

    d rho / dt = -i [H, rho] + sum_i gamma_i (L_i rho L_i^dag
                                              - 1/2 {L_i^dag L_i, rho}).

This module builds the generator once per model as a sparse dim^2 x dim^2
superoperator, propagates density matrices exactly (matrix exponential, or
its action on vec(rho)) or by adaptive Runge-Kutta,
extracts stationary states from the generator's null space, and decides
unitality (whether the maximally mixed state is preserved).

Vectorization convention: row-major (C order), vec(rho)[i*d + j] = rho[i, j].
Under this convention

    vec(A rho B) = (A kron B^T) vec(rho),

so the commutator part reads -i (H kron I - I kron H^T) and each dissipator
gamma (L kron conj(L) - 1/2 (L^dag L) kron I - 1/2 I kron (L^dag L)^T).
The trace functional vec(I) is a left null vector of every generator.

Exact propagation takes one of three paths, chosen from the model alone
and recorded in ``Trajectory.path``: entrywise exponentials when H and every
L are diagonal (in real arithmetic when the coefficients and the initial
state are real); a dense exp(L dt) for other models up to
DENSE_GENERATOR_MAX_DIM; above it, the action of the exponential on
vec(rho) by truncated Taylor series on the sparse generator (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33 (2011) 488, Alg. 5.2, with degree
m = 55, theta_55 = 9.9 and the exact 1-norm; ``_propagate_sparse``),
which never forms a dim^2 x dim^2 dense array and draws no random
numbers.  Every exact path forms one state per time, in time order:
``propagated_states`` gates and yields the states one at a time, and
``propagate`` collects them into a ``Trajectory``.

Superoperator norms are Frobenius norms throughout.

A model caches its per-term data and its generator on first use.
``_generator`` is the one generator: a sparse CSR array that the dense
matrix, the action, the norm, the stationarity defect and the sparse and
Runge-Kutta propagation paths all read.  The nonzero-rate
terms are held in one of two stacked forms.  ``_jumps`` holds rates (k,)
and the jump operators as one (k, d, d) array; it feeds the generator of a
non-diagonal model and, in ``ppsd``, every residual, gradient, pure-flow,
joint-eigenspace and search kernel of such a model, each written once as
array expressions over the stack.  When H and every L are diagonal,
``_diagonal_jumps`` holds rates (k,) and diagonals (k, d); the entrywise
coefficients (``_diagonal_coefficients``, one matrix product), which are
also the diagonal generator, and, in ``ppsd``, the pure-flow RHS, the
residual and its terms, its scale, the effective Hamiltonian and the exact
zero-residual set read it.  Grid operators are stored as their diagonals
(``Operator.from_diagonal``), so a diagonal grid model is built,
propagates, is checked and is searched without forming a d x d array per
term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import DimensionMismatch, IntegrationFailure, InvariantViolation
from .hilbert import HERMITICITY_TOL, DensityMatrix, GridSpec, Operator, _operator_array, purity

#: Largest dimension at which a non-diagonal model propagates by a dense
#: one-step exp(L dt).  Above it propagation runs the Taylor kernel of
#: ``_propagate_sparse`` on the sparse generator.
#: Dense against sparse, damped oscillator N = 0.3 on 41 and 101 points
#: to t = 2 and 1.5, best of 3, one BLAS thread of a 2-core VM:
#: d = 12 9-10 ms / 6-7 ms, d = 16 28-35 ms / 9 ms, d = 20 77-88 ms /
#: 9-10 ms, d = 32 1.2 s / 29 ms.  The sparse kernel is the faster one
#: from d = 12, but its work grows with ||L|| t and the dense step's does
#: not, so long horizons at d <= 16 stay dense.
DENSE_GENERATOR_MAX_DIM = 16

#: Invariant gate applied to every propagated state (trace error, negativity).
PROPAGATION_GATE = 1e-8

#: Sparse-path Taylor degree m and its scaling bound theta_m (Al-Mohy &
#: Higham 2011, Table 3.1), and the stopping test's tolerance, 2^-53.
_TAYLOR_DEGREE = 55
_THETA = 9.9
_TOL = 2.0**-53

_RK_OPTIONS = dict(method="DOP853", rtol=1e-10, atol=1e-12)


@dataclass(frozen=True)
class LindbladTerm:
    """One dissipative channel: a non-negative rate and a jump operator."""

    rate: float
    op: Operator

    def __post_init__(self):
        if not np.isfinite(self.rate) or self.rate < 0:
            raise InvariantViolation(f"rate must be finite and >= 0, got {self.rate}")
        if not isinstance(self.op, Operator):
            object.__setattr__(self, "op", Operator(self.op))


@dataclass(frozen=True)
class LindbladModel:
    """A time-independent Markovian model (H, {gamma_i, L_i}).

    ``basis`` says what the basis vectors are: "qubit" (two levels, excited
    first; dim 2), "levels" (lowest level first: Fock, atomic and
    occupation bases) or the model's GridSpec (the i-th vector sits at the
    i-th grid point; n_points equals dim).  ``basis_note`` is free text for
    readers and is never parsed.
    """

    hamiltonian: Operator
    terms: tuple[LindbladTerm, ...]
    dim: int
    label: str = ""
    basis_note: str = ""
    basis: str | GridSpec = "levels"

    def __post_init__(self):
        if not isinstance(self.hamiltonian, Operator):
            object.__setattr__(self, "hamiltonian", Operator(self.hamiltonian))
        object.__setattr__(self, "terms", tuple(self.terms))
        h = self.hamiltonian.matrix
        if h.shape[0] != self.dim:
            raise DimensionMismatch(
                f"hamiltonian dim {h.shape[0]} does not match model dim {self.dim}"
            )
        if np.abs(h - h.conj().T).max() > HERMITICITY_TOL:
            raise InvariantViolation("hamiltonian must be Hermitian")
        for term in self.terms:
            if term.op.dim != self.dim:
                raise DimensionMismatch(
                    f"jump operator dim {term.op.dim} does not match model dim {self.dim}"
                )
        if isinstance(self.basis, GridSpec):
            basis_dim = self.basis.n_points
        elif self.basis in ("qubit", "levels"):
            basis_dim = 2 if self.basis == "qubit" else self.dim
        else:
            raise InvariantViolation(f"unknown basis {self.basis!r}")
        if basis_dim != self.dim:
            raise DimensionMismatch(f"basis {self.basis!r} needs dim {basis_dim}, got {self.dim}")

    def _rated_terms(self):
        """(rate, op) for every nonzero-rate term, in model order; the one
        place zero-rate terms are dropped."""
        return [(t.rate, t.op) for t in self.terms if t.rate != 0.0]

    @cached_property
    def _jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """(rates (k,), L (k, d, d)) for the nonzero-rate terms, in model order.

        The stacked form the generator, residual, gradient, pure-flow and
        search kernels of a non-diagonal model read.  It is built on first
        use, cached on the (immutable) model and read-only; diagonal models
        read ``_diagonal_jumps`` instead and never build it there.  An
        operator built from its diagonal forms its d x d matrix here, on
        first use, and not before.
        """
        rated = self._rated_terms()
        rates = np.array([rate for rate, _ in rated], dtype=float)
        L = np.array([op.matrix for _, op in rated], dtype=complex)
        L = L.reshape(len(rated), self.dim, self.dim)
        rates.setflags(write=False)
        L.setflags(write=False)
        return rates, L

    @cached_property
    def _diagonal_jumps(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(rates (k,), ell (k, d)) when H and every L are diagonal, else None.

        ``ell[k]`` is the diagonal of the k-th nonzero-rate jump operator, in
        model order.  The predicate covers H and every term, zero-rate terms
        included, and is each operator's ``Operator.diagonal``: an operator
        built from its diagonal is read as stored, so a grid model forms no
        d x d array per term here.  The entrywise coefficients, the
        pure-flow RHS, the residual and its terms, its scale, the effective
        Hamiltonian and the exact zero set of a diagonal model read this
        form instead of the dense ``_jumps`` stack.
        """
        if any(op.diagonal is None for op in [self.hamiltonian] + [t.op for t in self.terms]):
            return None
        rated = self._rated_terms()
        rates = np.array([rate for rate, _ in rated], dtype=float)
        ell = np.array([op.diagonal for _, op in rated], dtype=complex)
        ell = ell.reshape(len(rated), self.dim)
        rates.setflags(write=False)
        ell.setflags(write=False)
        return rates, ell

    @cached_property
    def _diagonal_coefficients(self) -> np.ndarray | None:
        """Entrywise generator coefficients when H and every L are diagonal.

        Dephasing-type models act entrywise on rho:
        d rho_ij/dt = c_ij rho_ij with

            c = -i (h_i - h_j) + (gamma ell)^T conj(ell) - (b_i + b_j)/2,

        b = gamma . |ell|^2, formed from ``_diagonal_jumps`` with one
        matrix product.  Holds the (d, d) array c, or None when the model
        has off-diagonal operator content.  The populations are constants
        of motion, so c_ii is set to exactly 0: the formula leaves roundoff
        there (up to 1.4e-14), which exp(c t) amplifies to overflow at long
        horizons.
        """
        jumps = self._diagonal_jumps
        if jumps is None:
            return None
        rates, ell = jumps
        h = self.hamiltonian.diagonal
        b = rates @ (np.abs(ell) ** 2)
        c = (rates[:, None] * ell).T @ ell.conj()
        c += -1j * np.subtract.outer(h, h) - 0.5 * np.add.outer(b, b)
        np.fill_diagonal(c, 0.0)
        c.setflags(write=False)
        return c

    @cached_property
    def _generator(self) -> sparse.csr_array:
        """The generator as a sparse CSR array under row-major vectorization.

        The one representation every generator kernel reads.  A diagonal
        model holds vec(c) from ``_diagonal_coefficients`` on its diagonal
        and never reads ``_jumps``; any other model holds the Kronecker sum
        of the module docstring over the ``_jumps`` stack.
        """
        n = self.dim**2
        c = self._diagonal_coefficients
        if c is not None:
            return sparse.csr_array((c.reshape(n), np.arange(n), np.arange(n + 1)), shape=(n, n))
        eye = sparse.identity(self.dim, dtype=complex, format="csr")
        h = sparse.csr_array(self.hamiltonian.matrix)
        sup = -1j * (sparse.kron(h, eye, format="csr") - sparse.kron(eye, h.T, format="csr"))
        for rate, L in zip(*self._jumps):
            LdL = sparse.csr_array(L.conj().T @ L)
            L = sparse.csr_array(L)
            sup = sup + rate * (
                sparse.kron(L, L.conj(), format="csr")
                - 0.5 * sparse.kron(LdL, eye, format="csr")
                - 0.5 * sparse.kron(eye, LdL.T, format="csr")
            )
        return sup


@dataclass(frozen=True)
class Trajectory:
    """Times, propagated states, and their purities.

    ``propagate`` also records how the states were computed: ``path`` names
    the propagation path that ran ("entrywise", "dense_expm",
    "sparse_expm_multiply" or "adaptive_rk"), and ``trace_errors`` holds
    |tr rho - 1| of each propagated state before the gate renormalised it,
    the value the gate judged.  Both are None on a trajectory built
    directly.
    """

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    purities: np.ndarray = field(default=None)
    path: str | None = None
    trace_errors: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) != times.shape[0]:
            raise InvariantViolation("times and states must have equal length")
        if self.purities is None:
            object.__setattr__(
                self, "purities", np.array([purity(s) for s in self.states])
            )
        else:
            object.__setattr__(self, "purities", np.asarray(self.purities, dtype=float))
        if self.purities.shape[0] != times.shape[0]:
            raise InvariantViolation("times and purities must have equal length")
        if self.trace_errors is not None:
            object.__setattr__(self, "trace_errors", np.asarray(self.trace_errors, dtype=float))
            if self.trace_errors.shape[0] != times.shape[0]:
                raise InvariantViolation("times and trace errors must have equal length")


# ---------------------------------------------------------------------------
# generator construction and application
# ---------------------------------------------------------------------------


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """The dense generator matrix under row-major vectorization."""
    return model._generator.toarray()


def liouvillian_action(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Apply the generator to a d x d matrix: one sparse matrix-vector product."""
    d = model.dim
    return (model._generator @ np.asarray(rho, dtype=complex).reshape(d * d)).reshape(d, d)


def liouvillian_norm(model: LindbladModel) -> float:
    """Frobenius norm of the generator: the norm of its stored entries."""
    return float(np.linalg.norm(model._generator.data))


def stationarity_defect(model: LindbladModel, rho: np.ndarray) -> float:
    """|| L[rho] ||_F, the Frobenius norm of the generator applied to rho."""
    return float(np.linalg.norm(liouvillian_action(model, rho)))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def _validated_state(rho: np.ndarray, t: float) -> DensityMatrix:
    """Re-symmetrize and gate-check a propagated state.

    Hermiticity is restored exactly by (rho + rho^dag)/2 in rho's own
    dtype: ``conj`` of a real array is the array itself, so a real rho
    takes (rho + rho^T)/2 and its state is stored as float64.  The trace
    is renormalized to 1; trace error (before renormalization) and
    negativity beyond PROPAGATION_GATE, or a trace that is not a number,
    raise IntegrationFailure.  The state is diagonalised once: it is
    built with its positivity check off (eig_tol=inf) and the gate reads
    its ``min_eigenvalue``, which is the value the returned state carries.
    """
    sym = (rho + rho.conj().T) / 2
    tr = sym.trace().real
    if not abs(tr - 1.0) <= PROPAGATION_GATE:
        raise IntegrationFailure(f"trace error {abs(tr - 1.0):.3e} at t={t}")
    sym /= tr
    state = DensityMatrix(sym, eig_tol=np.inf)
    if state.min_eigenvalue < -PROPAGATION_GATE:
        raise IntegrationFailure(f"negativity {state.min_eigenvalue:.3e} at t={t}")
    return state


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise InvariantViolation("times must be non-empty")
    if times[0] < 0:
        raise InvariantViolation("times must start at t >= 0")
    if np.any(np.diff(times) < 0):
        raise InvariantViolation("times must be ascending")
    return times


def _exact_path(model: LindbladModel) -> str:
    """The exact propagation path the model takes: "entrywise",
    "dense_expm" or "sparse_expm_multiply"."""
    if model._diagonal_coefficients is not None:
        return "entrywise"
    if model.dim > DENSE_GENERATOR_MAX_DIM:
        return "sparse_expm_multiply"
    return "dense_expm"


def _propagate_exact(model: LindbladModel, rho0: np.ndarray, times: np.ndarray):
    """Yield exp(L t) rho0 at every time, along the path ``_exact_path`` names.

    Every path forms one raw state per time, in time order, so a caller
    that consumes each state before taking the next holds one raw state at
    most.  The entrywise path yields rho0 * exp(c t).  When c and rho0 have
    no nonzero imaginary part, as on every grid model (H = 0, real
    diagonal jump operators, real Gaussian amplitudes), it forms the
    product in real arithmetic, rho0.real * exp(c.real t), and the gate
    then diagonalises a real symmetric matrix.  The entries agree with the
    complex expression to roundoff, so grid outputs move only in their last
    digits.  The dense path steps vec(rho) by exp(L dt), one cached
    exponential per distinct step.
    """
    path = _exact_path(model)
    if path == "entrywise":
        c = model._diagonal_coefficients
        if not c.imag.any() and not rho0.imag.any():
            c, rho0 = c.real, rho0.real
        c_max = float(np.abs(c).max())
        for t in times:
            yield rho0 * np.exp(_entrywise_exponent(c, c_max, t))
        return
    if path == "sparse_expm_multiply":
        yield from _propagate_sparse(model, rho0, times)
        return
    d = model.dim
    sup = liouvillian_matrix(model)
    vec = rho0.reshape(d * d)
    step_cache: dict[float, np.ndarray] = {}
    prev_t = 0.0
    for t in times:
        dt = t - prev_t
        if dt > 0:
            key = round(float(dt), 15)
            if key not in step_cache:
                step_cache[key] = expm(sup * dt)
            vec = step_cache[key] @ vec
        prev_t = t
        yield vec.reshape(d, d)


def _entrywise_exponent(c: np.ndarray, c_max: float, t: float) -> np.ndarray:
    """c t (c_max >= |c|), clipped near overflow: Re at -1e3, where exp is 0, Im at +-1e300."""
    if c_max * float(t) < 1e300:
        return c * t
    return (np.maximum(c.real, -1e3 / t) + 1j * np.clip(c.imag, -1e300 / t, 1e300 / t)) * t


def _propagate_sparse(model: LindbladModel, rho0: np.ndarray, times: np.ndarray):
    """exp(L t) vec(rho0) at every time by truncated Taylor series on the sparse L.

    Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488, Alg. 5.2, in the
    paper's 1-norm branch.  L is shifted by mu = tr(L)/n, and the exact
    1-norm of A = L - mu I (its largest absolute column sum) sets the
    scaling: a leg of q steps h takes m = 55 terms at most and
    s = ceil(q h ||A||_1 / theta_55) scaling steps, theta_55 = 9.9 (paper,
    Table 3.1).  No norm is estimated, so the kernel draws no random
    numbers.  A t ||A||_1 that overflows raises InvariantViolation.

    The legs are [0, times[0]] as one step, then the uniform grid as one
    leg or each interval of any other grid as its own.  When q > s, each
    block of q // s steps computes its Taylor terms (hA)^p z / p! once, up
    to the paper's stopping test at the block's last point, and forms
    every point k of the block as exp(k h mu) sum_p k^p K[p].  When q <= s,
    each interval takes one scaled step: ceil(h ||A||_1 / theta_55)
    one-point blocks.  The points are summed elementwise, term by term,
    not as one matrix product: a BLAS product's summation order follows
    the thread count, and the outputs must not.  States are yielded one at
    a time, each a new array: the one term buffer K is reused by every
    block, and no yielded state aliases it.
    """
    d = model.dim
    n = d * d
    gen = model._generator
    mu = complex(gen.trace()) / n
    A = gen - mu * sparse.identity(n, dtype=complex, format="csr")
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(float(times[-1]) * norm):
        raise InvariantViolation(f"t ||L - mu I||_1 overflows at t={times[-1]:g}")
    t0, q = float(times[0]), times.size - 1
    legs = [(t0, 1)]
    if q and np.array_equal(times, np.linspace(t0, times[-1], times.size)):
        legs.append(((float(times[-1]) - t0) / q, q))
    else:
        legs += [(dt, 1) for dt in np.diff(times).tolist()]
    K = np.empty((_TAYLOR_DEGREE + 1, n), dtype=complex)
    z = rho0.reshape(n)
    for h, q in legs:
        s = max(1, math.ceil(q * h * norm / _THETA))
        per, sub = (q // s, 1) if q > s else (1, max(1, math.ceil(h * norm / _THETA)))
        m = _TAYLOR_DEGREE if h * norm > 0 else 0
        for k0 in range(0, q, per):
            for _ in range(sub - 1):
                (z,) = _taylor_block(A, mu, z, h / sub, 1, K[: m + 1])
            for z in _taylor_block(A, mu, z, h / sub, min(per, q - k0), K[: m + 1]):
                yield z.reshape(d, d)


def _taylor_block(A, mu: complex, z: np.ndarray, h: float, count: int, K: np.ndarray):
    """Yield exp(k h (A + mu I)) z for k = 1..count, each a new (n,) array.

    The terms K[p] = (hA)^p z / p!, p < len(K), are written into K until
    the paper's test holds at k = count: two consecutive terms
    k^p ||K[p]||_inf within 2^-53 of the partial sum.  The partial sum's
    norm is taken only once the test passes on its triangle-inequality
    bound.  The last point is that partial sum; each earlier point k is
    formed when it is yielded, as sum_p k^p K[p] added term by term with
    the block's coefficient vectors ks**p, so only the terms, the last
    point and count x p real coefficients stay alive across the block.
    """
    K[0] = z
    last = K[0].copy()
    c1 = bound = np.abs(z).max()
    p = 0
    for p in range(1, len(K)):
        np.multiply(A @ K[p - 1], h / p, out=K[p])
        coeff = float(count) ** p
        last += coeff * K[p]
        c2 = coeff * np.abs(K[p]).max()
        bound += c2
        if c1 + c2 <= _TOL * bound and c1 + c2 <= _TOL * np.abs(last).max():
            break
        c1 = c2
    phases = np.exp(np.arange(1.0, count + 1) * h * mu)
    ks = np.arange(1.0, count)
    powers = [ks**j for j in range(1, p + 1)]
    for k in range(count - 1):
        point = K[0].copy()
        for j, power in enumerate(powers, start=1):
            point += power[k] * K[j]
        point *= phases[k]
        yield point
    last *= phases[-1]
    yield last


def _propagate_rk(model: LindbladModel, rho0: np.ndarray, times: np.ndarray):
    d = model.dim
    sup = model._generator
    t_span = (0.0, float(times[-1]) if times[-1] > 0 else 1e-30)
    y0 = rho0.reshape(d * d).astype(complex)
    sol = solve_ivp(lambda _t, y: sup @ y, t_span, y0, t_eval=times, **_RK_OPTIONS)
    if not sol.success:
        raise IntegrationFailure(f"adaptive RK failed: {sol.message}")
    return [sol.y[:, k].reshape(d, d) for k in range(sol.y.shape[1])]


def propagated_states(model: LindbladModel, rho0, times, method: str = "exact_exponential"):
    """(path, states): the propagation path and an iterator over its states.

    The arguments are checked at the call, before any state is formed.
    ``states`` yields (state, trace error) per time, in time order: each
    state passes the invariant gate (_validated_state) as it is formed, and
    its trace error is |tr rho - 1| before renormalisation, the value the
    gate judged.  The exact paths form one state at a time, so a caller
    that drops each state before taking the next holds memory independent
    of the number of times; "adaptive_rk" integrates every time first.
    """
    if method not in ("exact_exponential", "adaptive_rk"):
        raise InvariantViolation(f"unknown propagation method {method!r}")
    times = _check_times(times)
    rho0 = DensityMatrix(rho0).matrix if not isinstance(rho0, DensityMatrix) else rho0.matrix
    if rho0.shape[0] != model.dim:
        raise DimensionMismatch(
            f"state dim {rho0.shape[0]} does not match model dim {model.dim}"
        )
    if method == "adaptive_rk":
        path, raw = "adaptive_rk", _propagate_rk(model, rho0, times)
    else:
        path, raw = _exact_path(model), _propagate_exact(model, rho0, times)
    # the gate's (rho + rho^dag)/2 has the real trace of rho, bit for bit
    return path, ((_validated_state(r, t), abs(r.trace().real - 1.0)) for r, t in zip(raw, times))


def propagate(model: LindbladModel, rho0, times, method: str = "exact_exponential") -> Trajectory:
    """Propagate rho0 through the model's master equation.

    ``method`` is "exact_exponential" or "adaptive_rk" (DOP853 with rtol
    1e-10 / atol 1e-12, run only when asked for).  The exact method is
    entrywise for diagonal models, a dense matrix exponential of the
    generator for other models up to DENSE_GENERATOR_MAX_DIM, and above it
    the Taylor kernel of ``_propagate_sparse`` on the sparse generator,
    one leg for a uniform grid, one per interval otherwise.  The dense,
    sparse and Runge-Kutta paths read the model's one cached generator
    (``LindbladModel._generator``);
    the Runge-Kutta right-hand side is one sparse matrix-vector product.

    The trajectory collects every gated state of ``propagated_states``;
    violations of the 1e-8 invariant gate raise IntegrationFailure.  On
    the exact paths at most one raw state is alive besides the returned
    states, and real raw states (every grid model's) stay real: the
    trajectory then holds float64 matrices, half the bytes of complex ones.
    Each returned state was diagonalised exactly once, and its
    ``min_eigenvalue`` is the value the gate judged.  The trajectory
    records the path that ran and the trace errors the gate judged, from
    before renormalisation.
    """
    path, gated = propagated_states(model, rho0, times, method)
    states, trace_errors = zip(*gated)
    return Trajectory(
        times=_check_times(times), states=states, path=path, trace_errors=trace_errors
    )


def purity_trajectory(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """(times, purities) of a trajectory."""
    return traj.times, traj.purities


# ---------------------------------------------------------------------------
# stationary structure
# ---------------------------------------------------------------------------


def _hermitian_null_basis(null_vectors: np.ndarray, dim: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of a dagger-closed null space."""
    candidates = []
    for k in range(null_vectors.shape[1]):
        v = null_vectors[:, k].reshape(dim, dim)
        candidates.append((v + v.conj().T) / 2)
        candidates.append((v - v.conj().T) / 2j)
    basis: list[np.ndarray] = []
    for cand in candidates:
        for b in basis:
            cand = cand - np.vdot(b, cand).real * b
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            basis.append(cand / nrm)
        if len(basis) == null_vectors.shape[1]:
            break
    return basis


def stationary_states(model: LindbladModel, tol: float = 1e-10) -> list[DensityMatrix]:
    """Density-matrix representatives of the generator's null space.

    Singular vectors of the generator with singular value below
    tol * ||L||_2 span the stationary subspace; they are recombined into
    Hermitian matrices and converted, where possible, to positive unit-trace
    representatives (trace-normalized elements plus positive/negative
    eigenparts).  Every returned state rho satisfies
    ||L vec(rho)|| < tol * ||L||.  An empty list is returned, with a warning,
    only if no representative passes the checks.
    """
    d = model.dim
    sup = liouvillian_matrix(model)
    _, s, vh = np.linalg.svd(sup)
    norm2 = float(s[0])
    if norm2 == 0.0:
        return [DensityMatrix.maximally_mixed(d)]
    null_mask = s < tol * norm2
    if not np.any(null_mask):
        warnings.warn("no numerical null space detected for the generator")
        return []
    null_vectors = vh[null_mask].conj().T
    basis = _hermitian_null_basis(null_vectors, d)

    def try_candidate(mat: np.ndarray) -> DensityMatrix | None:
        tr = mat.trace().real
        if abs(tr) < 1e-10:
            return None
        rho = (mat + mat.conj().T) / (2 * tr)
        if np.linalg.norm(sup @ rho.reshape(d * d)) > tol * norm2 * max(1.0, np.linalg.norm(rho)):
            return None
        state = DensityMatrix(rho, eig_tol=np.inf)
        return state if state.min_eigenvalue >= -1e-10 else None

    found: list[DensityMatrix] = []
    for b in basis:
        eigvals, eigvecs = np.linalg.eigh(b)
        pos = eigvecs @ np.diag(np.clip(eigvals, 0, None)) @ eigvecs.conj().T
        neg = eigvecs @ np.diag(np.clip(-eigvals, 0, None)) @ eigvecs.conj().T
        for cand in (b, pos, neg):
            got = try_candidate(cand)
            if got is None:
                continue
            if all(np.linalg.norm(got.matrix - f.matrix) > 1e-8 for f in found):
                found.append(got)
    if not found:
        warnings.warn(
            "stationary subspace detected but no positive representative found"
        )
    return found


def null_space_dimension(model: LindbladModel, tol: float = 1e-10) -> int:
    """Number of singular values of the generator below tol * ||L||_2."""
    svals = np.linalg.svd(liouvillian_matrix(model), compute_uv=False)
    if svals[0] == 0.0:
        return model.dim**2
    return int(np.sum(svals < tol * svals[0]))


def is_unital(model: LindbladModel, tol: float = 1e-10) -> bool:
    """Whether the generator annihilates the maximally mixed state I/d."""
    d = model.dim
    norm = liouvillian_norm(model)
    if norm == 0.0:
        return True
    defect = stationarity_defect(model, np.eye(d, dtype=complex) / d)
    return bool(defect < tol * norm)
