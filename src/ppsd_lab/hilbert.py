"""Finite-dimensional Hilbert-space primitives.

Value types (operators, pure states, density matrices, position grids) plus
the standard constructions used throughout the model catalog: Pauli matrices,
truncated bosonic ladder operators, coherent states, and diagonal position
operators on a uniform grid.

All types are immutable; every operation is a pure function, so concurrent
use from any number of threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, TruncationInsufficient

# Absolute tolerances for structural invariants (double-precision headroom).
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
POSITIVITY_TOL = 1e-10

#: Default Fock-space truncation used by the bosonic catalog models.
DEFAULT_FOCK_DIM = 40

#: Population allowed on the top truncated level of a coherent state, and
#: beyond the cutoff.
COHERENT_LEAKAGE_TOL = 1e-10


def _as_complex_matrix(matrix) -> np.ndarray:
    return _checked_square(np.array(matrix, dtype=complex))


def _checked_square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvariantViolation(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvariantViolation("matrix entries must be finite")
    return m


def _hermitian_eigvalsh(herm: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix herm, in ascending order.

    A real matrix, or a complex one with no nonzero imaginary part (-0.0
    counts as zero), is real symmetric and goes to the real solver; any
    other matrix goes to the complex solver.  On one BLAS thread of a
    2-core VM the real solver took 0.75 / 2.3 / 4.5 ms at d = 128 / 192 /
    256, the complex one 1.9 / 4.8 / 12.0 ms.
    """
    if np.iscomplexobj(herm) and herm.imag.any():
        return np.linalg.eigvalsh(herm)
    return np.linalg.eigvalsh(herm.real)


def _float_parts(m: np.ndarray) -> np.ndarray:
    """The entries of m as a C-ordered float64 array: m itself when real and
    C-contiguous, the real and imaginary parts interleaved when complex."""
    return np.ascontiguousarray(m).view(np.float64)


def _has_negative_zero(m: np.ndarray) -> bool:
    """Whether an entry of m, or a real or imaginary part of one, is -0.0."""
    neg_zero = np.float64(-0.0).view(np.uint64)
    return bool(np.any(_float_parts(m).view(np.uint64) == neg_zero))


class Operator:
    """A linear operator on a dim-dimensional Hilbert space.

    ``Operator(matrix)`` stores a square matrix.  ``Operator.from_diagonal``
    stores only the d entries of an operator that is diagonal by
    construction, such as the position and localisation operators of a
    grid model; both run the same finite-entry check.

    ``matrix`` is the read-only complex128 dense array in either case; a
    diagonal-built operator forms it on first read and caches it.
    ``diagonal`` holds the read-only diagonal entries when the operator is
    diagonal and None otherwise: the stored entries of a diagonal-built
    operator, or, for a dense one, the diagonal of a matrix whose nonzero
    entries all lie on it.  Kernels that work on diagonals read it and so
    never form a d x d array for an operator built from its diagonal.

    Instances are immutable.
    """

    dim: int

    def __init__(self, matrix):
        m = _as_complex_matrix(matrix)
        m.setflags(write=False)
        # the stored form shadows the cached property that would derive it
        self.__dict__.update(matrix=m, dim=m.shape[0])

    @classmethod
    def from_diagonal(cls, entries) -> "Operator":
        """The diagonal operator diag(entries), stored as its d entries."""
        e = np.array(entries, dtype=complex)
        if e.ndim != 1:
            raise InvariantViolation(f"expected a vector of diagonal entries, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise InvariantViolation("matrix entries must be finite")
        e.setflags(write=False)
        op = cls.__new__(cls)
        op.__dict__.update(diagonal=e, dim=e.shape[0])
        return op

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def matrix(self) -> np.ndarray:
        m = np.diag(self.diagonal)
        m.setflags(write=False)
        return m

    @cached_property
    def diagonal(self) -> np.ndarray | None:
        m = self.matrix
        if np.count_nonzero(m) != np.count_nonzero(np.diagonal(m)):
            return None
        return np.diagonal(m)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state; Euclidean norm must be 1 within 1e-12."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(amps)):
            raise InvariantViolation("state amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvariantViolation(f"state norm {norm!r} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)
        self.amplitudes.setflags(write=False)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build a StateVector from an unnormalized amplitude vector."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm == 0.0 or not np.isfinite(norm):
            raise InvariantViolation("cannot normalize a zero or non-finite vector")
        return cls(amps / norm)

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        """The rank-1 projector |psi><psi| as a raw matrix."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.projector())


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed state: Hermitian, unit trace, positive semidefinite.

    ``eig_tol`` is the slack allowed on the minimum eigenvalue; the default
    -1e-10 suits freshly constructed states.  An infinite ``eig_tol`` skips
    the positivity check, for callers such as the propagation gate that
    judge ``min_eigenvalue`` against a gate of their own.

    ``matrix`` is a read-only copy that follows its data: float64 input
    stays float64 (a real symmetric state, such as every grid-model state,
    then takes half the bytes), and any other input is stored as
    complex128.  Every check runs in the stored dtype: finite entries,
    Hermiticity within HERMITICITY_TOL (an exact equality test first, so
    an exactly Hermitian matrix takes no ``abs``), unit trace and, unless
    ``eig_tol`` is infinite, positivity.

    ``min_eigenvalue`` is the smallest eigenvalue of the Hermitian part
    (rho + rho^dag)/2, computed once at construction and read-only; read it
    instead of diagonalising ``matrix`` again.  A real Hermitian part is
    diagonalised in real arithmetic (``_hermitian_eigvalsh``).
    """

    matrix: np.ndarray
    eig_tol: float = field(default=POSITIVITY_TOL, compare=False)
    min_eigenvalue: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix)
        if m.dtype != np.float64:
            m = m.astype(complex, copy=False)
        _checked_square(m)
        mh = m.conj().T  # m.T itself, no copy, when m is real
        # (m + m^H)/2 is m itself, bit for bit, when m equals m^H entry for
        # entry and holds no -0.0 (which the sum would turn into +0.0).
        if np.array_equal(m, mh):
            herm = m if not _has_negative_zero(m) else (m + mh) / 2
        else:
            herm_defect = np.abs(m - mh).max()
            if herm_defect > HERMITICITY_TOL:
                raise InvariantViolation(
                    f"density matrix is not Hermitian (defect {herm_defect:.3e})"
                )
            herm = (m + mh) / 2
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            # reported as a complex number whatever the dtype
            raise InvariantViolation(f"density matrix trace {np.complex128(tr)!r} is not 1")
        min_eig = float(_hermitian_eigvalsh(herm).min())
        if min_eig < -abs(self.eig_tol):
            raise InvariantViolation(
                f"density matrix has eigenvalue {min_eig:.3e} below -{abs(self.eig_tol):.1e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "min_eigenvalue", min_eig)

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        return cls(psi.projector())

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GridSpec:
    """A uniform one-dimensional position grid."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        # finite exactly when both bounds and the spacing are
        if not math.isfinite(self.x_max - self.x_min):
            raise InvariantViolation("grid requires finite bounds and spacing")
        if not self.x_min < self.x_max:
            raise InvariantViolation("grid requires x_min < x_max")
        if self.n_points < 8:
            raise InvariantViolation("grid requires at least 8 points")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)


DEFAULT_GRID = GridSpec(-5.0, 5.0, 128)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _density_array(rho) -> np.ndarray:
    """Accept a DensityMatrix or a raw matrix; validate the raw case."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return DensityMatrix(rho).matrix


def _state_array(psi) -> np.ndarray:
    if isinstance(psi, StateVector):
        return psi.amplitudes
    return StateVector(np.asarray(psi, dtype=complex).reshape(-1)).amplitudes


def _operator_array(op) -> np.ndarray:
    if isinstance(op, Operator):
        return op.matrix
    return _as_complex_matrix(op)


def purity(rho) -> float:
    """tr(rho^2); equals 1 exactly iff rho is a rank-1 projector.

    Lies in (0, 1] for any valid density matrix, with minimum 1/dim at the
    maximally mixed state.
    """
    # For Hermitian rho, tr(rho^2) = sum |rho_ij|^2, summed by numpy's
    # pairwise reduction: a BLAS dot's summation order follows the thread
    # count, and the printed purities must not.
    x = _float_parts(_density_array(rho))
    return float((x * x).sum())


def expectation(op, psi) -> complex:
    """<psi| op |psi>; real within 1e-12 when op is Hermitian."""
    a = _operator_array(op)
    v = _state_array(psi)
    if a.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"operator dim {a.shape[0]} vs state dim {v.shape[0]}")
    return complex(np.vdot(v, a @ v))


def variance(op, psi) -> float:
    """Var(op) = <op^2> - <op>^2 for a Hermitian operator; non-negative."""
    a = _operator_array(op)
    if np.abs(a - a.conj().T).max() > HERMITICITY_TOL:
        raise InvariantViolation("variance requires a Hermitian operator")
    v = _state_array(psi)
    if a.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"operator dim {a.shape[0]} vs state dim {v.shape[0]}")
    av = a @ v
    mean = np.vdot(v, av).real
    second = np.vdot(av, av).real  # <psi|a^2|psi> for Hermitian a
    return float(second - mean * mean)


def pauli_operators() -> tuple[Operator, Operator, Operator, Operator, Operator]:
    """The qubit operators (sigma_x, sigma_y, sigma_z, sigma_+, sigma_-).

    Basis ordering is (|+>, |->) with sigma_z = diag(+1, -1), so
    sigma_- = |-><+| lowers and [sigma_+, sigma_-] = sigma_z.
    """
    sx = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
    sy = Operator(np.array([[0, -1j], [1j, 0]], dtype=complex))
    sz = Operator(np.array([[1, 0], [0, -1]], dtype=complex))
    sp = Operator(np.array([[0, 1], [0, 0]], dtype=complex))
    sm = Operator(np.array([[0, 0], [1, 0]], dtype=complex))
    return sx, sy, sz, sp, sm


def fock_operators(dim: int) -> tuple[Operator, Operator, Operator]:
    """Truncated bosonic ladder operators (a, a_dagger, N) on dim levels.

    The canonical commutator [a, a_dagger] equals the identity on the lowest
    dim-1 levels; the truncation shows up only in the top diagonal entry,
    which equals -(dim-1) instead of +1.
    """
    if dim < 2:
        raise InvariantViolation("fock_operators requires dim >= 2")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    a_dag = a.conj().T
    n_op = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return Operator(a), Operator(a_dag), Operator(n_op)


def coherent_state(alpha: complex, dim: int = DEFAULT_FOCK_DIM) -> StateVector:
    """Truncated coherent state with amplitudes ~ alpha^n / sqrt(n!).

    Guards against truncation leakage.  Under the untruncated state's
    Poisson(|alpha|^2) occupation law, the weight of the top level and the
    weight beyond the cutoff, P(n >= dim), must both stay below
    COHERENT_LEAKAGE_TOL; otherwise the requested dimension cannot
    faithfully host the state and TruncationInsufficient is raised.  The
    weights are evaluated in log space, so every finite alpha is either
    accepted or refused with TruncationInsufficient, never overflows.
    """
    if dim < 2:
        raise InvariantViolation("coherent_state requires dim >= 2")
    alpha = complex(alpha)
    if alpha == 0:
        return StateVector.basis(dim, 0)
    try:
        log_abs = math.log(abs(alpha))
    except OverflowError:
        raise TruncationInsufficient(f"|alpha| overflows; no dim can host alpha={alpha}") from None
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    log_mod = n * log_abs - 0.5 * log_fact
    # log Poisson weights e^{-|a|^2} |a|^{2n} / n! of the kept levels;
    # |a|^2 may be inf, which makes every weight 0 and the tail 1.
    log_weights = 2 * log_mod - abs(alpha) * abs(alpha)
    if log_weights[-1] > math.log(COHERENT_LEAKAGE_TOL):
        raise TruncationInsufficient(
            f"top-level population exp({log_weights[-1]:.2f}) exceeds "
            f"{COHERENT_LEAKAGE_TOL:.0e}; increase dim for alpha={alpha}"
        )
    tail = -math.expm1(np.logaddexp.reduce(log_weights))
    if tail > COHERENT_LEAKAGE_TOL:
        raise TruncationInsufficient(
            f"population {tail:.3e} beyond the cutoff exceeds "
            f"{COHERENT_LEAKAGE_TOL:.0e}; increase dim for alpha={alpha}"
        )
    phases = np.exp(1j * n * np.angle(alpha))
    amps = np.exp(log_mod - log_mod.max()) * phases
    return StateVector.normalized(amps)


def position_operator(grid: GridSpec) -> Operator:
    """Diagonal position operator carrying the grid abscissae, stored as its
    diagonal."""
    return Operator.from_diagonal(grid.points)
