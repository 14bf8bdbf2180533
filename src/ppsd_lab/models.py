"""Catalog of Markovian open-system models and their closed-form analysis.

Thirteen named models cover the standard decoherence, damping, and
localization master equations at desk scale: dephasing and thermally damped
qubits, position decoherence on a grid, damped / phase-damped / driven
oscillators on truncated Fock spaces, a three-level atom, the depolarizing
channel, decay into a squeezed vacuum, a number-coupled measurement model,
and the GRW / CSL spontaneous-localization generators.

Besides the constructors, this module carries the closed-form solutions and
feasibility analyses that make the models checkable without integration:
entrywise decay laws for the diagonal models, the root structure of the
thermally damped qubit's purity-preservation condition, the three-level
feasibility scan, the squeezed-decay Bloch solution and its unique (up to a
sign of the jump-operator eigenvalue) zero-residual states, the driven
oscillator's additive residual lower bound, and simultaneous eigenbases for
models whose jump operators are all Hermitian.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    QuadratureInsufficient,
)
from .hilbert import (
    DEFAULT_FOCK_DIM,
    DEFAULT_GRID,
    DensityMatrix,
    GridSpec,
    Operator,
    StateVector,
    fock_operators,
    pauli_operators,
    position_operator,
)
from .lindblad import (
    LindbladModel,
    LindbladTerm,
    liouvillian_norm,
    stationarity_defect,
)
from .ppsd import ppsd_residual


@dataclass(frozen=True)
class ThermalParams:
    """Thermal damping parameters: base rate and mean occupation."""

    gamma0: float
    N: float

    def __post_init__(self):
        if self.gamma0 <= 0:
            raise InvariantViolation("gamma0 must be > 0")
        if self.N < 0:
            raise InvariantViolation("occupation N must be >= 0")


@dataclass(frozen=True)
class ModelSpec:
    """A catalog model name plus its parameters and dimension/grid choice.

    ``params`` may omit entries, which then take the documented defaults;
    unknown parameter names are rejected.  ``dim_or_grid`` overrides the
    model's default Hilbert-space size (an integer) or grid (a GridSpec).
    """

    name: str
    params: dict = field(default_factory=dict)
    dim_or_grid: int | GridSpec | None = None

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise InvariantViolation(
                f"unknown model {self.name!r}; known: {', '.join(MODEL_NAMES)}"
            )
        object.__setattr__(self, "params", dict(self.params))


# ---------------------------------------------------------------------------
# parameter metadata (consumed by the CLI's list-models)
# ---------------------------------------------------------------------------

#: name -> (defaults dict, default dim description, one-line physics note)
CATALOG_INFO: dict[str, tuple[dict, str, str]] = {
    "dephasing_qubit": (
        {"gamma": 1.0},
        "2",
        "qubit monitored in the sigma_z basis; off-diagonals decay at 2*gamma "
        "[gamma: rate]",
    ),
    "position_decoherence": (
        {"gamma": 1.0},
        "grid (default 128 points on [-5, 5])",
        "continuous position monitoring; rho(x,x') decays as "
        "exp(-gamma*t*(x-x')^2) [gamma: rate/length^2]",
    ),
    "thermal_qubit": (
        {"gamma0": 1.0, "N": 0.0},
        "2",
        "two-level system damped by a thermal bath; absorption rate gamma0*N, "
        "emission gamma0*(N+1) [gamma0: rate, N: occupation]",
    ),
    "damped_oscillator": (
        {"gamma0": 1.0, "N": 0.0, "omega": 0.0, "dim": DEFAULT_FOCK_DIM},
        str(DEFAULT_FOCK_DIM),
        "bosonic mode damped by a thermal bath; optional Hamiltonian "
        "omega*adag*a [gamma0: rate, N: occupation, omega: frequency]",
    ),
    "three_level_atom": (
        {"gamma1": 1.0, "gamma2": 0.01, "N1": 0.4, "N2": 0.0004},
        "3",
        "ladder-type three-level atom with dipole transitions 1<->3 and "
        "2<->3 only [gamma_i: rates, N_i: occupations]",
    ),
    "multimode": (
        {"n_modes": 2, "mode_dim": 4},
        "mode_dim ** n_modes",
        "uncoupled bosonic normal modes, each thermally damped "
        "[gamma_i: rate, N_i: occupation per mode i=1..n_modes]",
    ),
    "phase_damped_oscillator": (
        {"omega0": 1.0, "gamma": 1.0, "dim": 10},
        "10",
        "oscillator with number operator coupled to the bath: pure phase "
        "damping, Fock populations frozen [omega0: frequency, gamma: rate]",
    ),
    "depolarizing": (
        {"gamma_x": 1.0, "gamma_y": 1.0, "gamma_z": 1.0},
        "2",
        "generalized one-qubit depolarizing channel with one rate per Pauli "
        "axis; unital [gamma_x/y/z: rates]",
    ),
    "squeezed_vacuum_decay": (
        {"gamma0": 1.0, "r": 0.2, "theta": math.pi},
        "2",
        "two-level atom decaying into a squeezed vacuum; single jump operator "
        "cosh(r)*sigma_minus + exp(i*theta)*sinh(r)*sigma_plus "
        "[gamma0: rate, r: squeeze magnitude, theta: squeeze phase]",
    ),
    "nonadiabatic_driven": (
        {
            "m": 1.0,
            "omega0": 1.0,
            "kappa": 1.0,
            "mu": 0.3,
            "xi_sq": 1.0,
            "gamma_t": 1.0,
            "alpha_kT": 0.5,
            "dim": 24,
        },
        "24",
        "externally driven damped oscillator at one frozen instant; ladder "
        "pair F_plus/F_minus built from x and p [m, omega0, kappa, mu: "
        "mechanical parameters; xi_sq, gamma_t: drive/damping snapshot; "
        "alpha_kT: thermal exponent alpha/k_B T]",
    ),
    "walls_collet_milburn": (
        {"epsilon": 1.0, "gamma": 1.0, "dim": 10},
        "10",
        "photon-number measurement model: single Hermitian jump operator N "
        "with rate epsilon^2/gamma [epsilon: coupling, gamma: meter decay]",
    ),
    "grw": (
        {"lam": 1.0, "alpha": 1.0},
        "grid (default 128 points on [-5, 5])",
        "spontaneous-localization master equation; Gaussian localization "
        "operators quadrature-discretized over the grid [lam: localization "
        "rate, alpha: inverse localization area]",
    ),
    "csl": (
        {"lam": 1.0},
        "16 (2 sites x 2 modes, occupation <= 1)",
        "continuous spontaneous localization at desk scale: commuting "
        "number operators on a small product Fock space [lam: rate]",
    ),
}


MODEL_NAMES = tuple(CATALOG_INFO)


def _resolve_params(name: str, params: dict) -> dict:
    """The model's defaults overlaid with ``params``, checked once.

    Every value must be finite and the sizes dim, n_modes and mode_dim
    whole numbers (returned as ints); unknown names are refused.  The
    errors name the parameter.
    """
    defaults, _, _ = CATALOG_INFO[name]
    merged = {**defaults, **params}
    for key, value in merged.items():
        whole = key in ("dim", "n_modes", "mode_dim")
        if not math.isfinite(value) or (whole and value != int(value)):
            kind = "a finite whole number" if whole else "finite"
            raise InvariantViolation(f"parameter {key} must be {kind}, got {value}")
        if whole:
            merged[key] = int(value)
    allowed = set(defaults)
    if name == "multimode":
        if not 1 <= merged["n_modes"] <= 3:
            raise InvariantViolation("multimode supports 1 to 3 modes")
        for i in range(1, merged["n_modes"] + 1):
            merged.setdefault(f"gamma_{i}", 1.0)
            merged.setdefault(f"N_{i}", 0.0)
            allowed |= {f"gamma_{i}", f"N_{i}"}
    unknown = set(merged) - allowed
    if unknown:
        raise InvariantViolation(f"unknown params for {name}: {sorted(unknown)}")
    return merged


def _embed(op: np.ndarray, mode: int, dims: list[int]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for k, dk in enumerate(dims):
        out = np.kron(out, op if k == mode else np.eye(dk, dtype=complex))
    return out


def _grw_localization_terms(grid: GridSpec, lam: float, alpha: float):
    """Quadrature discretization of the continuous Gaussian jump family.

    One operator exp(-alpha (x - s)^2 / 2) per grid point s, stored as its
    diagonal, with trapezoid weight lam * sqrt(alpha/pi) * ds folded into
    the rate.  Completeness (sum of weighted squared operators close to
    lam) is verified on the central quarter of the grid; failure means the
    grid cannot resolve the requested localization width.
    """
    x = grid.points
    ds = grid.spacing
    weight = lam * math.sqrt(alpha / math.pi) * ds
    terms = []
    total_sq = np.zeros_like(x)
    for s in x:
        diag = np.exp(-alpha * (x - s) ** 2 / 2.0)
        terms.append(LindbladTerm(weight, Operator.from_diagonal(diag)))
        total_sq += weight * diag**2
    n = grid.n_points
    central = slice(3 * n // 8, 5 * n // 8 + 1)
    defect = float(np.abs(total_sq[central] / lam - 1.0).max())
    if defect > 1e-6:
        raise QuadratureInsufficient(
            f"localization quadrature defect {defect:.3e} on the central "
            f"quarter; refine the grid or reduce alpha"
        )
    return terms


def catalog_model(spec: ModelSpec) -> LindbladModel:
    """Instantiate a catalog model from its spec.

    The model's label is its catalog name.  Its Hamiltonian is zero (models
    are stated in the frame co-rotating with the free evolution) unless the
    model's branch sets one: the phase-damped oscillator retains
    omega0 * N and the damped oscillator optionally omega * adag a.  Each
    model declares its basis in ``basis``: "qubit" for the four two-level
    models (excited first, ground second), its GridSpec for the two grid
    models, and the default "levels" (lowest level first) for the Fock,
    atomic and occupation models.  ``basis_note`` describes the ordering
    in words.  A dimension (``dim``, ``--dim`` or multimode's
    ``mode_dim**n_modes``) whose density matrix numpy cannot address
    raises MemoryError naming the parameter, before anything is allocated.
    """
    name = spec.name
    p = _resolve_params(name, spec.params)
    sx, sy, sz, sp, sm = pauli_operators()
    h, basis = None, "levels"

    def fixed_dim(dim: int) -> int:
        if spec.dim_or_grid not in (None, dim):
            raise DimensionMismatch(f"{name} has dim {dim}, got {spec.dim_or_grid}")
        return dim

    def addressable(dim: int, key: str) -> int:
        # numpy addresses at most sys.maxsize bytes: refuse before allocating
        if 16 * dim * dim > sys.maxsize:
            raise MemoryError(
                f"parameter {key} is too large: the density matrix would need more "
                f"than {sys.maxsize} bytes, the most numpy can address"
            )
        return dim

    def fock_dim() -> int:
        if isinstance(spec.dim_or_grid, GridSpec):
            raise DimensionMismatch(f"{name} takes a dimension, not a grid")
        dim = p["dim"] if spec.dim_or_grid is None else int(spec.dim_or_grid)
        return addressable(dim, "dim")

    def grid_spec() -> GridSpec:
        if spec.dim_or_grid is None:
            return DEFAULT_GRID
        if not isinstance(spec.dim_or_grid, GridSpec):
            raise DimensionMismatch(f"{name} takes a grid, not a dimension")
        return spec.dim_or_grid

    if name == "dephasing_qubit":
        dim, basis = fixed_dim(2), "qubit"
        terms = [LindbladTerm(_require_rate(p["gamma"], "gamma"), sz)]
        note = "basis (|1>, |0>): Z = diag(+1, -1); generator gamma (Z rho Z - rho)"

    elif name == "position_decoherence":
        grid = basis = grid_spec()
        dim = grid.n_points
        gamma = _require_rate(p["gamma"], "gamma")
        # Rate 2*gamma with jump operator x gives the entrywise decay
        # exp(-gamma t (x - x')^2), the convention of position_closed_form.
        terms = [LindbladTerm(2.0 * gamma, position_operator(grid))]
        note = (
            f"position grid [{grid.x_min}, {grid.x_max}] with {dim} points; "
            "off-diagonals decay as exp(-gamma t (x-x')^2)"
        )

    elif name == "thermal_qubit":
        dim, basis = fixed_dim(2), "qubit"
        tp = ThermalParams(p["gamma0"], p["N"])
        terms = []
        if tp.N > 0:
            terms.append(LindbladTerm(tp.gamma0 * tp.N, sp))
        terms.append(LindbladTerm(tp.gamma0 * (tp.N + 1.0), sm))
        note = "basis (|+>, |->): excited first, ground second; sigma_minus = |-><+|"

    elif name == "damped_oscillator":
        dim = fock_dim()
        tp = ThermalParams(p["gamma0"], p["N"])
        a, a_dag, n_op = fock_operators(dim)
        terms = [LindbladTerm(tp.gamma0 * (tp.N + 1.0), a)]
        if tp.N > 0:
            terms.append(LindbladTerm(tp.gamma0 * tp.N, a_dag))
        h = Operator(p["omega"] * n_op.matrix)
        note = f"Fock basis |0>..|{dim - 1}>"

    elif name == "three_level_atom":
        dim = fixed_dim(3)
        g1 = _require_rate(p["gamma1"], "gamma1")
        g2 = _require_rate(p["gamma2"], "gamma2")
        n1 = _require_rate(p["N1"], "N1")
        n2 = _require_rate(p["N2"], "N2")

        def sig(i, j):
            m = np.zeros((3, 3), dtype=complex)
            m[i - 1, j - 1] = 1.0
            return Operator(m)

        terms = [
            LindbladTerm(g1 * (n1 + 1.0), sig(1, 3)),
            LindbladTerm(g1 * n1, sig(3, 1)),
            LindbladTerm(g2 * (n2 + 1.0), sig(2, 3)),
            LindbladTerm(g2 * n2, sig(3, 2)),
        ]
        terms = [t for t in terms if t.rate > 0]
        note = "basis (|1>, |2>, |3>) ascending in energy; sigma_ij = |i><j|"

    elif name == "multimode":
        n_modes, mode_dim = p["n_modes"], p["mode_dim"]
        dims = [mode_dim] * n_modes
        dim = fixed_dim(addressable(mode_dim**n_modes, "mode_dim"))
        a1, _, _ = fock_operators(mode_dim)
        terms = []
        for i in range(n_modes):
            tp = ThermalParams(p[f"gamma_{i + 1}"], p[f"N_{i + 1}"])
            ai = _embed(a1.matrix, i, dims)
            terms.append(LindbladTerm(tp.gamma0 * (tp.N + 1.0), Operator(ai)))
            if tp.N > 0:
                terms.append(LindbladTerm(tp.gamma0 * tp.N, Operator(ai.conj().T)))
        note = f"product Fock basis of {n_modes} modes, {mode_dim} levels each"

    elif name == "phase_damped_oscillator":
        dim = fock_dim()
        gamma = _require_rate(p["gamma"], "gamma")
        _, _, n_op = fock_operators(dim)
        h = Operator(p["omega0"] * n_op.matrix)
        terms = [LindbladTerm(gamma, n_op)]
        note = f"Fock basis |0>..|{dim - 1}>; H = omega0 * N kept"

    elif name == "depolarizing":
        dim, basis = fixed_dim(2), "qubit"
        terms = []
        for key, op in (("gamma_x", sx), ("gamma_y", sy), ("gamma_z", sz)):
            rate = _require_rate(p[key], key)
            if rate > 0:
                terms.append(LindbladTerm(rate, op))
        note = "basis (|+>, |->); generator sum_i gamma_i (sigma_i rho sigma_i - rho)"

    elif name == "squeezed_vacuum_decay":
        dim, basis = fixed_dim(2), "qubit"
        gamma0 = _require_rate(p["gamma0"], "gamma0")
        r, theta = float(p["r"]), float(p["theta"])
        if r < 0:
            raise InvariantViolation("squeeze magnitude r must be >= 0")
        try:
            cosh_r, sinh_r = math.cosh(r), math.sinh(r)
        except OverflowError:
            raise InvariantViolation(f"parameter r={r:g} overflows cosh(r)") from None
        C = cosh_r * sm.matrix + np.exp(1j * theta) * sinh_r * sp.matrix
        terms = [LindbladTerm(gamma0, Operator(C))]
        note = (
            "basis (|e>, |g>): excited first, ground second; "
            "jump operator cosh(r) sigma_minus + exp(i theta) sinh(r) sigma_plus"
        )

    elif name == "nonadiabatic_driven":
        dim = fock_dim()
        f_plus, f_minus = nonadiabatic_operators(
            p["m"], p["omega0"], p["kappa"], p["mu"], dim
        )
        xi_sq = _require_rate(p["xi_sq"], "xi_sq")
        gamma_t = _require_rate(p["gamma_t"], "gamma_t")
        alpha_kT = _require_rate(p["alpha_kT"], "alpha_kT")
        base = xi_sq * gamma_t
        terms = [
            LindbladTerm(base, f_plus),
            LindbladTerm(base * math.exp(-alpha_kT), f_minus),
        ]
        note = (
            f"Fock basis |0>..|{dim - 1}>; frozen-time snapshot "
            "of a driven damped oscillator"
        )

    elif name == "walls_collet_milburn":
        dim = fock_dim()
        epsilon = float(p["epsilon"])
        gamma = float(p["gamma"])
        if gamma <= 0:
            raise InvariantViolation("meter decay gamma must be > 0")
        try:
            rate = epsilon**2 / gamma
        except OverflowError:
            raise InvariantViolation(f"parameter epsilon={epsilon:g} overflows epsilon^2") from None
        _, _, n_op = fock_operators(dim)
        terms = [LindbladTerm(rate, n_op)]
        note = f"Fock basis |0>..|{dim - 1}>; Hermitian jump operator N = adag a"

    elif name == "grw":
        grid = basis = grid_spec()
        dim = grid.n_points
        lam = _require_rate(p["lam"], "lam")
        alpha = float(p["alpha"])
        if alpha <= 0:
            raise InvariantViolation("alpha must be > 0")
        terms = _grw_localization_terms(grid, lam, alpha)
        note = (
            f"position grid [{grid.x_min}, {grid.x_max}] with {dim} points; "
            "Gaussian localization operators on the same grid"
        )

    elif name == "csl":
        dim = fixed_dim(16)
        lam = _require_rate(p["lam"], "lam")
        n_single = np.diag([0.0, 1.0]).astype(complex)
        dims = [2, 2, 2, 2]  # 2 sites x 2 modes, occupation 0/1 each
        terms = [
            LindbladTerm(lam, Operator(_embed(n_single, mode, dims)))
            for mode in range(4)
        ]
        note = "product occupation basis |n1 n2 n3 n4>, n_i in {0,1}; 2 sites x 2 modes"

    else:  # pragma: no cover
        raise InvariantViolation(f"unknown model {name!r}")

    return LindbladModel(
        hamiltonian=Operator(np.zeros((dim, dim))) if h is None else h,
        terms=tuple(terms),
        dim=dim,
        label=name,
        basis_note=note,
        basis=basis,
    )


def _require_rate(value, name: str) -> float:
    value = float(value)
    if value < 0:
        raise InvariantViolation(f"{name} must be >= 0, got {value}")
    return value


# ---------------------------------------------------------------------------
# closed forms of the diagonal models
# ---------------------------------------------------------------------------


def dephasing_closed_form(rho0, gamma: float, t: float) -> DensityMatrix:
    """Dephasing qubit solution: diagonals frozen, off-diagonals x e^(-2 gamma t)."""
    rho0 = rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)
    if rho0.dim != 2:
        raise DimensionMismatch("dephasing closed form is a qubit result")
    decay = math.exp(-2.0 * gamma * t)
    out = rho0.matrix.copy()
    out[0, 1] *= decay
    out[1, 0] *= decay
    return DensityMatrix(out)


def position_closed_form(rho0, grid: GridSpec, gamma: float, t: float) -> DensityMatrix:
    """Position-decoherence solution: entry (i, j) x exp(-gamma t (x_i - x_j)^2)."""
    rho0 = rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)
    x = grid.points
    if rho0.dim != grid.n_points:
        raise DimensionMismatch("state dimension does not match the grid")
    factor = np.exp(-gamma * t * np.subtract.outer(x, x) ** 2)
    return DensityMatrix(rho0.matrix * factor)


def grw_closed_form(rho0, grid: GridSpec, lam: float, alpha: float, t: float) -> DensityMatrix:
    """Localization solution: entry (i, j) x exp[lam t (e^(-alpha (xi-xj)^2/4) - 1)].

    Follows from carrying out the Gaussian integral over the localization
    centers: the continuum of jump operators acts entrywise in the position
    basis with kernel exp(-alpha (x - x')^2 / 4).
    """
    rho0 = rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)
    x = grid.points
    if rho0.dim != grid.n_points:
        raise DimensionMismatch("state dimension does not match the grid")
    kernel = np.exp(-alpha * np.subtract.outer(x, x) ** 2 / 4.0)
    factor = np.exp(lam * t * (kernel - 1.0))
    return DensityMatrix(rho0.matrix * factor)


# ---------------------------------------------------------------------------
# thermally damped qubit: root structure of the residual
# ---------------------------------------------------------------------------


def thermal_qubit_ppsd_roots(N: float) -> list[float]:
    """Real roots in [0, 1] of (2N+1) p^2 - 2N p + N = 0.

    This quadratic in the excited-state population p is the zero-residual
    condition of the thermally damped qubit.  Its discriminant is
    4(-N^2 - N): negative for every N > 0, so the set of roots is {0} at
    N = 0 and empty otherwise.
    """
    if N < 0:
        raise InvariantViolation("occupation N must be >= 0")
    a, b, c = 2.0 * N + 1.0, -2.0 * N, N
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    roots = sorted({(-b - math.sqrt(disc)) / (2 * a), (-b + math.sqrt(disc)) / (2 * a)})
    return [r for r in roots if -1e-15 <= r <= 1.0 + 1e-15]


# ---------------------------------------------------------------------------
# three-level atom feasibility
# ---------------------------------------------------------------------------


def three_level_ppsd_condition(
    p1: float, p2: float, p3: float,
    gamma1: float, gamma2: float, N1: float, N2: float,
) -> float:
    """Zero-residual polynomial of the three-level atom at populations p_i.

    Value of gamma1 (N1+1)(p3 - p1 p3) + gamma1 N1 (p1 - p1 p3)
           + gamma2 (N2+1)(p3 - p2 p3) + gamma2 N2 (p2 - p2 p3);
    zero marks a candidate state.  Requires (p1, p2, p3) on the probability
    simplex.
    """
    if min(p1, p2, p3) < -1e-12 or abs(p1 + p2 + p3 - 1.0) > 1e-10:
        raise InvariantViolation("(p1, p2, p3) must lie on the probability simplex")
    return _three_level_polynomial(p1, p2, p3, gamma1, gamma2, N1, N2)


def _three_level_polynomial(p1, p2, p3, gamma1, gamma2, N1, N2) -> float:
    return (
        gamma1 * (N1 + 1.0) * (p3 - p1 * p3)
        + gamma1 * N1 * (p1 - p1 * p3)
        + gamma2 * (N2 + 1.0) * (p3 - p2 * p3)
        + gamma2 * N2 * (p2 - p2 * p3)
    )


@dataclass(frozen=True)
class FeasibilityPoint:
    """One p2 grid point of the three-level scan: real p1 roots and p1+p2."""

    p2: float
    p1_roots: tuple[float, ...]
    p1_plus_p2: tuple[float, ...]


def three_level_feasibility_scan(
    gamma1: float, gamma2: float, N1: float, N2: float, p2_grid,
) -> list[FeasibilityPoint]:
    """Solve the zero-residual polynomial for p1 along a grid of p2 values.

    p3 is eliminated via p3 = 1 - p1 - p2, turning the condition into a
    quadratic in p1; each grid point reports the real roots (both branches)
    and the corresponding p1 + p2.  Grid points whose discriminant is
    negative are infeasible and reported with empty root tuples.  Roots are
    not restricted to the simplex: p1 + p2 > 1 (i.e. p3 < 0) is precisely
    the unphysical signature this scan exposes.
    """
    out = []
    for p2 in np.asarray(p2_grid, dtype=float).reshape(-1):
        # coefficients of a p1^2 + b p1 + c after substituting p3 = 1-p1-p2
        a = gamma1 * (2.0 * N1 + 1.0)
        b = (
            -gamma1 * (N1 + 1.0) * (2.0 - p2)
            + gamma1 * N1 * p2
            - gamma2 * (N2 + 1.0) * (1.0 - p2)
            + gamma2 * N2 * p2
        )
        c = (
            gamma1 * (N1 + 1.0) * (1.0 - p2)
            + gamma2 * (N2 + 1.0) * (1.0 - p2) ** 2
            + gamma2 * N2 * p2**2
        )
        disc = b * b - 4.0 * a * c
        if disc < 0 or a == 0:
            out.append(FeasibilityPoint(float(p2), (), ()))
            continue
        sq = math.sqrt(disc)
        roots = tuple(sorted(((-b - sq) / (2 * a), (-b + sq) / (2 * a))))
        out.append(
            FeasibilityPoint(float(p2), roots, tuple(r + p2 for r in roots))
        )
    return out


# ---------------------------------------------------------------------------
# squeezed-vacuum decay: zero-residual states and Bloch solution
# ---------------------------------------------------------------------------


def squeezed_ppsd_state(r: float, theta: float) -> StateVector:
    """The zero-residual state of the squeezed-decay model (plus branch).

    Zero residual for a single jump operator C means psi is an eigenvector
    of C.  Here C = cosh(r) sigma_minus + e^{i theta} sinh(r) sigma_plus has
    the two eigenvalues +/- e^{i theta/2} sqrt(sinh(2r)/2); both eigenvectors
    share the excited-state population

        p_e = (1 + coth r)^(-1),

    and differ only by the sign of the relative phase.  This returns the
    +eigenvalue branch, psi = e^{i theta/2} sqrt(p_e) |e> + sqrt(1-p_e) |g>
    in the catalog's (|e>, |g>) ordering; the partner state is obtained by
    theta -> theta + 2 pi.  As r -> 0 the state tends to the ground state,
    matching the plain amplitude-damping limit.
    """
    if r <= 0:
        raise InvariantViolation("squeeze magnitude r must be > 0")
    p_e = 1.0 / (1.0 + 1.0 / math.tanh(r))
    amps = np.array(
        [np.exp(1j * theta / 2.0) * math.sqrt(p_e), math.sqrt(1.0 - p_e)],
        dtype=complex,
    )
    return StateVector(amps)


def _squeezed_bloch_propagate(n0, gamma: float, r: float, theta: float, t: float):
    """Exact Bloch-vector solution of the squeezed-decay master equation.

    Transverse components mix through the reflection
    R(theta) = [[cos th, -sin th], [-sin th, -cos th]] (quadratures at angle
    theta/2 decay at rate gamma e^{-2r}/2, the orthogonal ones at
    gamma e^{2r}/2); n_z relaxes at rate gamma cosh(2r) toward
    -1/cosh(2r).
    """
    n0 = np.asarray(n0, dtype=float).reshape(3)
    c2, s2 = math.cosh(2.0 * r), math.sinh(2.0 * r)
    refl = np.array(
        [
            [math.cos(theta), -math.sin(theta)],
            [-math.sin(theta), -math.cos(theta)],
        ]
    )
    half = 0.5 * gamma * t
    mix = math.exp(-half * c2) * (
        math.cosh(half * s2) * np.eye(2) + math.sinh(half * s2) * refl
    )
    nxy = mix @ n0[:2]
    nz_inf = -1.0 / c2
    nz = nz_inf + (n0[2] - nz_inf) * math.exp(-gamma * c2 * t)
    return float(nxy[0]), float(nxy[1]), float(nz)


def squeezed_bloch_solution(
    n0, gamma: float, r: float, delta: float, t: float
) -> tuple[float, float, float]:
    """Bloch vector at time t for the squeezed-decay model, squeeze phase
    theta = -2 delta.

    ``delta`` is the relative phase of the initial state's excited amplitude;
    the identification theta = -2 delta makes that state the zero-residual
    candidate of the model being propagated.  At r = 0 this reduces to plain
    amplitude damping.
    """
    n0 = np.asarray(n0, dtype=float).reshape(3)
    if np.linalg.norm(n0) > 1.0 + 1e-9:
        raise InvariantViolation("initial Bloch vector must lie in the unit ball")
    return _squeezed_bloch_propagate(n0, gamma, r, -2.0 * delta, t)


def fig3_initial_bloch(p_e: float, delta: float) -> np.ndarray:
    """Initial pure-state Bloch vector from excited population and phase.

    n = (2 sqrt(p_e (1-p_e)) cos delta, -2 sqrt(p_e (1-p_e)) sin delta,
         2 p_e - 1); unit norm for any p_e in [0, 1].
    """
    if not 0.0 <= p_e <= 1.0:
        raise InvariantViolation("p_e must lie in [0, 1]")
    c = 2.0 * math.sqrt(p_e * (1.0 - p_e))
    return np.array([c * math.cos(delta), -c * math.sin(delta), 2.0 * p_e - 1.0])


def fig3_purity_curve(
    gamma0: float, r: float, theta: float, delta: float, times, p_e: float | None = None
) -> list[tuple[float, float]]:
    """Bloch-norm-squared curve P(t) = |n(t)|^2 for the squeezed-decay model.

    The initial state is the pure state with excited population ``p_e``
    (defaulting to the zero-residual value (1 + coth r)^(-1), or the ground
    state at r = 0) and phase ``delta``.  P equals 1 exactly for pure states
    and relates to purity by tr(rho^2) = (1 + P)/2.
    """
    if p_e is None:
        p_e = 1.0 / (1.0 + 1.0 / math.tanh(r)) if r > 0 else 0.0
    n0 = fig3_initial_bloch(p_e, delta)
    out = []
    for t in np.asarray(times, dtype=float).reshape(-1):
        nx, ny, nz = _squeezed_bloch_propagate(n0, gamma0, r, theta, float(t))
        out.append((float(t), nx * nx + ny * ny + nz * nz))
    return out


# ---------------------------------------------------------------------------
# driven damped oscillator: additive residual bound
# ---------------------------------------------------------------------------


def nonadiabatic_operators(
    m: float, omega0: float, kappa: float, mu: float, dim: int
) -> tuple[Operator, Operator]:
    """The ladder pair F_plus = A x + B p, F_minus = F_plus^dag.

    A = (1 + i mu/kappa)/2 and B = i/(m omega0 kappa), with x and p the
    dimensionless quadratures of a truncated Fock space; the commutator
    [F_plus, F_minus] equals 1/(m omega0 kappa) on the untruncated levels.
    """
    if min(m, omega0, kappa) <= 0:
        raise InvariantViolation("m, omega0, kappa must be positive")
    a, a_dag, _ = fock_operators(dim)
    x = (a.matrix + a_dag.matrix) / math.sqrt(2.0)
    p_op = 1j * (a_dag.matrix - a.matrix) / math.sqrt(2.0)
    A = (1.0 + 1j * mu / kappa) / 2.0
    B = 1j / (m * omega0 * kappa)
    f_plus = A * x + B * p_op
    return Operator(f_plus), Operator(f_plus.conj().T)


def nonadiabatic_residual_bound(params: dict, psi) -> tuple[float, float]:
    """(residual, additive lower bound) for the driven-oscillator snapshot.

    The residual splits into a Cauchy-Schwarz-non-negative part plus the
    commutator term, giving for every unit state

        residual >= xi_sq * gamma_t * exp(-alpha_kT) / (m omega0 kappa).

    Violations beyond 1e-9 (impossible away from truncation artifacts)
    raise InvariantViolation.
    """
    residuals, bound = _nonadiabatic_residual_bounds(params, [psi])
    return residuals[0], bound


def _nonadiabatic_residual_bounds(params: dict, states) -> tuple[list[float], float]:
    """Residuals of many states and their common bound, from one model build.

    The checks and the error are those of nonadiabatic_residual_bound,
    applied to each state in order.
    """
    model = catalog_model(ModelSpec("nonadiabatic_driven", params))
    p = _resolve_params("nonadiabatic_driven", params)
    bound = (
        p["xi_sq"]
        * p["gamma_t"]
        * math.exp(-p["alpha_kT"])
        / (p["m"] * p["omega0"] * p["kappa"])
    )
    residuals = []
    for psi in states:
        residual = ppsd_residual(model, psi)
        if residual < bound - 1e-9:
            raise InvariantViolation(
                f"residual {residual:.3e} fell below its additive bound {bound:.3e}"
            )
        residuals.append(residual)
    return residuals, bound


# ---------------------------------------------------------------------------
# Hermitian jump families: simultaneous eigenbasis
# ---------------------------------------------------------------------------


def hermitian_lindblad_fixed_points(model: LindbladModel) -> list[StateVector]:
    """Common eigenbasis of an all-Hermitian, mutually commuting jump family.

    For Hermitian jump operators the residual equals the rate-weighted sum of
    variances, so zero-residual states are exactly the simultaneous
    eigenvectors.  The basis is found by diagonalizing a generic fixed-seed
    combination of the family and verified eigenvector by eigenvector
    against every operator at once (a family with no common eigenbasis
    fails the check on every attempt), and each returned state is verified
    stationary under the full generator.

    Raises InvariantViolation when a non-Hermitian jump operator is present;
    returns an empty list (with a warning) when the family does not commute.
    """
    rates, ops = model._jumps
    if not rates.size:
        return []
    if np.abs(ops - ops.conj().transpose(0, 2, 1)).max() > 1e-12:
        raise InvariantViolation("jump family contains a non-Hermitian operator")
    scales = np.maximum(np.abs(ops).max(axis=(1, 2)), 1e-300)
    d = model.dim
    gen_norm = liouvillian_norm(model)
    for attempt in range(5):
        rng = np.random.default_rng(12345 + attempt)
        coeffs = rng.standard_normal(rates.size)
        combo = np.tensordot(coeffs / scales, ops, axes=1)
        _, vecs = np.linalg.eigh(combo)
        # column j of Lv[i] is L_i v_j; means[i, j] = <v_j, L_i v_j>
        Lv = ops @ vecs
        means = (vecs.conj() * Lv).sum(axis=1)
        spread = np.linalg.norm(Lv - vecs * means[:, None, :], axis=1)
        if np.all(spread <= 1e-8 * scales[:, None]):
            break
    else:
        warnings.warn(
            "Hermitian jump family does not commute: no common eigenbasis resolved"
        )
        return []

    states = []
    for k in range(d):
        v = vecs[:, k]
        idx = int(np.argmax(np.abs(v) > 1e-8))
        v = v / (v[idx] / abs(v[idx]))
        defect = stationarity_defect(model, np.outer(v, v.conj()))
        if gen_norm > 0 and defect > 1e-10 * gen_norm:
            warnings.warn(
                f"common eigenvector {k} is not stationary "
                f"(defect {defect:.3e}); dropped"
            )
            continue
        states.append((tuple(np.round(means[:, k].real, 9)), StateVector(v)))
    return [s for _, s in sorted(states, key=lambda ks: ks[0])]
