"""Model catalog constructors, closed forms, and model-specific analysis."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ppsd_lab import (
    DensityMatrix,
    GridSpec,
    InvariantViolation,
    LindbladModel,
    LindbladTerm,
    ModelSpec,
    Operator,
    QuadratureInsufficient,
    SearchConfig,
    StateVector,
    ThermalParams,
    catalog_model,
    dephasing_closed_form,
    fidelity,
    fig3_initial_bloch,
    fig3_purity_curve,
    grw_closed_form,
    hermitian_lindblad_fixed_points,
    nonadiabatic_operators,
    nonadiabatic_residual_bound,
    pauli_operators,
    position_closed_form,
    ppsd_residual,
    ppsd_search,
    propagate,
    squeezed_bloch_solution,
    squeezed_ppsd_state,
    thermal_qubit_ppsd_roots,
    three_level_feasibility_scan,
    three_level_ppsd_condition,
)
from ppsd_lab.cli import model_to_dict
from ppsd_lab.models import CATALOG_INFO, MODEL_NAMES, _three_level_polynomial


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_catalog_has_thirteen_models():
    assert len(MODEL_NAMES) == 13
    assert set(CATALOG_INFO) == set(MODEL_NAMES)
    for name in MODEL_NAMES:
        defaults, dim, note = CATALOG_INFO[name]
        assert note  # every entry documents its physics


def test_dephasing_model_is_plain_z_monitoring():
    model = catalog_model(ModelSpec("dephasing_qubit", {"gamma": 2.0}))
    _, _, sz, _, _ = pauli_operators()
    assert len(model.terms) == 1
    assert model.terms[0].rate == 2.0
    np.testing.assert_allclose(model.terms[0].op.matrix, sz.matrix)


def test_thermal_qubit_zero_occupation_single_term():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    _, _, _, _, sm = pauli_operators()
    assert len(model.terms) == 1
    assert model.terms[0].rate == 1.0
    np.testing.assert_allclose(model.terms[0].op.matrix, sm.matrix)


def test_squeezed_jump_operator_structure():
    r, theta = 0.2, math.pi
    model = catalog_model(
        ModelSpec("squeezed_vacuum_decay", {"gamma0": 1.0, "r": r, "theta": theta})
    )
    _, _, _, sp, sm = pauli_operators()
    expected = math.cosh(r) * sm.matrix + np.exp(1j * theta) * math.sinh(r) * sp.matrix
    np.testing.assert_allclose(model.terms[0].op.matrix, expected)


def test_three_level_has_four_thermal_terms():
    model = catalog_model(ModelSpec("three_level_atom", {}))
    assert model.dim == 3
    assert len(model.terms) == 4


def test_unknown_model_and_params_rejected():
    with pytest.raises(InvariantViolation):
        ModelSpec("no_such_model", {})
    with pytest.raises(InvariantViolation):
        catalog_model(ModelSpec("dephasing_qubit", {"gamm": 1.0}))
    with pytest.raises(InvariantViolation):
        catalog_model(ModelSpec("thermal_qubit", {"N": -0.5}))


def test_thermal_params_invariants():
    with pytest.raises(InvariantViolation):
        ThermalParams(0.0, 0.0)
    with pytest.raises(InvariantViolation):
        ThermalParams(1.0, -1.0)


def test_grw_quadrature_guard_trips_on_coarse_grid():
    with pytest.raises(QuadratureInsufficient):
        catalog_model(ModelSpec("grw", {"alpha": 50.0}, GridSpec(-5.0, 5.0, 64)))


def test_grw_build_forms_no_dense_term():
    # 192 dense 192 x 192 complex jump operators alone would take 113 MB
    spec = ModelSpec("grw", {}, GridSpec(-5.0, 5.0, 192))
    tracemalloc.start()
    try:
        catalog_model(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _dense_grid_model(model, grid, rate_diagonals):
    """``model`` rebuilt from dense Operator(np.diag(...)) jump operators."""
    terms = tuple(
        LindbladTerm(rate, Operator(np.diag(diag).astype(complex)))
        for rate, diag in rate_diagonals
    )
    return LindbladModel(
        Operator(np.zeros((grid.n_points,) * 2)), terms, grid.n_points,
        model.label, model.basis_note, model.basis,
    )


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, points", [("grw", 32), ("position_decoherence", 64)])
def test_diagonal_built_grid_models_match_dense_built_ones_bit_for_bit(name, points):
    grid = GridSpec(-5.0, 5.0, points)
    model = catalog_model(ModelSpec(name, {}, grid))
    x = grid.points
    if name == "grw":
        lam, alpha = 1.0, 1.0
        weight = lam * math.sqrt(alpha / math.pi) * grid.spacing
        rate_diagonals = [(weight, np.exp(-alpha * (x - s) ** 2 / 2.0)) for s in x]
    else:
        rate_diagonals = [(2.0, x)]
    dense = _dense_grid_model(model, grid, rate_diagonals)
    for got, want in zip(model._diagonal_jumps, dense._diagonal_jumps):
        assert _same_bits(got, want)
    assert _same_bits(model._diagonal_coefficients, dense._diagonal_coefficients)
    assert len(model._jumps[0]) == len(rate_diagonals)
    for got, want in zip(model._jumps, dense._jumps):
        assert _same_bits(got, want)
    assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(dense))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_dephasing_closed_form_examples():
    rho0 = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(
        dephasing_closed_form(rho0, 1.0, 0.0).matrix, rho0.matrix
    )
    out = dephasing_closed_form(rho0, 1.0, 0.5)
    assert out.matrix[0, 1].real == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
    diag = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
    np.testing.assert_allclose(dephasing_closed_form(diag, 1.0, 7.0).matrix, diag.matrix)


def test_position_closed_form_examples():
    grid = GridSpec(-1.0, 1.0, 9)
    x = grid.points
    psi = StateVector.normalized(np.exp(-(x**2)))
    rho0 = DensityMatrix.from_state(psi)
    np.testing.assert_allclose(
        position_closed_form(rho0, grid, 1.0, 0.0).matrix, rho0.matrix
    )
    out = position_closed_form(rho0, grid, 1.0, 1.0)
    np.testing.assert_allclose(np.diag(out.matrix), np.diag(rho0.matrix))
    i, j = 8, 4  # x_i - x_j = 1
    assert (out.matrix[i, j] / rho0.matrix[i, j]).real == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )


def test_grw_closed_form_examples():
    grid = GridSpec(-5.0, 5.0, 32)
    x = grid.points
    psi = StateVector.normalized(np.exp(-(x**2) / 2))
    rho0 = DensityMatrix.from_state(psi)
    out = grw_closed_form(rho0, grid, 1.0, 1.0, 2.0)
    np.testing.assert_allclose(np.diag(out.matrix), np.diag(rho0.matrix))
    # far-separated entries decay by the full localization rate e^{-lam t}
    i, j = 31, 0
    ratio = (out.matrix[i, j] / rho0.matrix[i, j]).real
    assert ratio == pytest.approx(math.exp(-2.0), rel=1e-10)


def test_grw_closed_form_matches_quadrature_model():
    grid = GridSpec(-5.0, 5.0, 128)
    model = catalog_model(ModelSpec("grw", {"lam": 1.0, "alpha": 1.0}, grid))
    x = grid.points
    psi = StateVector.normalized(np.exp(-(x**2) / (4 * 0.5**2)))
    rho0 = DensityMatrix.from_state(psi)
    traj = propagate(model, rho0, [0.0, 1.0])
    expected = grw_closed_form(rho0, grid, 1.0, 1.0, 1.0)
    assert np.abs(traj.states[-1].matrix - expected.matrix).max() < 1e-7


# ---------------------------------------------------------------------------
# thermal qubit roots
# ---------------------------------------------------------------------------


def test_thermal_roots_zero_occupation():
    assert thermal_qubit_ppsd_roots(0.0) == [0.0]


@pytest.mark.parametrize("N", [0.1, 0.5, 1.0, 2.0])
def test_thermal_roots_empty_for_positive_occupation(N):
    assert thermal_qubit_ppsd_roots(N) == []


def test_thermal_roots_rejects_negative_occupation():
    with pytest.raises(InvariantViolation):
        thermal_qubit_ppsd_roots(-0.1)


# ---------------------------------------------------------------------------
# three-level atom
# ---------------------------------------------------------------------------


def test_three_level_condition_zero_bath_requires_empty_top_level():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p1 = rng.uniform(0, 1)
        val = three_level_ppsd_condition(p1, 1 - p1, 0.0, 1.0, 1.0, 0.0, 0.0)
        assert val == pytest.approx(0.0, abs=1e-14)


def test_three_level_condition_example_value():
    val = three_level_ppsd_condition(0.25, 0.25, 0.5, 1.0, 1.0, 0.0, 0.0)
    assert val == pytest.approx(0.75, abs=1e-14)


def test_three_level_condition_rejects_off_simplex():
    with pytest.raises(InvariantViolation):
        three_level_ppsd_condition(0.5, 0.5, 0.5, 1.0, 1.0, 0.0, 0.0)


def test_three_level_no_zero_on_physical_simplex_at_paper_regime():
    # occupied baths (N1, N2 > 0) make every term non-negative and at least
    # one strictly positive everywhere on the simplex: no candidate exists
    g1, g2, n1, n2 = 1.0, 0.01, 0.4, 0.0004
    best = math.inf
    for p1 in np.linspace(0, 1, 101):
        for p2 in np.linspace(0, 1 - p1, max(2, int(101 * (1 - p1)) + 1)):
            p3 = 1.0 - p1 - p2
            best = min(best, _three_level_polynomial(p1, p2, p3, g1, g2, n1, n2))
    assert best > 1e-7  # infimum g2*N2 = 4e-6 sits at the (p2=1) corner


def test_feasibility_scan_boundary_and_excess():
    scan = three_level_feasibility_scan(1.0, 0.01, 0.4, 0.0004, np.linspace(0, 1, 2001))
    feasible = [pt for pt in scan if pt.p1_roots]
    assert feasible
    assert 0.83 < feasible[0].p2 < 0.90
    assert all(min(pt.p1_plus_p2) > 1.0 for pt in feasible)
    # infeasible region below the boundary
    infeasible = [pt for pt in scan if not pt.p1_roots]
    assert infeasible and max(pt.p2 for pt in infeasible) < feasible[0].p2


def test_feasibility_roots_actually_solve_the_polynomial():
    pts = three_level_feasibility_scan(1.0, 0.01, 0.4, 0.0004, [0.9, 0.95, 1.0])
    for pt in pts:
        for p1 in pt.p1_roots:
            p3 = 1.0 - p1 - pt.p2
            assert _three_level_polynomial(
                p1, pt.p2, p3, 1.0, 0.01, 0.4, 0.0004
            ) == pytest.approx(0.0, abs=1e-10)


def test_forced_empty_top_level_needs_negative_population():
    # on p3 = 0 (p1 + p2 = 1) the polynomial reduces to
    # g1 N1 p1 + g2 N2 p2 = 0, impossible with p1, p2 >= 0 unless both vanish
    g1, g2, n1, n2 = 1.0, 0.01, 0.4, 0.0004
    for p1 in np.linspace(0.0, 1.0, 21):
        val = _three_level_polynomial(p1, 1.0 - p1, 0.0, g1, g2, n1, n2)
        expected = g1 * n1 * p1 + g2 * n2 * (1.0 - p1)
        assert val == pytest.approx(expected, abs=1e-14)
        assert val > 0.0


# ---------------------------------------------------------------------------
# squeezed-vacuum decay
# ---------------------------------------------------------------------------


def test_squeezed_state_population_value():
    psi = squeezed_ppsd_state(0.2, math.pi)
    p_e = abs(psi.amplitudes[0]) ** 2
    assert p_e == pytest.approx(1.0 / (1.0 + 1.0 / math.tanh(0.2)), abs=1e-14)
    assert p_e == pytest.approx(0.16484, abs=1e-5)


def test_squeezed_state_is_jump_operator_eigenvector():
    r, theta = 0.2, math.pi
    model = catalog_model(ModelSpec("squeezed_vacuum_decay", {"r": r, "theta": theta}))
    C = model.terms[0].op.matrix
    psi = squeezed_ppsd_state(r, theta)
    lam = np.vdot(psi.amplitudes, C @ psi.amplitudes)
    assert np.linalg.norm(C @ psi.amplitudes - lam * psi.amplitudes) < 1e-12
    assert abs(lam) == pytest.approx(math.sqrt(math.sinh(0.4) / 2.0), abs=1e-12)
    assert abs(lam) == pytest.approx(0.453184, abs=1e-6)


def test_squeezed_state_zero_residual():
    model = catalog_model(ModelSpec("squeezed_vacuum_decay", {"r": 0.2, "theta": math.pi}))
    assert ppsd_residual(model, squeezed_ppsd_state(0.2, math.pi)) < 1e-12


def test_squeezed_state_requires_positive_squeezing():
    with pytest.raises(InvariantViolation):
        squeezed_ppsd_state(0.0, 0.0)


@pytest.mark.parametrize("r", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
def test_search_hits_contain_the_candidate_across_parameters(r, theta):
    """One of the search's two hits matches the candidate to 1 - 1e-8.

    The zero-residual set is the +/- eigenvalue pair of the jump operator,
    so the search legitimately returns two states; the candidate formula
    picks the +branch.
    """
    model = catalog_model(
        ModelSpec("squeezed_vacuum_decay", {"gamma0": 1.0, "r": r, "theta": theta})
    )
    reports = ppsd_search(model, SearchConfig(n_restarts=48, seed=13))
    candidate = squeezed_ppsd_state(r, theta)
    assert max(fidelity(rep.state, candidate) for rep in reports) > 1.0 - 1e-8


def test_bloch_solution_identity_at_time_zero():
    n0 = (0.3, -0.2, 0.5)
    out = squeezed_bloch_solution(n0, 1.0, 0.2, -math.pi / 2, 0.0)
    np.testing.assert_allclose(out, n0, atol=1e-14)


def test_bloch_solution_r_zero_reduces_to_amplitude_damping():
    # plain amplitude damping: n_z(t) = -1 + (n_z0 + 1) e^{-gamma t},
    # transverse components decay at gamma/2
    gamma, t = 1.3, 0.7
    n0 = np.array([0.4, -0.1, 0.2])
    nx, ny, nz = squeezed_bloch_solution(n0, gamma, 0.0, 0.3, t)
    assert nx == pytest.approx(n0[0] * math.exp(-gamma * t / 2), abs=1e-12)
    assert ny == pytest.approx(n0[1] * math.exp(-gamma * t / 2), abs=1e-12)
    assert nz == pytest.approx(-1.0 + (n0[2] + 1.0) * math.exp(-gamma * t), abs=1e-12)


def test_bloch_solution_cross_validates_against_propagation():
    gamma, r, delta = 1.0, 0.2, -math.pi / 2
    theta = -2.0 * delta
    model = catalog_model(
        ModelSpec("squeezed_vacuum_decay", {"gamma0": gamma, "r": r, "theta": theta})
    )
    sx, sy, sz, _, _ = pauli_operators()
    rng = np.random.default_rng(44)
    for _ in range(5):
        n0 = rng.uniform(-1, 1, 3)
        n0 *= rng.uniform(0, 1) / max(np.linalg.norm(n0), 1e-12)
        rho0 = DensityMatrix(
            0.5
            * (
                np.eye(2, dtype=complex)
                + n0[0] * sx.matrix
                + n0[1] * sy.matrix
                + n0[2] * sz.matrix
            )
        )
        for t in (0.3, 1.1):
            rho_t = propagate(model, rho0, [t]).states[-1].matrix
            expected = squeezed_bloch_solution(n0, gamma, r, delta, t)
            measured = [
                np.trace(rho_t @ s).real for s in (sx.matrix, sy.matrix, sz.matrix)
            ]
            np.testing.assert_allclose(measured, expected, atol=1e-10)


def test_bloch_solution_keeps_candidate_family_pure_at_r_zero():
    n0 = fig3_initial_bloch(0.0, 0.123)  # ground state for any phase
    for t in (0.0, 0.5, 2.0):
        n = squeezed_bloch_solution(n0, 1.0, 0.0, 0.123, t)
        assert sum(c * c for c in n) == pytest.approx(1.0, abs=1e-12)


def test_fig3_curve_shape_and_cross_validation():
    times = np.linspace(0.0, 3.0, 100)
    curve = fig3_purity_curve(1.0, 0.2, math.pi, -math.pi / 2, times)
    p_vals = np.array([p for _, p in curve])
    assert p_vals[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(p_vals) < 0.0)
    model = catalog_model(
        ModelSpec("squeezed_vacuum_decay", {"gamma0": 1.0, "r": 0.2, "theta": math.pi})
    )
    sx, sy, sz, _, _ = pauli_operators()
    n0 = fig3_initial_bloch(1.0 / (1.0 + 1.0 / math.tanh(0.2)), -math.pi / 2)
    rho0 = DensityMatrix(
        0.5
        * (
            np.eye(2, dtype=complex)
            + n0[0] * sx.matrix
            + n0[1] * sy.matrix
            + n0[2] * sz.matrix
        )
    )
    traj = propagate(model, rho0, times)
    np.testing.assert_allclose(p_vals, 2.0 * traj.purities - 1.0, atol=1e-7)


def test_fig3_initial_derivative_matches_finite_difference_at_r_zero():
    # at r = 0 with p_e free: P(t) from the closed form; compare dP/dt at 0+
    p_e, delta, gamma = 0.3, 0.4, 1.0
    n0 = fig3_initial_bloch(p_e, delta)
    h = 1e-6
    curve = fig3_purity_curve(gamma, 0.0, 0.0, delta, [0.0, h], p_e=p_e)
    fd = (curve[1][1] - curve[0][1]) / h
    # analytic: d/dt [ (nx^2+ny^2) e^{-gamma t} + nz(t)^2 ] at t=0
    trans = (n0[0] ** 2 + n0[1] ** 2) * (-gamma)
    dz = -gamma * (n0[2] + 1.0)
    analytic = trans + 2.0 * n0[2] * dz
    assert fd == pytest.approx(analytic, rel=1e-4)


def test_fig3_rejects_bad_population():
    with pytest.raises(InvariantViolation):
        fig3_purity_curve(1.0, 0.2, math.pi, 0.0, [0.0, 1.0], p_e=1.5)


# ---------------------------------------------------------------------------
# driven damped oscillator
# ---------------------------------------------------------------------------


def test_nonadiabatic_commutator_on_truncated_block():
    m, w0, kap, mu, dim = 1.0, 1.0, 1.0, 0.3, 24
    f_plus, f_minus = nonadiabatic_operators(m, w0, kap, mu, dim)
    comm = f_plus.matrix @ f_minus.matrix - f_minus.matrix @ f_plus.matrix
    c = 1.0 / (m * w0 * kap)
    block = comm[: dim - 1, : dim - 1]
    np.testing.assert_allclose(block, c * np.eye(dim - 1), atol=1e-12)


def test_nonadiabatic_bound_limit_value():
    params = {"m": 1.0, "omega0": 1.0, "kappa": 1.0, "alpha_kT": 0.0, "dim": 16}
    rng = np.random.default_rng(1)
    psi = StateVector.normalized(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    _, bound = nonadiabatic_residual_bound(params, psi)
    assert bound == pytest.approx(1.0, abs=1e-14)


def test_nonadiabatic_bound_holds_for_random_states():
    params = {"dim": 24, "alpha_kT": 0.5, "mu": 0.3}
    rng = np.random.default_rng(5)
    for _ in range(100):
        psi = StateVector.normalized(
            rng.standard_normal(24) + 1j * rng.standard_normal(24)
        )
        residual, bound = nonadiabatic_residual_bound(params, psi)
        assert residual >= bound - 1e-9
        assert bound > 0.0


def test_nonadiabatic_rejects_nonpositive_mechanics():
    with pytest.raises(InvariantViolation):
        nonadiabatic_operators(0.0, 1.0, 1.0, 0.3, 8)


# ---------------------------------------------------------------------------
# Hermitian jump families
# ---------------------------------------------------------------------------


def test_phase_damped_fixed_points_are_fock_states():
    model = catalog_model(ModelSpec("phase_damped_oscillator", {"dim": 10}))
    states = hermitian_lindblad_fixed_points(model)
    assert len(states) == 10
    for k, s in enumerate(states):
        assert fidelity(s, StateVector.basis(10, k)) == pytest.approx(1.0, abs=1e-12)


def test_wcm_fixed_points_are_fock_states():
    model = catalog_model(ModelSpec("walls_collet_milburn", {"dim": 10}))
    states = hermitian_lindblad_fixed_points(model)
    assert len(states) == 10


def test_grw_fixed_points_are_grid_states():
    model = catalog_model(ModelSpec("grw", {}, GridSpec(-5.0, 5.0, 64)))
    states = hermitian_lindblad_fixed_points(model)
    assert len(states) == 64
    weights = sorted(int(np.argmax(np.abs(s.amplitudes))) for s in states)
    assert weights == list(range(64))


def test_csl_fixed_points_are_occupation_states():
    model = catalog_model(ModelSpec("csl", {}))
    states = hermitian_lindblad_fixed_points(model)
    assert len(states) == 16
    for s in states:
        assert np.sort(np.abs(s.amplitudes))[-2] < 1e-10  # single basis component


def test_hermitian_fixed_points_reject_non_hermitian_family():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    with pytest.raises(InvariantViolation):
        hermitian_lindblad_fixed_points(model)


def test_hermitian_fixed_points_flag_non_commuting_family():
    from ppsd_lab import LindbladModel, LindbladTerm, Operator

    sx, _, sz, _, _ = pauli_operators()
    model = LindbladModel(
        Operator(np.zeros((2, 2))),
        (LindbladTerm(1.0, sx), LindbladTerm(1.0, sz)),
        dim=2,
    )
    with pytest.warns(UserWarning, match="does not commute"):
        assert hermitian_lindblad_fixed_points(model) == []
