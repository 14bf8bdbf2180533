"""Residuals, the purity-preserving flow, sphere search, unravelings, chains."""

import math

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
    SearchConfig,
    StateVector,
    catalog_model,
    coherent_state,
    consistency_check,
    effective_hamiltonian,
    evolve_pure_nonlinear,
    fidelity,
    fock_operators,
    hermitian_lindblad_fixed_points,
    history_chain,
    is_stationary_state,
    liouvillian_action,
    liouvillian_matrix,
    pauli_operators,
    ppsd_residual,
    ppsd_residual_terms,
    ppsd_search,
    residual_scale,
    squeezed_ppsd_state,
    unlisted_hits,
    unraveling_check,
    variance,
    zero_residual_subspaces,
)
from ppsd_lab import ppsd
from ppsd_lab.cli import main
from ppsd_lab.errors import DimensionMismatch
from ppsd_lab.lindblad import liouvillian_norm
from tests_support import DESK_SPECS

DEPHASING = ModelSpec("dephasing_qubit", {"gamma": 1.0})


def random_state(rng, dim) -> StateVector:
    return StateVector.normalized(
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    )


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_residual_zero_at_monitored_eigenstate():
    model = catalog_model(DEPHASING)
    assert ppsd_residual(model, StateVector.basis(2, 0)) == pytest.approx(0.0, abs=1e-14)


def test_residual_one_at_equal_superposition():
    model = catalog_model(DEPHASING)
    psi = StateVector.normalized([1.0, 1.0])
    assert ppsd_residual(model, psi) == pytest.approx(1.0, abs=1e-12)


def test_residual_amplitude_damping_quadratic_in_population():
    gamma0 = 1.3
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": gamma0, "N": 0.0}))
    rng = np.random.default_rng(3)
    for _ in range(50):
        psi = random_state(rng, 2)
        p_plus = abs(psi.amplitudes[0]) ** 2
        expected = gamma0 * (p_plus - p_plus * (1.0 - p_plus))
        assert ppsd_residual(model, psi) == pytest.approx(expected, abs=1e-12)


def test_residual_depolarizing_excited_state():
    model = catalog_model(ModelSpec("depolarizing", {}))
    assert ppsd_residual(model, StateVector.basis(2, 0)) == pytest.approx(2.0, abs=1e-12)


def test_residual_dimension_mismatch():
    model = catalog_model(DEPHASING)
    with pytest.raises(DimensionMismatch):
        ppsd_residual(model, StateVector.basis(3, 0))


@pytest.mark.parametrize(
    "spec",
    [
        DEPHASING,
        ModelSpec("phase_damped_oscillator", {"dim": 8}),
        ModelSpec("walls_collet_milburn", {"dim": 8}),
        ModelSpec("csl", {}),
    ],
    ids=lambda s: s.name,
)
def test_residual_equals_weighted_variances_for_hermitian_families(spec):
    model = catalog_model(spec)
    rng = np.random.default_rng(17)
    for _ in range(40):
        psi = random_state(rng, model.dim)
        expected = sum(
            term.rate * variance(term.op, psi) for term in model.terms
        )
        assert ppsd_residual(model, psi) == pytest.approx(expected, abs=1e-12)


def test_zero_residual_implies_eigenstate_for_single_hermitian_jump():
    model = catalog_model(ModelSpec("phase_damped_oscillator", {"dim": 8}))
    gamma = model.terms[0].rate
    L = model.terms[0].op.matrix
    for n in range(8):
        psi = StateVector.basis(8, n)
        assert ppsd_residual(model, psi) < 1e-10 * gamma
        mean = np.vdot(psi.amplitudes, L @ psi.amplitudes)
        assert np.linalg.norm(L @ psi.amplitudes - mean * psi.amplitudes) < 1e-4


def test_multimode_residual_decomposes_per_term():
    spec = ModelSpec(
        "multimode",
        {"n_modes": 2, "mode_dim": 4, "gamma_1": 1.0, "N_1": 0.4, "gamma_2": 0.7, "N_2": 0.0},
    )
    model = catalog_model(spec)
    rng = np.random.default_rng(8)
    for _ in range(60):
        psi = random_state(rng, model.dim)
        terms = ppsd_residual_terms(model, psi)
        assert terms.min() >= -1e-12
        assert terms.sum() == pytest.approx(ppsd_residual(model, psi), abs=1e-12)


GRADIENT_SPECS = (
    ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.3}),
    ModelSpec("three_level_atom", {}),
    ModelSpec("csl", {}),
    ModelSpec("squeezed_vacuum_decay", {}),
    ModelSpec("walls_collet_milburn", {"dim": 10}),
    ModelSpec("nonadiabatic_driven", {"dim": 24}),
    ModelSpec("multimode", {"N_1": 0.4}),
)


@pytest.mark.parametrize("spec", GRADIENT_SPECS, ids=lambda s: s.name)
def test_residual_gradient_matches_central_difference(spec):
    # along the great circle (psi + eps delta)/|psi + eps delta| with delta
    # tangent at psi, dR/deps = 2 Re <grad, delta> for the Wirtinger gradient
    model = catalog_model(spec)
    rates, L = model._jumps
    M = ppsd._gram(rates, L)
    rng = np.random.default_rng(41)
    eps = 1e-6
    for _ in range(3):
        v = random_state(rng, model.dim).amplitudes
        delta = random_state(rng, model.dim).amplitudes
        delta = delta - np.vdot(v, delta) * v
        along = [ppsd_residual(model, StateVector.normalized(v + s * delta)) for s in (eps, -eps)]
        numeric = (along[0] - along[1]) / (2 * eps)
        analytic = 2 * np.vdot(ppsd._residual_and_grad(rates, L, M, v)[1], delta).real
        assert abs(numeric - analytic) <= 1e-6 * abs(analytic)


@pytest.mark.parametrize("spec", GRADIENT_SPECS, ids=lambda s: s.name)
def test_residual_value_is_in_order_sum_of_terms(spec):
    # the search's value, ppsd_residual and the sum of ppsd_residual_terms
    # agree bit for bit on a non-diagonal model; numpy sums fewer than eight
    # terms in order.  A diagonal model evaluates R as a dot product on its
    # own form.
    model = catalog_model(spec)
    rates, L = model._jumps
    M = ppsd._gram(rates, L)
    rng = np.random.default_rng(42)
    for _ in range(5):
        psi = random_state(rng, model.dim)
        terms = ppsd_residual_terms(model, psi)
        assert len(terms) < 8
        running = 0.0
        for term in terms:
            running += term
        assert terms.sum() == running
        value = ppsd._residual_and_grad(rates, L, M, psi.amplitudes)[0]
        if model._diagonal_jumps is None:
            assert value == ppsd_residual(model, psi) == running
        else:
            assert value == pytest.approx(running, rel=1e-13)
            assert ppsd_residual(model, psi) == pytest.approx(running, rel=1e-13)


def test_zero_rate_term_leaves_every_kernel_bitwise_unchanged():
    # a zero-rate term is dropped once, by the model's stacked jump array,
    # so the generator, its action, the residual and its gradient keep
    # their bits
    model = catalog_model(ModelSpec("three_level_atom", {}))
    rng = np.random.default_rng(43)
    d = model.dim

    def noise():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    padded = LindbladModel(
        model.hamiltonian, model.terms[:1] + (LindbladTerm(0.0, noise()),) + model.terms[1:], d
    )
    assert len(model._jumps[0]) > 1
    for got, want in zip(padded._jumps, model._jumps):
        assert np.array_equal(got, want)
    assert np.array_equal(liouvillian_matrix(padded), liouvillian_matrix(model))
    rho = noise()
    assert np.array_equal(liouvillian_action(padded, rho), liouvillian_action(model, rho))
    for _ in range(3):
        psi = random_state(rng, d)
        assert ppsd_residual(padded, psi) == ppsd_residual(model, psi)
        grads = [
            ppsd._residual_and_grad(*m._jumps, ppsd._gram(*m._jumps), psi.amplitudes)[1]
            for m in (padded, model)
        ]
        assert np.array_equal(*grads)


def test_multimode_zero_total_requires_zero_occupation():
    # with N_1 > 0 the absorption term contributes at least gamma*N_1 per unit
    # commutator expectation; the total cannot vanish on any product state
    spec = ModelSpec("multimode", {"n_modes": 2, "mode_dim": 6, "N_1": 0.4})
    model = catalog_model(spec)
    rng = np.random.default_rng(21)
    best = min(ppsd_residual(model, random_state(rng, model.dim)) for _ in range(200))
    assert best > 0.1


# ---------------------------------------------------------------------------
# effective generator and the nonlinear flow
# ---------------------------------------------------------------------------


def test_effective_hamiltonian_annihilates_damped_vacuum():
    model = catalog_model(
        ModelSpec("damped_oscillator", {"gamma0": 1.0, "N": 0.0, "omega": 1.0, "dim": 20})
    )
    vac = StateVector.basis(20, 0)
    h_eff = effective_hamiltonian(model, vac)
    assert np.linalg.norm(h_eff.matrix @ vac.amplitudes) < 1e-12


def test_effective_hamiltonian_reduces_to_hamiltonian_without_dissipation():
    from ppsd_lab import LindbladModel

    _, _, sz, _, _ = pauli_operators()
    model = LindbladModel(sz, (), dim=2)
    psi = StateVector.normalized([1.0, 1.0j])
    np.testing.assert_allclose(effective_hamiltonian(model, psi).matrix, sz.matrix)


def test_effective_hamiltonian_dephasing_formula():
    model = catalog_model(DEPHASING)
    psi = StateVector.normalized([1.0, 1.0])
    # <Z> = 0, Z^2 = I: H_eff = i (0*Z - I) = -i I
    np.testing.assert_allclose(
        effective_hamiltonian(model, psi).matrix, -1j * np.eye(2), atol=1e-14
    )


def test_pure_flow_keeps_monitored_eigenstate():
    model = catalog_model(DEPHASING)
    times = np.linspace(0.0, 2.0, 9)
    states = evolve_pure_nonlinear(model, StateVector.basis(2, 0), times)
    for s in states:
        assert fidelity(s, StateVector.basis(2, 0)) == pytest.approx(1.0, abs=1e-10)


def test_pure_flow_keeps_amplitude_damping_ground():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    times = np.linspace(0.0, 3.0, 7)
    states = evolve_pure_nonlinear(model, StateVector.basis(2, 1), times)
    for s in states:
        assert fidelity(s, StateVector.basis(2, 1)) == pytest.approx(1.0, abs=1e-10)


def test_pure_flow_norm_drift_is_tiny():
    model = catalog_model(DEPHASING)
    times = np.linspace(0.0, 1.0, 11)
    _, drifts = evolve_pure_nonlinear(
        model, StateVector.normalized([1.0, 1.0]), times, return_drift=True
    )
    assert drifts.max() < 1e-9


def test_pure_flow_requires_times_from_zero():
    model = catalog_model(DEPHASING)
    with pytest.raises(InvariantViolation):
        evolve_pure_nonlinear(model, StateVector.basis(2, 0), [0.5, 1.0])


def test_pure_flow_tracks_coherent_state_of_damped_oscillator():
    from ppsd_lab import coherent_state, propagate, trace_distance

    dim = 40
    model = catalog_model(
        ModelSpec("damped_oscillator", {"gamma0": 1.0, "N": 0.0, "omega": 1.0, "dim": dim})
    )
    psi0 = coherent_state(1.0, dim)
    times = np.linspace(0.0, 1.0, 6)
    pure = evolve_pure_nonlinear(model, psi0, times)
    mixed = propagate(model, DensityMatrix.from_state(psi0), times)
    for p, s in zip(pure, mixed.states):
        assert trace_distance(DensityMatrix.from_state(p), s) < 1e-7


@pytest.mark.parametrize(
    "spec, amps",
    [
        (ModelSpec("squeezed_vacuum_decay", {}), [1.0, 1j]),
        (DEPHASING, [1.0, 0.5]),
    ],
    ids=["sampled", "diagonal"],
)
def test_pure_flow_is_one_solve_per_path(monkeypatch, spec, amps):
    # every output point comes from the dense output of one DOP853 solve
    calls, solve_ivp = [], ppsd.solve_ivp

    def counted(*args, **kwargs):
        calls.append(kwargs.get("t_eval"))
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(ppsd, "solve_ivp", counted)
    states = evolve_pure_nonlinear(
        catalog_model(spec), StateVector.normalized(amps), np.linspace(0.0, 2.0, 41)
    )
    assert len(calls) == 1
    assert len(calls[0]) == 41
    assert len(states) == 41
    assert fidelity(states[0], states[-1]) < 0.95


@pytest.mark.parametrize("alpha", [1.0, 1.5 - 0.5j])
def test_pure_flow_dense_output_follows_the_damped_coherent_state(alpha):
    # at N = 0 a coherent state stays coherent: alpha(t) = alpha e^{-(i omega + gamma0/2) t}
    dim = 40
    model = catalog_model(
        ModelSpec("damped_oscillator", {"gamma0": 1.0, "N": 0.0, "omega": 1.0, "dim": dim})
    )
    times = np.linspace(0.0, 6.0, 41)
    path = evolve_pure_nonlinear(model, coherent_state(alpha, dim), times)
    for p, t in zip(path, times):
        exact = coherent_state(alpha * np.exp(-(1j + 0.5) * t), dim)
        assert 1.0 - fidelity(p, exact) <= 1e-12


@pytest.mark.parametrize(
    "spec, amps",
    [
        (ModelSpec("thermal_qubit", {"N": 0.3}), [1.0, 1.0]),
        (ModelSpec("squeezed_vacuum_decay", {}), [1.0, 1j]),
        (ModelSpec("three_level_atom", {}), [1.0, 1j, 1.0]),
        (
            ModelSpec("depolarizing", {"gamma_x": 0.5, "gamma_y": 1.0, "gamma_z": 1.5}),
            [2.0, 1 + 1j],
        ),
        (ModelSpec("damped_oscillator", {"N": 0.3, "dim": 16}), None),
    ],
    ids=["thermal_qubit", "squeezed", "three_level_atom", "depolarizing", "damped_oscillator"],
)
def test_pure_flow_does_not_depend_on_the_output_grid(spec, amps):
    model = catalog_model(spec)
    psi0 = coherent_state(0.5, 16) if amps is None else StateVector.normalized(amps)
    coarse = evolve_pure_nonlinear(model, psi0, np.linspace(0.0, 2.0, 41))
    fine = evolve_pure_nonlinear(model, psi0, np.linspace(0.0, 2.0, 401))[::10]
    assert fidelity(coarse[0], coarse[-1]) < 0.95
    for a, b in zip(coarse, fine):
        assert 1.0 - fidelity(a, b) <= 1e-12


def _term_by_term_flow_rhs(model, y):
    """Reference pure-flow RHS, term by term from ``model.terms``: two dense
    matvecs per term, nothing read from the model's caches."""
    nrm = np.linalg.norm(y)
    u = y / nrm
    drift = -1j * (model.hamiltonian.matrix @ u)
    r_val = 0.0
    for term in model.terms:
        rate, L = term.rate, term.op.matrix
        LdL = L.conj().T @ L
        Lu = L @ u
        mean = np.vdot(u, Lu)
        mean_LdL = np.vdot(u, LdL @ u).real
        drift += rate * (np.conj(mean) * Lu - 0.5 * mean_LdL * u - 0.5 * (LdL @ u))
        r_val += rate * (mean_LdL - abs(mean) ** 2)
    return (drift + r_val * u) * nrm


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("grw", {}, GridSpec(-5.0, 5.0, 32)),
        ModelSpec("grw", {}, GridSpec(-5.0, 5.0, 64)),
        ModelSpec("position_decoherence", {"gamma": 1.0}, GridSpec(-5.0, 5.0, 32)),
        ModelSpec("phase_damped_oscillator", {"dim": 10}),
        ModelSpec("csl", {}),
        DEPHASING,
    ],
    ids=lambda s: f"{s.name}-{getattr(s.dim_or_grid, 'n_points', s.dim_or_grid)}",
)
def test_diagonal_pure_flow_matches_term_by_term_reference(spec):
    model = catalog_model(spec)
    assert model._diagonal_jumps is not None
    rhs = ppsd._pure_flow_rhs(model)
    rng = np.random.default_rng(21)
    for scale in (1.0, 3.0):
        y = scale * random_state(rng, model.dim).amplitudes
        expected = _term_by_term_flow_rhs(model, y)
        got = rhs(0.0, y)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("thermal_qubit", {"N": 0.3}),
        ModelSpec("three_level_atom", {}),
        ModelSpec("squeezed_vacuum_decay", {}),
        ModelSpec("damped_oscillator", {"dim": 16, "omega": 1.0}),
        ModelSpec("nonadiabatic_driven", {"dim": 24}),
        ModelSpec("multimode", {"N_1": 0.4}),
    ],
    ids=lambda s: s.name,
)
def test_stacked_pure_flow_matches_term_by_term_reference(spec):
    model = catalog_model(spec)
    assert model._diagonal_jumps is None
    rhs = ppsd._pure_flow_rhs(model)
    rng = np.random.default_rng(22)
    for scale in (1.0, 3.0):
        y = scale * random_state(rng, model.dim).amplitudes
        expected = _term_by_term_flow_rhs(model, y)
        got = rhs(0.0, y)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: s.name)
def test_pure_flow_rhs_is_the_effective_hamiltonian_flow(spec):
    # at an unnormalised y the RHS is -i H_eff(u) y + R(u) y, u = y / |y|:
    # the ray follows H_eff and the counterterm R cancels the norm decay
    model = catalog_model(spec)
    y = 2.5 * random_state(np.random.default_rng(23), model.dim).amplitudes
    u = y / np.linalg.norm(y)
    heff = effective_hamiltonian(model, u).matrix
    expected = -1j * heff @ y + ppsd_residual(model, u) * y
    got = ppsd._pure_flow_rhs(model)(0.0, y)
    # absolute: on depolarizing the RHS is 0 to roundoff
    bound = 1e-13 * (np.linalg.norm(heff, 2) + residual_scale(model)) * np.linalg.norm(y)
    assert np.abs(got - expected).max() <= bound


def _refuse_the_jump_stack(monkeypatch):
    def refuse(_model):
        raise AssertionError("dense jump stack built")

    monkeypatch.setattr(LindbladModel, "_jumps", property(refuse))


def test_diagonal_residual_terms_and_effective_hamiltonian_read_the_diagonals(monkeypatch):
    grid = GridSpec(-5.0, 5.0, 64)
    model = catalog_model(ModelSpec("grw", {}, grid))
    psi = StateVector.normalized(np.exp(-((grid.points - 0.4) ** 2) / (4 * 0.7**2)))
    v = psi.amplitudes
    # references term by term from model.terms, read before the stack is refused
    expected_terms, expected_heff = [], model.hamiltonian.matrix.astype(complex)
    for term in model.terms:
        L = term.op.matrix
        LdL = L.conj().T @ L
        mean, second = np.vdot(v, L @ v), np.vdot(v, LdL @ v).real
        expected_terms.append(term.rate * (second - abs(mean) ** 2))
        expected_heff = expected_heff + 1j * term.rate * (
            np.conj(mean) * L - 0.5 * second * np.eye(model.dim) - 0.5 * LdL
        )
    model = catalog_model(ModelSpec("grw", {}, grid))
    _refuse_the_jump_stack(monkeypatch)
    terms = ppsd_residual_terms(model, psi)
    heff = effective_hamiltonian(model, psi)
    assert heff.diagonal is not None
    scale = residual_scale(model)
    assert np.abs(terms - expected_terms).max() <= 1e-13 * scale
    assert np.abs(heff.matrix - expected_heff).max() <= 1e-13 * np.abs(expected_heff).max()
    assert "_jumps" not in model.__dict__


def test_diagonal_pure_flow_never_reads_the_dissipator_table(monkeypatch):
    _refuse_the_jump_stack(monkeypatch)
    grid = GridSpec(-5.0, 5.0, 64)
    model = catalog_model(ModelSpec("grw", {}, grid))
    psi0 = StateVector.normalized(np.exp(-(grid.points**2) / (4 * 0.7**2)))
    states, drifts = evolve_pure_nonlinear(
        model, psi0, np.linspace(0.0, 0.5, 6), return_drift=True
    )
    assert len(states) == 6
    assert drifts.max() < 1e-9


# ---------------------------------------------------------------------------
# consistency check
# ---------------------------------------------------------------------------


def test_consistency_dephasing_superposition_no_ppsd():
    model = catalog_model(DEPHASING)
    report = consistency_check(model, StateVector.normalized([1.0, 1.0]), t_max=1.0, n_steps=50)
    assert report.verdict == "no_ppsd"
    assert not report.is_stationary
    # master-equation path loses purity down to (1 + e^{-4})/2 at t = 1
    assert report.max_impurity == pytest.approx(
        1.0 - 0.5 * (1.0 + math.exp(-4.0)), abs=1e-9
    )
    assert 1.0 - 0.5 * (1.0 + math.exp(-4.0)) == pytest.approx(1 - 0.509158, abs=1e-6)


def test_consistency_stationary_state():
    model = catalog_model(DEPHASING)
    report = consistency_check(model, StateVector.basis(2, 0), t_max=1.0, n_steps=50)
    assert report.verdict == "stationary_only"
    assert report.is_stationary
    assert report.consistency_gap < 1e-8


def test_consistency_thermal_occupied_bath_never_ppsd():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 1.0}))
    # minimum of (2N+1)p^2 - 2Np + N over p is N(N+1)/(2N+1)
    floor = 1.0 * (1.0 * 2.0) / 3.0
    rng = np.random.default_rng(12)
    for _ in range(5):
        psi = random_state(rng, 2)
        report = consistency_check(model, psi, t_max=1.0, n_steps=20)
        assert report.verdict == "no_ppsd"
        assert report.residual >= floor - 1e-9
        # bitwise the largest ppsd_residual along the pure path
        path = evolve_pure_nonlinear(model, psi, np.linspace(0.0, 1.0, 21))
        assert report.residual == max(ppsd_residual(model, p) for p in path)


def test_stationary_state_has_tiny_consistency_gap():
    model = catalog_model(ModelSpec("damped_oscillator", {"gamma0": 1.0, "N": 0.0, "dim": 12}))
    report = consistency_check(model, StateVector.basis(12, 0), t_max=2.0, n_steps=20)
    assert report.is_stationary
    assert report.consistency_gap < 1e-8


def test_consistency_check_reports_a_stationary_state_without_integrating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stationary state must not be integrated")

    monkeypatch.setattr(ppsd, "evolve_pure_nonlinear", refuse)
    monkeypatch.setattr(ppsd, "propagate", refuse)
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    report = consistency_check(model, StateVector.basis(2, 1), t_max=1.0, n_steps=50)
    assert report.verdict == "stationary_only" and report.is_stationary
    assert report.consistency_gap == 0.0


def test_ppsd_check_decides_stationarity_once(monkeypatch, capsys):
    calls = []

    def counted(model):
        calls.append(model)
        return liouvillian_norm(model)

    monkeypatch.setattr(ppsd, "liouvillian_norm", counted)
    code = main([
        "ppsd-check", "--model", "damped_oscillator", "--param", "N=0.3",
        "--dim", "16", "--state", "coherent:0.5",
    ])
    assert code == 0
    assert "no_ppsd" in capsys.readouterr().out
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# exact zero-residual set and its cross-check
# ---------------------------------------------------------------------------


def test_search_amplitude_damping_finds_only_ground():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    reports = ppsd_search(model)
    assert len(reports) == 1
    assert reports[0].is_stationary
    assert reports[0].verdict == "stationary_only"
    assert fidelity(reports[0].state, StateVector.basis(2, 1)) > 1.0 - 1e-10


@pytest.mark.parametrize("N", [0.1, 0.5, 1.0, 2.0])
def test_search_thermal_qubit_empty_at_positive_occupation(N):
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": N}))
    assert ppsd_search(model) == []


def test_search_squeezed_model_finds_eigenvalue_pair():
    """The zero-residual set of the squeezed-decay model is a +/- pair.

    A single jump operator C has zero residual exactly on its eigenvectors;
    C here is invertible with eigenvalues +/- e^{i theta/2} sqrt(sinh(2r)/2),
    so there are two distinct zero-residual states (related by
    theta -> theta + 2 pi in the candidate formula), not one.  Both share
    p_e = (1 + coth r)^(-1) and differ by the sign of the relative phase.
    """
    r, theta = 0.2, math.pi
    model = catalog_model(
        ModelSpec("squeezed_vacuum_decay", {"gamma0": 1.0, "r": r, "theta": theta})
    )
    reports = ppsd_search(model)
    assert len(reports) == 2
    candidate = squeezed_ppsd_state(r, theta)
    partner = squeezed_ppsd_state(r, theta + 2 * math.pi)
    fids = sorted(fidelity(rep.state, candidate) for rep in reports)
    assert fids[1] > 1.0 - 1e-8
    assert max(fidelity(rep.state, partner) for rep in reports) > 1.0 - 1e-8
    for rep in reports:
        assert not rep.is_stationary
        assert rep.verdict == "no_ppsd"
        assert abs(rep.state.amplitudes[0]) ** 2 == pytest.approx(
            1.0 / (1.0 + 1.0 / math.tanh(r)), abs=1e-9
        )


@pytest.mark.parametrize(
    "r, theta",
    # the grid r in {0.1, 0.5} x theta in {0, 2}, plus two off-grid cases
    [(0.1, 0.0), (0.1, 2.0), (0.5, 0.0), (0.5, 2.0), (0.3, 4.0), (0.5, 1.0)],
)
def test_search_resolves_squeezed_eigenvalue_modulus(r, theta):
    """Both rows of the +/- pair reach the modulus sqrt(sinh(2r)/2) to 1e-10,
    acceptance criterion 5's bound."""
    model = catalog_model(
        ModelSpec("squeezed_vacuum_decay", {"gamma0": 1.0, "r": r, "theta": theta})
    )
    reports = ppsd_search(model)
    assert len(reports) == 2
    for branch in (theta, theta + 2 * math.pi):
        target = squeezed_ppsd_state(r, branch)
        assert max(fidelity(rep.state, target) for rep in reports) > 1.0 - 1e-8
    C = model.terms[0].op.matrix
    modulus = math.sqrt(math.sinh(2.0 * r) / 2.0)
    for rep in reports:
        lam = np.vdot(rep.state.amplitudes, C @ rep.state.amplitudes)
        assert abs(abs(lam) - modulus) < 1e-10


def test_search_deterministic_for_fixed_seed():
    # the rows on every run, and the cross-check's count for one seed
    model = catalog_model(ModelSpec("squeezed_vacuum_decay", {}))
    first = ppsd_search(model)
    second = ppsd_search(catalog_model(ModelSpec("squeezed_vacuum_decay", {})))
    assert len(first) == len(second) == 2
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.state.amplitudes, b.state.amplitudes)
        assert a.residual == b.residual
        assert a.verdict == b.verdict
    config = SearchConfig(n_restarts=24, seed=5)
    subspaces = zero_residual_subspaces(model)
    assert unlisted_hits(model, subspaces, config) == unlisted_hits(model, subspaces, config)


@pytest.mark.parametrize(
    "spec, restarts, seed",
    [
        (ModelSpec("squeezed_vacuum_decay", {"r": 0.3, "theta": 1.0}), 16, 5),
        (ModelSpec("three_level_atom", {"N1": 0.0, "N2": 0.0}), 16, 3),
    ],
    ids=lambda p: p.name if isinstance(p, ModelSpec) else str(p),
)
def test_search_reports_rows_in_amplitude_order(spec, restarts, seed):
    # rows follow the rounded gauge-fixed amplitudes, and they are the
    # whole zero set: no restart of the cross-check ends off it
    model = catalog_model(spec)
    reports = ppsd_search(model)
    assert len(reports) == 2
    keys = [tuple(np.round(r.state.amplitudes.view(float), 10)) for r in reports]
    assert keys == sorted(keys)
    config = SearchConfig(n_restarts=restarts, seed=seed)
    assert unlisted_hits(model, zero_residual_subspaces(model), config) == 0


def test_search_rows_are_exact_basis_vectors():
    # the thermal ground state and the three-level N1 = N2 = 0 plane come
    # out as coordinate vectors, with no amplitude off them at all
    ground = ppsd_search(catalog_model(ModelSpec("thermal_qubit", {"N": 0.0})))
    assert [r.state.amplitudes.tolist() for r in ground] == [[0.0, 1.0]]
    plane = ppsd_search(catalog_model(ModelSpec("three_level_atom", {"N1": 0.0, "N2": 0.0})))
    assert [r.state.amplitudes.tolist() for r in plane] == [[0, 1, 0], [1, 0, 0]]
    assert all(r.verdict == "stationary_only" for r in ground + plane)


def test_search_nonnegative_residuals_and_report_invariants():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 2.0, "N": 0.0}))
    for rep in ppsd_search(model):
        assert rep.residual >= -1e-12
        if rep.verdict == "ppsd_trajectory":
            assert not rep.is_stationary


@pytest.mark.parametrize(
    "knobs, name",
    [({"n_restarts": 0}, "n_restarts"), ({"seed": -1}, "seed")],
    ids=["restarts-0", "seed-minus-1"],
)
def test_search_config_refuses_an_invalid_knob(knobs, name):
    # a negative seed would reach numpy's generator and raise its ValueError
    # from inside unlisted_hits
    with pytest.raises(InvariantViolation, match=name):
        SearchConfig(**knobs)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.3}),
        ModelSpec("three_level_atom", {}),
        ModelSpec("depolarizing", {"gamma_x": 0.5, "gamma_y": 1.0, "gamma_z": 1.5}),
        ModelSpec("squeezed_vacuum_decay", {}),
    ],
    ids=lambda s: s.name,
)
def test_search_gradient_stage_matches_central_differences(monkeypatch, spec):
    # F(x) = R(v/|v|) with x = (Re v, Im v): each restart of the cross-check
    # hands minimize its value and gradient together, and both must match
    # R and its central differences off the unit sphere as well as on it
    calls = []
    minimize = ppsd.minimize

    def recording(fun, x0, **kwargs):
        calls.append((fun, x0, kwargs))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(ppsd, "minimize", recording)
    model = catalog_model(spec)
    unlisted_hits(model, zero_residual_subspaces(model), SearchConfig(n_restarts=4, seed=3))
    assert len(calls) == 4
    assert all(kwargs["jac"] is True for _, _, kwargs in calls)
    fun, x0, _ = calls[0]
    d, eps = model.dim, 1e-6
    for x in (x0, x0 / np.linalg.norm(x0), 0.3 * x0, 2.5 * x0):
        value, grad = fun(x)
        v = x[:d] + 1j * x[d:]
        assert value == pytest.approx(ppsd_residual(model, StateVector.normalized(v)), rel=1e-12)
        numeric = np.empty(2 * d)
        for j in range(2 * d):
            step = np.zeros(2 * d)
            step[j] = eps * np.linalg.norm(x)
            along = [
                ppsd_residual(model, StateVector.normalized(y[:d] + 1j * y[d:]))
                for y in (x + step, x - step)
            ]
            numeric[j] = (along[0] - along[1]) / (2 * step[j])
        assert np.linalg.norm(numeric - grad) <= 1e-6 * np.linalg.norm(grad)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("phase_damped_oscillator", {"dim": 10}),
        ModelSpec("walls_collet_milburn", {"dim": 10}),
        ModelSpec("csl", {}),
    ],
    ids=lambda s: s.name,
)
def test_diagonal_search_is_the_exact_fixed_point_set(monkeypatch, spec):
    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal model ran a sphere-search restart")

    monkeypatch.setattr(ppsd, "minimize", refuse)
    reference = hermitian_lindblad_fixed_points(catalog_model(spec))
    model = catalog_model(spec)
    reports = ppsd_search(model)
    for seed in (0, 1):
        for restarts in (1, 160):
            config = SearchConfig(n_restarts=restarts, seed=seed)
            assert unlisted_hits(model, zero_residual_subspaces(model), config) is None
    assert "_jumps" not in model.__dict__
    assert len(reports) == len(reference)
    for ref in reference:
        matches = [r for r in reports if fidelity(r.state, ref) >= 1.0 - 1e-12]
        assert len(matches) == 1
    for rep in reports:
        assert rep.verdict == "stationary_only" and rep.is_stationary
        assert rep.consistency_gap == 0.0


def _diagonal_model(*diagonals):
    """H = 0 and one unit-rate jump operator per given diagonal."""
    dim = len(diagonals[0])
    return LindbladModel(
        hamiltonian=Operator(np.zeros((dim, dim))),
        terms=tuple(LindbladTerm(1.0, Operator.from_diagonal(d)) for d in diagonals),
        dim=dim,
    )


def test_zero_residual_subspaces_group_equal_signatures_exactly():
    # indices 0 and 2 share (1, 5); 1 and 3 differ from (2, 7) only in the
    # last bit of the first entry, which is a different signature
    model = _diagonal_model([1.0, 2.0, 1.0, 2.0 + 2**-51], [5.0, 7.0, 5.0, 7.0])
    subspaces = zero_residual_subspaces(model)
    assert [B.shape for B in subspaces] == [(4, 2), (4, 1), (4, 1)]
    assert np.array_equal(np.hstack(subspaces), np.eye(4)[:, [0, 2, 1, 3]])
    reports = ppsd_search(model)
    assert [int(np.argmax(np.abs(r.state.amplitudes))) for r in reports] == [0, 2, 1, 3]
    inside = StateVector.normalized([1.0, 0.0, 1.0j, 0.0])
    assert ppsd_residual(model, inside) < 1e-15 * residual_scale(model)
    across = StateVector.normalized([1.0, 1.0, 0.0, 0.0])
    assert ppsd_residual(model, across) == pytest.approx(0.25 + 1.0)


def test_diagonal_search_raises_rather_than_drops_a_basis_vector(monkeypatch):
    monkeypatch.setattr(ppsd, "is_stationary_state", lambda *args: False)
    with pytest.raises(InvariantViolation, match="not stationary"):
        ppsd_search(catalog_model(DEPHASING))


def test_search_raises_rather_than_drops_a_vector_above_the_gate(monkeypatch):
    # with a zero gate, the ground state's exact residual 0 fails it
    monkeypatch.setattr(ppsd, "PPSD_RESIDUAL_RTOL", 0.0)
    with pytest.raises(InvariantViolation, match="not below the gate"):
        ppsd_search(catalog_model(ModelSpec("thermal_qubit", {"N": 0.0})))


DIAGONAL_SPECS = (
    ModelSpec("dephasing_qubit", {"gamma": 0.7}),
    ModelSpec("phase_damped_oscillator", {"dim": 10}),
    ModelSpec("csl", {}),
    ModelSpec("grw", {}, GridSpec(-6.0, 6.0, 32)),
    ModelSpec("position_decoherence", {}, GridSpec(-5.0, 5.0, 32)),
)


@pytest.mark.parametrize("spec", DIAGONAL_SPECS, ids=lambda s: s.name)
def test_diagonal_residual_kernels_match_the_table(spec):
    model = catalog_model(spec)
    rates, L = catalog_model(spec)._jumps
    svd_scale = sum(rate * np.linalg.norm(op, 2) ** 2 for rate, op in zip(rates, L))
    scale = residual_scale(model)
    assert scale == pytest.approx(svd_scale, rel=1e-14)
    rng = np.random.default_rng(44)
    for _ in range(10):
        psi = random_state(rng, model.dim)
        expected = rates @ ppsd._stacked_moments(L, psi.amplitudes)[1]
        assert abs(ppsd_residual(model, psi) - expected) <= 1e-13 * scale
    report = consistency_check(model, random_state(rng, model.dim), t_max=0.5, n_steps=5)
    assert report.residual >= 0.0
    assert "_jumps" not in model.__dict__


def _projectors(subspaces):
    return [B @ B.conj().T for B in subspaces]


def _assert_same_subspaces(got, want):
    # each wanted projector matches exactly one returned one, to 1e-10
    assert len(got) == len(want)
    for P in _projectors(want):
        assert sum(np.linalg.norm(P - Q, 2) <= 1e-10 for Q in _projectors(got)) == 1


@pytest.mark.parametrize(
    "spec, dims",
    [
        (ModelSpec("thermal_qubit", {"N": 0.0}), [1]),
        (ModelSpec("damped_oscillator", {"N": 0.0, "dim": 10}), [1]),
        (ModelSpec("three_level_atom", {"N1": 0.0, "N2": 0.0}), [2]),
        (ModelSpec("multimode", {}), [1]),
        (ModelSpec("multimode", {"n_modes": 3}), [1]),
        (ModelSpec("squeezed_vacuum_decay", {}), [1, 1]),
        (ModelSpec("thermal_qubit", {"N": 0.3}), []),
        (ModelSpec("damped_oscillator", {"N": 0.3, "dim": 10}), []),
        (ModelSpec("three_level_atom", {}), []),
        (ModelSpec("depolarizing", {}), []),
        (ModelSpec("nonadiabatic_driven", {"dim": 16}), []),
    ],
    ids=[
        "thermal_ground", "oscillator_vacuum", "three_level_plane", "multimode_vacuum",
        "three_mode_vacuum", "squeezed_pair", "thermal_warm", "oscillator_warm",
        "three_level", "depolarizing", "nonadiabatic_driven",
    ],
)
def test_zero_residual_subspaces_of_non_diagonal_models(spec, dims):
    # orthonormal bases of exact joint eigenvectors: the thermal ground
    # state, the oscillator and multimode vacua, the three-level plane and
    # the squeezed pair; nothing where every residual is positive
    model = catalog_model(spec)
    subspaces = zero_residual_subspaces(model)
    assert [B.shape[1] for B in subspaces] == dims
    rates, L = model._jumps
    for B in subspaces:
        np.testing.assert_allclose(B.conj().T @ B, np.eye(B.shape[1]), atol=1e-12)
        for Li in L:
            # L_i maps the subspace into itself as a multiple of the identity
            C = B.conj().T @ Li @ B
            assert np.linalg.norm(Li @ B - B @ C) <= 1e-12 * np.linalg.norm(Li, 2)
            assert np.linalg.norm(C - C[0, 0] * np.eye(B.shape[1])) <= 1e-12 * np.linalg.norm(Li, 2)


def test_zero_residual_subspaces_of_a_dissipation_free_model_are_the_whole_space():
    model = catalog_model(ModelSpec("squeezed_vacuum_decay", {"gamma0": 0.0}))
    [B] = zero_residual_subspaces(model)
    assert np.array_equal(B @ B.conj().T, np.eye(2))
    assert ppsd_search(model) == []
    assert unlisted_hits(model, zero_residual_subspaces(model)) is None


@pytest.mark.parametrize(
    "spec",
    [
        s for s in DESK_SPECS
        if not isinstance(catalog_model(s).basis, GridSpec)
        and catalog_model(s)._diagonal_jumps is not None
    ],
    ids=lambda s: s.name,
)
def test_joint_eigenspaces_reproduce_the_signature_groups(spec):
    # the general routine, run on the jump stack of a diagonal model, finds
    # the groups of equal signature
    model = catalog_model(spec)
    assert model.dim <= 16
    _assert_same_subspaces(
        ppsd._joint_eigenspaces(model._jumps[1]), zero_residual_subspaces(model)
    )


def _rotated(model, U):
    """The model in the basis U: H -> U H U^dag, L -> U L U^dag."""
    def turn(op):
        return Operator(U @ op.matrix @ U.conj().T)

    terms = tuple(LindbladTerm(t.rate, turn(t.op)) for t in model.terms)
    return LindbladModel(turn(model.hamiltonian), terms, model.dim)


def _item_16(spec):
    # the ladder models list near-copies of their one zero state once rotated
    return pytest.param(spec, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 16: the rotated zero set has extra subspaces"))


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("walls_collet_milburn", {"dim": 6}),
        ModelSpec("csl", {}),
        ModelSpec("three_level_atom", {"N1": 0.0, "N2": 0.0}),
        ModelSpec("squeezed_vacuum_decay", {}),
        _item_16(ModelSpec("damped_oscillator", {"dim": 4})),
        _item_16(ModelSpec("thermal_qubit", {"N": 0.0})),
        _item_16(ModelSpec("multimode", {})),
    ],
    ids=lambda s: s.name,
)
def test_search_commutes_with_a_change_of_basis(spec):
    # a seeded random unitary makes a model non-diagonal, or mixes a
    # non-diagonal one; its zero set is U times the model's, with the same
    # verdicts
    model = catalog_model(spec)
    rng = np.random.default_rng(model.dim)
    U, _ = np.linalg.qr(
        rng.standard_normal((model.dim, model.dim))
        + 1j * rng.standard_normal((model.dim, model.dim))
    )
    rotated = _rotated(model, U)
    assert rotated._diagonal_jumps is None
    subspaces = zero_residual_subspaces(rotated)
    _assert_same_subspaces(subspaces, [U @ B for B in zero_residual_subspaces(model)])
    reports = ppsd_search(rotated)
    assert [r.state.amplitudes.tolist() for r in reports] == [
        v.tolist() for B in subspaces for v in B.T
    ]
    assert sorted(r.verdict for r in reports) == sorted(r.verdict for r in ppsd_search(model))


def test_search_driven_oscillator_respects_additive_bound():
    params = {"dim": 16, "alpha_kT": 0.5}
    model = catalog_model(ModelSpec("nonadiabatic_driven", params))
    reports = ppsd_search(model)
    assert reports == []  # residual floor is strictly positive
    bound = math.exp(-0.5)
    rng = np.random.default_rng(0)
    floor = min(
        ppsd_residual(model, random_state(rng, 16)) for _ in range(50)
    )
    assert floor >= bound - 1e-9


# ---------------------------------------------------------------------------
# unraveling and history chains
# ---------------------------------------------------------------------------


def test_unraveling_accepts_stationary_diagonal_decomposition():
    model = catalog_model(DEPHASING)
    times = np.linspace(0.0, 1.0, 11)
    basis0, basis1 = StateVector.basis(2, 0), StateVector.basis(2, 1)
    weights = np.tile([[0.3], [0.7]], (1, len(times)))
    res = unraveling_check(
        model, weights, [[basis0] * len(times), [basis1] * len(times)], times
    )
    assert res < 1e-8


def test_unraveling_rejects_frozen_decomposition_with_coherence():
    model = catalog_model(DEPHASING)
    times = np.linspace(0.0, 1.0, 11)
    rho10 = 0.3
    rho = np.array([[0.5, rho10], [rho10, 0.5]], dtype=complex)
    eigvals, eigvecs = np.linalg.eigh(rho)
    weights = np.tile(eigvals[:, None], (1, len(times)))
    trajs = [[StateVector(eigvecs[:, k])] * len(times) for k in range(2)]
    res = unraveling_check(model, weights, trajs, times)
    expected = 2.0 * 1.0 * rho10
    assert abs(res - expected) / expected < 0.1


def test_unraveling_single_trajectory_matches_consistency_semantics():
    model = catalog_model(DEPHASING)
    times = np.linspace(0.0, 1.0, 21)
    psi0 = StateVector.normalized([1.0, 1.0])
    path = evolve_pure_nonlinear(model, psi0, times)
    weights = np.ones((1, len(times)))
    res = unraveling_check(model, weights, [path], times)
    report = consistency_check(model, psi0, t_max=1.0, n_steps=20)
    # the defect rate of the single-trajectory candidate is the purity-loss
    # rate R along the path (both equal gamma here)
    assert res == pytest.approx(report.residual, rel=1e-6)


@pytest.mark.parametrize("t0", [0.0, 1.0])
def test_unraveling_check_scales_the_weight_derivative_on_a_non_uniform_grid(t0):
    # the stationary projectors carry weights (1 +- e^-t)/2, so the mismatch
    # is the weights' derivative alone, largest at the first interior time
    model = catalog_model(DEPHASING)
    times = t0 + np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.8])
    p0 = 0.5 * (1.0 + np.exp(-times))
    trajs = [[StateVector.basis(2, k)] * len(times) for k in range(2)]
    res = unraveling_check(model, np.array([p0, 1.0 - p0]), trajs, times)
    assert res == pytest.approx(0.5 * math.exp(-times[1]), abs=2e-3)


def test_unraveling_validates_weights_and_grid():
    model = catalog_model(DEPHASING)
    basis0 = StateVector.basis(2, 0)
    with pytest.raises(InvariantViolation):
        unraveling_check(model, np.array([[0.5, 0.5]]), [[basis0] * 2], [0.0, 1.0])
    bad_weights = np.array([[0.6, 0.6, 0.6], [0.3, 0.3, 0.3]])
    with pytest.raises(InvariantViolation):
        unraveling_check(
            model, bad_weights, [[basis0] * 3, [basis0] * 3], [0.0, 0.5, 1.0]
        )


def test_history_chain_repeated_projection():
    psi0 = StateVector.basis(2, 0)
    proj = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
    chain = history_chain(psi0, [0.5, 1.0, 1.5], [proj, proj, proj])
    assert chain.chain_weight == pytest.approx(1.0, abs=1e-14)
    for s in chain.chain_states:
        assert fidelity(s, psi0) == pytest.approx(1.0, abs=1e-14)


def test_history_chain_orthogonal_annihilation():
    psi0 = StateVector.basis(2, 0)
    p0 = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
    e1 = StateVector.basis(2, 1)
    p1 = np.outer(e1.amplitudes, e1.amplitudes.conj())
    chain = history_chain(psi0, [0.5, 1.0], [p0, p1])
    assert chain.chain_weight == 0.0
    assert len(chain.chain_states) == 1


def test_history_chain_born_weight():
    psi0 = StateVector.normalized([1.0, 1.0])
    target = StateVector.basis(2, 0)
    proj = np.outer(target.amplitudes, target.amplitudes.conj())
    chain = history_chain(psi0, [1.0], [proj])
    assert chain.chain_weight == pytest.approx(0.5, abs=1e-14)
    assert fidelity(chain.chain_states[0], target) == pytest.approx(1.0, abs=1e-14)


def test_history_chain_rejects_non_projector():
    psi0 = StateVector.basis(2, 0)
    with pytest.raises(InvariantViolation):
        history_chain(psi0, [1.0], [np.array([[0.5, 0.0], [0.0, 0.5]])])


# ---------------------------------------------------------------------------
# catalog-wide residual properties
# ---------------------------------------------------------------------------


def test_residual_nonnegative_across_catalog_sample():
    from tests_support import desk_catalog

    rng = np.random.default_rng(31415)
    for model in desk_catalog():
        for _ in range(100):
            psi = random_state(rng, model.dim)
            assert ppsd_residual(model, psi) >= -1e-12


def test_residual_scale_positive_for_dissipative_models():
    model = catalog_model(DEPHASING)
    assert residual_scale(model) == pytest.approx(1.0)  # gamma * ||Z||^2


def test_is_stationary_state_examples():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    assert is_stationary_state(model, StateVector.basis(2, 1))
    assert not is_stationary_state(model, StateVector.basis(2, 0))
