"""Generator construction, propagation, stationary structure, unitality."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import ppsd_lab.lindblad as lindblad
from ppsd_lab import (
    DensityMatrix,
    DimensionMismatch,
    GridSpec,
    IntegrationFailure,
    InvariantViolation,
    LindbladModel,
    LindbladTerm,
    ModelSpec,
    Operator,
    StateVector,
    catalog_model,
    coherent_state,
    dephasing_closed_form,
    is_unital,
    liouvillian_action,
    liouvillian_matrix,
    liouvillian_norm,
    null_space_dimension,
    pauli_operators,
    position_closed_form,
    propagate,
    stationary_states,
    stationarity_defect,
)
from tests_support import DESK_SPECS, desk_catalog, kronecker_generator, stored_coefficients


def random_density(rng, dim) -> DensityMatrix:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace().real)


DESK_MODELS = [
    ModelSpec("dephasing_qubit", {"gamma": 1.0}),
    ModelSpec("position_decoherence", {"gamma": 1.0}, GridSpec(-4.0, 4.0, 24)),
    ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.5}),
    ModelSpec("damped_oscillator", {"gamma0": 1.0, "N": 0.3, "dim": 8}),
    ModelSpec("three_level_atom", {}),
    ModelSpec("multimode", {"n_modes": 2, "mode_dim": 3, "N_1": 0.2}),
    ModelSpec("phase_damped_oscillator", {"dim": 8}),
    ModelSpec("depolarizing", {}),
    ModelSpec("squeezed_vacuum_decay", {}),
    ModelSpec("nonadiabatic_driven", {"dim": 10}),
    ModelSpec("walls_collet_milburn", {"dim": 8}),
    ModelSpec("grw", {}, GridSpec(-6.0, 6.0, 24)),
    ModelSpec("csl", {}),
]


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_dephasing_liouvillian_eigenvalues():
    model = catalog_model(ModelSpec("dephasing_qubit", {"gamma": 1.0}))
    eigs = np.sort(np.linalg.eigvals(liouvillian_matrix(model)).real)
    np.testing.assert_allclose(eigs, [-2.0, -2.0, 0.0, 0.0], atol=1e-12)


def test_zero_model_gives_zero_generator():
    model = LindbladModel(Operator(np.zeros((2, 2))), (), dim=2)
    np.testing.assert_allclose(liouvillian_matrix(model), np.zeros((4, 4)))


def test_trace_functional_is_left_null_vector():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    sup = liouvillian_matrix(model)
    trace_row = np.eye(2, dtype=complex).reshape(-1) @ sup
    assert np.abs(trace_row).max() < 1e-12


@pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: s.name)
def test_generator_preserves_the_trace(spec):
    # vec(I)^T L = 0: the trace functional is a left null vector of every
    # catalog generator, within 1e-10 of the entry scale
    model = catalog_model(spec)
    sup = liouvillian_matrix(model)
    trace_row = np.eye(model.dim, dtype=complex).reshape(-1) @ sup
    assert np.abs(trace_row).max() <= 1e-10 * max(1.0, np.abs(sup).max())


def test_matrix_and_action_agree_row_major():
    rng = np.random.default_rng(0)
    for spec in (DESK_MODELS[0], DESK_MODELS[3], DESK_MODELS[4], DESK_MODELS[8]):
        model = catalog_model(spec)
        sup = kronecker_generator(model)
        rho = random_density(rng, model.dim).matrix
        via_matrix = (sup @ rho.reshape(-1)).reshape(model.dim, model.dim)
        np.testing.assert_allclose(
            via_matrix, liouvillian_action(model, rho), atol=1e-12
        )


@pytest.mark.parametrize(
    "spec",
    DESK_MODELS
    + [ModelSpec("damped_oscillator", {"N": 0.3, "dim": d}) for d in (24, 40)],
    ids=lambda s: f"{s.name}-{s.params['dim']}" if "dim" in s.params else s.name,
)
def test_sparse_generator_matches_dense(spec):
    # a diagonal model's generator is vec(c) on the diagonal, which differs
    # from the Kronecker sum by roundoff (7.1e-15 on 24-point
    # position_decoherence); any other model's is the same sum
    model = catalog_model(spec)
    reference = kronecker_generator(model)
    err = np.abs(liouvillian_matrix(model) - reference).max()
    if model._diagonal_jumps is None:
        assert err <= 1e-15
    else:
        assert err <= 1e-13 * np.abs(reference).max()
    assert liouvillian_norm(model) == pytest.approx(np.linalg.norm(reference), rel=1e-14)


def test_generator_kernels_leave_the_dissipator_table_unbuilt():
    # a diagonal model's generator stores its entrywise coefficients;
    # the jump stack would hold a dense 64 x 64 L for each of the 64 terms
    model = catalog_model(ModelSpec("grw", {}, GridSpec(-5.0, 5.0, 64)))
    rho = DensityMatrix.maximally_mixed(64).matrix
    liouvillian_action(model, rho)
    assert liouvillian_norm(model) > 0
    stationarity_defect(model, rho)
    assert "_generator" in model.__dict__
    assert "_jumps" not in model.__dict__


def test_diagonal_coefficients_vanish_on_the_diagonal():
    # the populations of a diagonal model are constants of motion, so
    # c_ii is exactly 0, not roundoff that exp(c t) amplifies
    diagonal = [m for m in desk_catalog() if m._diagonal_jumps is not None]
    assert len(diagonal) == 6
    for model in diagonal:
        assert not np.diag(stored_coefficients(model)).any(), model.label


def test_negative_rate_rejected():
    _, _, sz, _, _ = pauli_operators()
    with pytest.raises(InvariantViolation):
        LindbladTerm(-0.5, sz)


def test_non_hermitian_hamiltonian_rejected():
    _, _, _, sp, _ = pauli_operators()
    with pytest.raises(InvariantViolation):
        LindbladModel(sp, (), dim=2)


def test_model_basis_must_match_its_dimension():
    assert LindbladModel(np.zeros((2, 2)), (), dim=2).basis == "levels"
    assert LindbladModel(np.zeros((2, 2)), (), dim=2, basis="qubit").basis == "qubit"
    grid = GridSpec(-1.0, 1.0, 8)
    assert LindbladModel(np.zeros((8, 8)), (), dim=8, basis=grid).basis == grid
    with pytest.raises(DimensionMismatch):
        LindbladModel(np.zeros((3, 3)), (), dim=3, basis="qubit")
    with pytest.raises(DimensionMismatch):
        LindbladModel(np.zeros((9, 9)), (), dim=9, basis=grid)
    with pytest.raises(InvariantViolation):
        LindbladModel(np.zeros((2, 2)), (), dim=2, basis="grid")


# ---------------------------------------------------------------------------
# propagation against closed forms
# ---------------------------------------------------------------------------


def test_propagate_matches_dephasing_closed_form():
    gamma = 1.0
    model = catalog_model(ModelSpec("dephasing_qubit", {"gamma": gamma}))
    rng = np.random.default_rng(42)
    times = np.linspace(0.0, 2.0, 9)
    for _ in range(20):
        rho0 = random_density(rng, 2)
        traj = propagate(model, rho0, times)
        for t, state in zip(times, traj.states):
            np.testing.assert_allclose(
                state.matrix,
                dephasing_closed_form(rho0, gamma, t).matrix,
                atol=1e-9,
            )


def test_propagate_off_diagonal_value():
    model = catalog_model(ModelSpec("dephasing_qubit", {"gamma": 1.0}))
    rho0 = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    traj = propagate(model, rho0, [0.0, 0.5])
    assert traj.states[-1].matrix[0, 1].real == pytest.approx(
        0.5 * math.exp(-1.0), abs=1e-12
    )
    assert traj.states[-1].matrix[0, 1].real == pytest.approx(0.183940, abs=1e-6)


def test_propagate_time_zero_is_identity():
    model = catalog_model(ModelSpec("depolarizing", {}))
    rho0 = random_density(np.random.default_rng(5), 2)
    traj = propagate(model, rho0, [0.0])
    np.testing.assert_allclose(traj.states[0].matrix, rho0.matrix, atol=1e-14)


def test_amplitude_damping_relaxes_to_ground():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    excited = DensityMatrix.from_state(StateVector.basis(2, 0))
    traj = propagate(model, excited, [0.0, 20.0])
    ground = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(traj.states[-1].matrix, ground, atol=1e-8)


def test_position_model_matches_gaussian_decay():
    grid = GridSpec(-5.0, 5.0, 64)
    gamma = 1.0
    model = catalog_model(ModelSpec("position_decoherence", {"gamma": gamma}, grid))
    x = grid.points
    psi = StateVector.normalized(np.exp(-(x**2) / (4 * 0.7**2)))
    rho0 = DensityMatrix.from_state(psi)
    traj = propagate(model, rho0, [0.0, 0.3, 1.0])
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_allclose(
            state.matrix,
            position_closed_form(rho0, grid, gamma, t).matrix,
            atol=1e-9,
        )


def test_non_ascending_times_rejected():
    model = catalog_model(ModelSpec("dephasing_qubit", {}))
    rho0 = DensityMatrix.maximally_mixed(2)
    with pytest.raises(InvariantViolation):
        propagate(model, rho0, [0.0, 1.0, 0.5])


def test_purity_trajectory_dephasing_decay_law():
    model = catalog_model(ModelSpec("dephasing_qubit", {"gamma": 1.0}))
    rho0 = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    times = np.linspace(0.0, 2.0, 21)
    traj = propagate(model, rho0, times)
    np.testing.assert_allclose(
        traj.purities, 0.5 * (1.0 + np.exp(-4.0 * traj.times)), atol=1e-10
    )


def test_purity_trajectory_constant_for_stationary_starts():
    model = catalog_model(ModelSpec("dephasing_qubit", {"gamma": 1.0}))
    diag = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    purities = propagate(model, diag, np.linspace(0, 3, 7)).purities
    np.testing.assert_allclose(purities, purities[0], atol=1e-12)
    pure = DensityMatrix.from_state(StateVector.basis(2, 0))
    pure_p = propagate(model, pure, np.linspace(0, 3, 7)).purities
    np.testing.assert_allclose(pure_p, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# trajectory invariants across the catalog
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", DESK_MODELS, ids=lambda s: s.name)
def test_catalog_trajectories_keep_invariants(spec):
    model = catalog_model(spec)
    rng = np.random.default_rng(hash(spec.name) % 2**32)
    rho0 = random_density(rng, model.dim)
    times = np.linspace(0.0, 2.0, 9)
    traj = propagate(model, rho0, times)
    for state in traj.states:
        assert abs(state.matrix.trace().real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(state.matrix).min() > -1e-8


@pytest.mark.parametrize(
    "spec",
    [DESK_MODELS[0], DESK_MODELS[2], DESK_MODELS[3], DESK_MODELS[4], DESK_MODELS[8]],
    ids=lambda s: s.name,
)
def test_semigroup_property(spec):
    model = catalog_model(spec)
    rng = np.random.default_rng(2718)
    rho0 = random_density(rng, model.dim)
    for _ in range(50):
        t, s = rng.uniform(0.05, 1.5, size=2)
        one_shot = propagate(model, rho0, [t + s]).states[-1].matrix
        first = propagate(model, rho0, [t]).states[-1]
        second = propagate(model, first, [s]).states[-1].matrix
        np.testing.assert_allclose(second, one_shot, atol=1e-8)


@pytest.mark.parametrize("spec", DESK_MODELS, ids=lambda s: s.name)
def test_exact_and_rk_methods_agree(spec):
    model = catalog_model(spec)
    rng = np.random.default_rng(99)
    rho0 = random_density(rng, model.dim)
    scale = max((t.rate for t in model.terms), default=1.0)
    times = np.linspace(0.0, 5.0 / scale, 6)
    exact = propagate(model, rho0, times, method="exact_exponential")
    rk = propagate(model, rho0, times, method="adaptive_rk")
    for a, b in zip(exact.states, rk.states):
        assert np.abs(a.matrix - b.matrix).max() < 1e-7


# ---------------------------------------------------------------------------
# sparse propagation above DENSE_GENERATOR_MAX_DIM
# ---------------------------------------------------------------------------

#: Every grid lies on multiples of STEP, so one dense expm(STEP L) is the
#: oracle for all of them: uniform, non-uniform (with a repeated time), a
#: single time point, and one that starts at t0 > 0, long against its span.
#: The last catches a [0, t0] leg applied twice, and one taken with the
#: scaling chosen for the span (5e-9 off at d = 24).
STEP = 0.1
SPARSE_GRIDS = {
    "uniform": np.linspace(0.0, 1.5, 16),
    "non_uniform": np.array([0.0, 0.1, 0.3, 0.3, 0.7, 1.5]),
    "late_start": np.linspace(1.2, 1.5, 4),
    "single": np.array([0.7]),
}


SPARSE_SPECS = [
    ModelSpec("damped_oscillator", {"N": 0.3, "dim": 24}),
    ModelSpec("damped_oscillator", {"N": 0.3, "dim": 40}),
    ModelSpec("nonadiabatic_driven", {"dim": 24}),
    ModelSpec("multimode", {"n_modes": 2, "mode_dim": 5, "N_1": 0.2, "N_2": 0.4}),
]


def _sparse_id(spec):
    return f"{spec.name}-{spec.params.get('dim', spec.params.get('mode_dim'))}"


@pytest.mark.parametrize("spec", SPARSE_SPECS, ids=_sparse_id)
def test_sparse_propagation_matches_dense_expm(spec):
    model = catalog_model(spec)
    d = model.dim
    assert d > lindblad.DENSE_GENERATOR_MAX_DIM
    rho0 = random_density(np.random.default_rng(d), d)
    step = expm(liouvillian_matrix(model) * STEP)
    oracle = [rho0.matrix.reshape(-1)]
    for _ in range(15):
        oracle.append(step @ oracle[-1])
    for name, times in SPARSE_GRIDS.items():
        traj = propagate(model, rho0, times)
        for t, state in zip(times, traj.states):
            expected = oracle[round(t / STEP)].reshape(d, d)
            err = np.abs(state.matrix - expected).max()
            assert err < 1e-12, (name, t, err)


def test_sparse_propagation_ignores_the_global_random_state():
    model = catalog_model(ModelSpec("damped_oscillator", {"N": 0.3, "dim": 24}))
    rho0 = DensityMatrix.from_state(coherent_state(0.6 - 0.4j, 24))
    runs = []
    for seed in (0, 1, 2):
        np.random.seed(seed)
        runs.append(np.array([s.matrix for s in propagate(model, rho0, np.linspace(0, 1.5, 31)).states]))
    assert all(np.array_equal(runs[0], r) for r in runs[1:])


#: Past SPARSE_GRIDS: 101 points on [0, 1.5], where one block of Taylor
#: terms gives several points (q > s), and a long horizon, where each
#: interval takes several scaled steps (q <= s).  The horizon is 20, not
#: longer: roundoff grows with the step count, and by t = 50 the kernel
#: and scipy each sit 5e-14 to 7e-14 from a dense expm at d = 40, which
#: puts them 1.1e-13 apart.
KERNEL_GRIDS = dict(
    SPARSE_GRIDS, simulate=np.linspace(0.0, 1.5, 101), long=np.linspace(0.0, 20.0, 11)
)


@pytest.mark.parametrize(
    "model",
    [
        *map(catalog_model, SPARSE_SPECS),
        LindbladModel(hamiltonian=Operator(np.zeros((24, 24))), terms=(), dim=24),
    ],
    ids=[*map(_sparse_id, SPARSE_SPECS), "zero"],
)
def test_sparse_kernel_matches_scipy_expm_multiply(model, monkeypatch):
    # scipy's implementation of the same algorithm (its norm-estimate
    # branch included) is an independent oracle, one call per time point
    from scipy.sparse.linalg import expm_multiply

    d = model.dim
    rho0 = random_density(np.random.default_rng(d + 1), d).matrix
    taylor_block, blocks = lindblad._taylor_block, []

    def spy(A, mu, z, h, count, K):
        blocks.append(count)
        return taylor_block(A, mu, z, h, count, K)

    monkeypatch.setattr(lindblad, "_taylor_block", spy)
    for name, times in KERNEL_GRIDS.items():
        blocks.clear()
        got = np.array(list(lindblad._propagate_sparse(model, rho0, times)))
        want = np.array([expm_multiply(model._generator * t, rho0.reshape(-1)) for t in times])
        assert got.shape == (times.size, d, d)
        err = np.abs(got.reshape(want.shape) - want).max()
        assert err <= 1e-13 * np.abs(want).max(), (name, err)
        if name == "simulate":
            assert max(blocks) > 1
        if name == "long" and model.terms:
            assert len(blocks) > times.size and max(blocks) == 1


def test_sparse_states_kept_by_the_caller_do_not_change(monkeypatch):
    # each point of a Taylor block is formed when it is yielded, from the one
    # term buffer that every later block rewrites; no yielded state may alias
    # that buffer or an earlier state
    model = catalog_model(SPARSE_SPECS[0])
    rho0 = random_density(np.random.default_rng(5), model.dim).matrix
    taylor_block, blocks, buffers = lindblad._taylor_block, [], []

    def spy(A, mu, z, h, count, K):
        blocks.append(count)
        buffers.append(K)
        return taylor_block(A, mu, z, h, count, K)

    monkeypatch.setattr(lindblad, "_taylor_block", spy)
    kept, copies = [], []
    for state in lindblad._propagate_sparse(model, rho0, np.linspace(0.0, 1.5, 101)):
        kept.append(state)
        copies.append(state.copy())
    assert len(kept) == 101 and len(blocks) > 2 and max(blocks) > 1
    assert all(np.array_equal(k, c) for k, c in zip(kept, copies))
    # every block writes its terms into slices of one buffer
    assert not any(np.shares_memory(k, buffers[0]) for k in kept)
    assert not any(np.shares_memory(a, b) for a, b in zip(kept, kept[1:]))


def test_large_non_diagonal_run_stays_exact_and_sparse(monkeypatch):
    # the former d = 80 DOP853 fallback tripped the negativity gate here
    model = catalog_model(ModelSpec("damped_oscillator", {"N": 0.483216, "dim": 80}))
    rho0 = DensityMatrix.from_state(coherent_state(-0.159641 - 1.12669j, 80))

    def refuse(*_args, **_kwargs):
        raise AssertionError("dense generator or RK integrator used")

    for name in ("solve_ivp", "expm", "liouvillian_matrix"):
        monkeypatch.setattr(lindblad, name, refuse)
    traj = propagate(model, rho0, np.linspace(0.0, 1.0, 21))
    assert min(np.linalg.eigvalsh(s.matrix).min() for s in traj.states) > -1e-12
    assert liouvillian_norm(model) > 0


def test_diagonal_propagation_never_builds_the_dissipator_table():
    # the jump stack holds a dense L for each of the 256 grid terms; the entrywise
    # path reads only the diagonal generator, formed from the stored
    # diagonals without densifying a single term
    model = catalog_model(ModelSpec("grw", {}, GridSpec(-5.0, 5.0, 256)))
    propagate(model, DensityMatrix.maximally_mixed(256), np.linspace(0.0, 1.0, 3))
    assert "_generator" in model.__dict__
    assert "_jumps" not in model.__dict__
    assert not any("matrix" in t.op.__dict__ for t in model.terms)


def test_entrywise_propagation_holds_one_raw_state_at_a_time():
    # 51 raw 256 x 256 states held at once would take 27 MB above the output
    grid = GridSpec(-5.0, 5.0, 256)
    model = catalog_model(ModelSpec("position_decoherence", {}, grid))
    rho0 = _gaussian_density(grid)
    assert model._diagonal_jumps is not None
    tracemalloc.start()
    try:
        traj = propagate(model, rho0, np.linspace(0.0, 1.0, 51))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.states) == 51 and traj.path == "entrywise"
    assert peak - kept < 16 * 2**20


def test_real_grid_trajectory_holds_float64_states():
    # 51 complex 256 x 256 states hold 51 MiB, float64 ones 25.5 MiB
    grid = GridSpec(-5.0, 5.0, 256)
    model = catalog_model(ModelSpec("position_decoherence", {}, grid))
    rho0 = _gaussian_density(grid)
    tracemalloc.start()
    try:
        traj = propagate(model, rho0, np.linspace(0.0, 1.5, 51))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traj.path == "entrywise"
    assert all(s.matrix.dtype == np.float64 for s in traj.states)
    assert kept < 30 * 2**20


def _gaussian_density(grid, x0=0.3, sigma=0.7):
    x = grid.points
    return DensityMatrix.from_state(StateVector.normalized(np.exp(-((x - x0) ** 2) / (4 * sigma**2))))


@pytest.mark.parametrize("name", ["position_decoherence", "grw"])
def test_real_entrywise_propagation_matches_the_complex_expression(name):
    grid = GridSpec(-5.0, 5.0, 64)
    model = catalog_model(ModelSpec(name, {}, grid))
    rho0 = _gaussian_density(grid).matrix
    c = stored_coefficients(model)
    times = np.linspace(0.0, 1.0, 11)
    for t, out in zip(times, lindblad._propagate_exact(model, rho0, times)):
        ref = rho0 * np.exp(c * t)
        assert out.dtype == np.float64
        assert np.all(np.abs(out - ref) <= 1e-14 * np.abs(ref))


def test_complex_entrywise_propagation_keeps_the_complex_expression():
    # H = omega0 N makes the coefficients complex
    model = catalog_model(ModelSpec("phase_damped_oscillator", {"dim": 10}))
    rho0 = random_density(np.random.default_rng(4), 10).matrix
    c = stored_coefficients(model)
    assert c.imag.any()
    times = np.linspace(0.0, 1.0, 11)
    for t, out in zip(times, lindblad._propagate_exact(model, rho0, times)):
        assert np.array_equal(out, rho0 * np.exp(c * t))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "spec", [ModelSpec("dephasing_qubit", {}), ModelSpec("phase_damped_oscillator", {"dim": 6})],
    ids=["real", "complex"],
)
def test_entrywise_propagation_at_the_float_limit_keeps_only_the_populations(spec):
    # c t overflows to -inf at t = 1e308 unless the exponent is clipped; the
    # populations are constants of motion and every coherence has decayed
    model = catalog_model(spec)
    if model.dim == 2:
        rho0 = np.full((2, 2), 0.5)
    else:
        rho0 = random_density(np.random.default_rng(5), model.dim).matrix
    times = np.array([0.0, 1.0, 1e308])
    states = list(lindblad._propagate_exact(model, rho0, times))
    assert np.array_equal(states[1], rho0 * np.exp(stored_coefficients(model) * 1.0))
    assert np.array_equal(states[2], np.diag(np.diag(rho0)))


@pytest.mark.parametrize(
    "spec, method, path",
    [
        (ModelSpec("dephasing_qubit", {"gamma": 1.0}), "exact_exponential", "entrywise"),
        (ModelSpec("thermal_qubit", {"N": 0.3}), "exact_exponential", "dense_expm"),
        (ModelSpec("damped_oscillator", {"N": 0.3, "dim": 24}), "exact_exponential",
         "sparse_expm_multiply"),
        (ModelSpec("thermal_qubit", {"N": 0.3}), "adaptive_rk", "adaptive_rk"),
    ],
    ids=["entrywise", "dense_expm", "sparse_expm_multiply", "adaptive_rk"],
)
def test_trajectory_records_the_path_that_ran(spec, method, path):
    model = catalog_model(spec)
    traj = propagate(model, DensityMatrix.maximally_mixed(model.dim), np.linspace(0, 0.5, 3), method)
    assert traj.path == path
    assert traj.trace_errors.shape == (3,)


def test_sparse_propagation_leaves_the_global_random_state_alone():
    model = catalog_model(ModelSpec("damped_oscillator", {"N": 0.3, "dim": 24}))
    rho0 = DensityMatrix.from_state(coherent_state(0.6 - 0.4j, 24))
    np.random.seed(7)
    before = np.random.get_state()
    propagate(model, rho0, np.linspace(0.0, 1.5, 31))
    after = np.random.get_state()
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])


DIAGONAL_SPECS = [
    ModelSpec("dephasing_qubit", {"gamma": 1.0}),
    ModelSpec("position_decoherence", {"gamma": 1.0}, GridSpec(-5.0, 5.0, 32)),
    ModelSpec("phase_damped_oscillator", {"dim": 10}),
    ModelSpec("grw", {}, GridSpec(-5.0, 5.0, 32)),
    ModelSpec("csl", {}),
]


@pytest.mark.parametrize("spec", DIAGONAL_SPECS, ids=lambda s: s.name)
def test_diagonal_coefficients_are_the_generator_diagonal(spec):
    model = catalog_model(spec)
    sup = kronecker_generator(model)
    assert not np.any(sup - np.diag(np.diag(sup)))
    diag = np.diag(sup)
    got = stored_coefficients(model).reshape(-1)
    assert np.abs(got - diag).max() <= 1e-13 * np.abs(diag).max()
    # one stored diagonal at offset 0, no index arrays
    gen = model._generator
    assert gen.format == "dia" and gen.offsets.tolist() == [0]
    assert gen.data.shape == (1, model.dim**2)


def test_diagonal_jumps_stack_the_nonzero_rate_diagonals():
    model = catalog_model(ModelSpec("grw", {}, GridSpec(-5.0, 5.0, 32)))
    rates, ell = model._diagonal_jumps
    assert rates.shape == (32,) and ell.shape == (32, 32)
    for k, (rate, L) in enumerate(zip(*model._jumps)):
        assert rates[k] == rate
        assert np.array_equal(ell[k], np.diag(L))


def test_jumps_stack_the_nonzero_rate_operators_read_only():
    model = catalog_model(ModelSpec("three_level_atom", {}))
    off = np.zeros((3, 3), dtype=complex)
    off[0, 1] = 1.0
    padded = LindbladModel(
        model.hamiltonian, (LindbladTerm(0.0, Operator(off)),) + model.terms, model.dim
    )
    rates, L = padded._jumps
    assert rates.shape == (len(model.terms),) and L.shape == (len(model.terms), 3, 3)
    assert not rates.flags.writeable and not L.flags.writeable
    for k, term in enumerate(model.terms):
        assert rates[k] == term.rate
        assert np.array_equal(L[k], term.op.matrix)


@pytest.mark.parametrize("spec", DESK_MODELS, ids=lambda s: s.name)
def test_diagonal_jumps_predicate_covers_every_operator(spec):
    model = catalog_model(spec)
    mats = [model.hamiltonian.matrix] + [t.op.matrix for t in model.terms]
    diagonal = all(not np.any(m - np.diag(np.diag(m))) for m in mats)
    assert (model._diagonal_jumps is not None) == diagonal
    assert (model._generator.format == "dia") == diagonal
    if diagonal:
        # a zero-rate off-diagonal term adds nothing to the generator, yet
        # still makes the model non-diagonal
        off = np.zeros((model.dim, model.dim), dtype=complex)
        off[0, 1] = 1.0
        padded = LindbladModel(
            model.hamiltonian, model.terms + (LindbladTerm(0.0, Operator(off)),), model.dim
        )
        assert padded._diagonal_jumps is None
        assert padded._generator.format == "csr"


# ---------------------------------------------------------------------------
# stationary structure and unitality
# ---------------------------------------------------------------------------


def test_stationary_states_takes_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    assert len(stationary_states(model)) == 1
    assert len(calls) == 1


def test_dephasing_null_space_dimension_two():
    model = catalog_model(ModelSpec("dephasing_qubit", {"gamma": 1.0}))
    assert null_space_dimension(model) == 2
    states = stationary_states(model)
    assert len(states) >= 2
    stacked = np.array([s.matrix.reshape(-1) for s in states])
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == 2
    for s in states:
        assert np.abs(s.matrix - np.diag(np.diag(s.matrix))).max() < 1e-10


def test_amplitude_damping_unique_ground_stationary():
    model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0}))
    states = stationary_states(model)
    assert len(states) == 1
    np.testing.assert_allclose(states[0].matrix, np.diag([0.0, 1.0]), atol=1e-10)


def test_damped_oscillator_vacuum_stationary():
    model = catalog_model(ModelSpec("damped_oscillator", {"gamma0": 1.0, "N": 0.0, "dim": 10}))
    states = stationary_states(model)
    assert len(states) == 1
    vacuum = np.zeros((10, 10), dtype=complex)
    vacuum[0, 0] = 1.0
    np.testing.assert_allclose(states[0].matrix, vacuum, atol=1e-9)


def test_unitality_examples():
    assert is_unital(catalog_model(ModelSpec("dephasing_qubit", {})))
    assert is_unital(catalog_model(ModelSpec("depolarizing", {})))
    assert not is_unital(catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.0})))


@pytest.mark.parametrize("spec", DESK_MODELS, ids=lambda s: s.name)
def test_unital_models_never_gain_purity(spec):
    model = catalog_model(spec)
    rng = np.random.default_rng(1234)
    times = np.linspace(0.0, 2.0, 16)
    if is_unital(model):
        for _ in range(5):
            traj = propagate(model, random_density(rng, model.dim), times)
            assert np.diff(traj.purities).max() <= 1e-9
    else:
        traj = propagate(model, DensityMatrix.maximally_mixed(model.dim), times)
        assert traj.purities.max() > traj.purities[0] + 1e-6


def _gate_input(min_eig):
    """Hermitian, unit-trace 3x3 matrix with smallest eigenvalue min_eig."""
    c, s = math.cos(0.7), math.sin(0.7)
    u = np.array([[c, -1j * s, 0], [-1j * s, c, 0], [0, 0, 1]]) @ np.array(
        [[1, 0, 0], [0, c, s], [0, -s, c]]
    )
    m = u @ np.diag([0.6 - min_eig, 0.4, min_eig]) @ u.conj().T
    return (m + m.conj().T) / 2


def test_propagation_gate_rejects_negativity_beyond_1e_8():
    with pytest.raises(IntegrationFailure) as exc:
        lindblad._validated_state(_gate_input(-5e-8), 0.25)
    assert str(exc.value) == "negativity -5.000e-08 at t=0.25"


def test_propagation_gate_passes_negativity_below_1e_8_and_keeps_it():
    state, _ = lindblad._validated_state(_gate_input(-5e-9), 0.25)
    assert state.min_eigenvalue == pytest.approx(-5e-9, abs=1e-15)
    assert state.min_eigenvalue == np.linalg.eigvalsh(state.matrix).min()
    assert state.matrix.trace().real == pytest.approx(1.0, abs=1e-15)


def test_propagation_gate_rejects_trace_error_beyond_1e_8():
    with pytest.raises(IntegrationFailure, match="trace error 2.000e-08 at t=1.0"):
        lindblad._validated_state(_gate_input(0.0) * (1 + 2e-8), 1.0)
