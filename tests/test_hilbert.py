"""Hilbert-space primitives: operators, states, and standard constructions."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsd_lab import (
    DensityMatrix,
    GridSpec,
    InvariantViolation,
    Operator,
    StateVector,
    TruncationInsufficient,
    coherent_state,
    expectation,
    fock_operators,
    pauli_operators,
    position_operator,
    purity,
    variance,
)
from ppsd_lab.errors import DimensionMismatch


def test_density_matrix_min_eigenvalue_is_its_spectrum_bound():
    rng = np.random.default_rng(5)
    for dim in (2, 5, 16):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = a @ a.conj().T
        m = (m + m.conj().T) / (2 * m.trace().real)
        rho = DensityMatrix(m)
        assert rho.min_eigenvalue == np.linalg.eigvalsh(m).min()
        with pytest.raises(FrozenInstanceError):
            rho.min_eigenvalue = 0.0
    with pytest.raises(TypeError):
        DensityMatrix(m, min_eigenvalue=0.0)


def test_density_matrix_min_eigenvalue_is_that_of_the_hermitian_part_bit_for_bit():
    # exactly Hermitian input skips forming (m + m^H)/2; the value must not move
    rng = np.random.default_rng(11)
    inputs = []
    for dim in (2, 7, 24):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = a @ a.conj().T
        m = (m + m.conj().T) / (2 * m.trace().real)
        skew = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        real = np.abs(m) / np.abs(m).trace()
        real = ((real + real.T) / 2).astype(complex)
        inputs += [m, m + 1e-14 * (skew - skew.conj().T), real]
    signed_zero = np.array([[0.5, complex(0.0, -0.0)], [complex(-0.0, 0.0), 0.5]])
    inputs += [signed_zero, np.asfortranarray(inputs[1])]
    for m in inputs:
        herm = (m + m.conj().T) / 2
        # a real Hermitian part is diagonalised by the real solver
        expected = np.linalg.eigvalsh(herm if herm.imag.any() else herm.real).min()
        assert DensityMatrix(m).min_eigenvalue.hex() == float(expected).hex()


def _real_states(rng, dim):
    """A full-rank and a rank-deficient random real unit-trace state."""
    for rank in (dim, max(1, dim // 3)):
        a = rng.standard_normal((dim, rank))
        m = a @ a.T
        yield (m + m.T) / (2 * m.trace())


@pytest.mark.parametrize("dim", [2, 7, 24, 64, 128, 256])
def test_real_min_eigenvalue_agrees_with_the_complex_solver(dim):
    rng = np.random.default_rng(dim)
    for m in _real_states(rng, dim):
        complex_min = np.linalg.eigvalsh(m.astype(complex)).min()
        assert abs(DensityMatrix(m).min_eigenvalue - complex_min) < 1e-14


def test_real_states_reach_the_real_eigenvalue_solver(monkeypatch):
    from ppsd_lab import trace_distance

    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append(a.dtype)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rng = np.random.default_rng(3)
    real, other = (next(_real_states(rng, 6)) for _ in range(2))
    DensityMatrix(real)
    DensityMatrix(np.array([[0.5, complex(0.0, -0.0)], [complex(-0.0, 0.0), 0.5]]))
    trace_distance(real, other)
    assert seen == [np.float64] * 3
    seen.clear()
    one_imaginary = real.astype(complex)
    one_imaginary[0, 1] += 1e-13j  # within the Hermiticity tolerance
    DensityMatrix(one_imaginary)
    assert seen == [np.complex128]


def test_purity_maximally_mixed():
    assert purity(DensityMatrix.maximally_mixed(2)) == pytest.approx(0.5, abs=1e-14)


def test_purity_projector_is_one():
    rho = DensityMatrix.from_state(StateVector.basis(2, 0))
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)


def test_purity_dephased_equal_superposition():
    # diagonals 1/2, off-diagonals damped by e^{-2 * 0.25}:
    # tr(rho^2) = 1/2 (1 + e^{-1})
    off = 0.5 * math.exp(-2.0 * 0.25)
    rho = DensityMatrix(np.array([[0.5, off], [off, 0.5]]))
    assert purity(rho) == pytest.approx(0.5 * (1 + math.exp(-1)), abs=1e-9)
    assert purity(rho) == pytest.approx(0.683940, abs=1e-6)


def test_purity_rejects_invalid_input():
    with pytest.raises(InvariantViolation):
        purity(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(InvariantViolation):
        purity(np.eye(2))  # trace 2


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(InvariantViolation):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_state_vector_requires_normalization():
    with pytest.raises(InvariantViolation):
        StateVector(np.array([1.0, 1.0]))
    psi = StateVector.normalized(np.array([1.0, 1.0]))
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_expectation_sigma_z_eigenstates():
    _, _, sz, _, _ = pauli_operators()
    # basis index 1 is the sigma_z = -1 eigenstate
    assert expectation(sz, StateVector.basis(2, 1)) == pytest.approx(-1.0, abs=1e-14)
    assert expectation(sz, StateVector.basis(2, 0)) == pytest.approx(1.0, abs=1e-14)


def test_expectation_number_on_coherent_state():
    _, _, n_op = fock_operators(40)
    alpha = coherent_state(1.0, 40)
    assert expectation(n_op, alpha).real == pytest.approx(1.0, abs=1e-8)


def test_expectation_raising_lowering_product():
    _, _, _, sp, sm = pauli_operators()
    psi = StateVector.normalized([1.0, 1.0])
    val = expectation(Operator(sp.matrix @ sm.matrix), psi)
    assert val.real == pytest.approx(0.5, abs=1e-14)
    assert val.imag == pytest.approx(0.0, abs=1e-14)


def test_expectation_dimension_mismatch():
    _, _, sz, _, _ = pauli_operators()
    with pytest.raises(DimensionMismatch):
        expectation(sz, StateVector.basis(3, 0))


def test_expectation_real_for_hermitian_randomized():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = rng.integers(2, 6)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        herm = (a + a.conj().T) / 2
        psi = StateVector.normalized(
            rng.standard_normal(d) + 1j * rng.standard_normal(d)
        )
        assert abs(expectation(Operator(herm), psi).imag) < 1e-12


def test_variance_eigenstate_zero():
    _, _, sz, _, _ = pauli_operators()
    assert variance(sz, StateVector.basis(2, 0)) == pytest.approx(0.0, abs=1e-14)


def test_variance_equal_superposition_is_one():
    _, _, sz, _, _ = pauli_operators()
    psi = StateVector.normalized([1.0, 1.0])
    assert variance(sz, psi) == pytest.approx(1.0, abs=1e-14)


def test_variance_fock_number_eigenstate():
    _, _, n_op = fock_operators(10)
    assert variance(n_op, StateVector.basis(10, 3)) == pytest.approx(0.0, abs=1e-14)


def test_variance_rejects_non_hermitian():
    _, _, _, sp, _ = pauli_operators()
    with pytest.raises(InvariantViolation):
        variance(sp, StateVector.basis(2, 0))


def test_variance_non_negative_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = rng.integers(2, 8)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        herm = (a + a.conj().T) / 2
        psi = StateVector.normalized(
            rng.standard_normal(d) + 1j * rng.standard_normal(d)
        )
        assert variance(Operator(herm), psi) >= -1e-12


def test_pauli_algebra():
    sx, sy, sz, sp, sm = pauli_operators()
    plus, minus = StateVector.basis(2, 0), StateVector.basis(2, 1)
    np.testing.assert_allclose(sm.matrix @ plus.amplitudes, minus.amplitudes)
    np.testing.assert_allclose(sm.matrix @ minus.amplitudes, np.zeros(2))
    np.testing.assert_allclose(sx.matrix @ sx.matrix, np.eye(2))
    np.testing.assert_allclose(sp.matrix, sm.matrix.conj().T)
    comm = sp.matrix @ sm.matrix - sm.matrix @ sp.matrix
    np.testing.assert_allclose(comm, sz.matrix)


def test_fock_ladder_action():
    a, a_dag, n_op = fock_operators(5)
    one = StateVector.basis(5, 1)
    np.testing.assert_allclose(a.matrix @ one.amplitudes, StateVector.basis(5, 0).amplitudes)
    three = StateVector.basis(5, 3)
    np.testing.assert_allclose(n_op.matrix @ three.amplitudes, 3.0 * three.amplitudes)


def test_fock_commutator_truncation_structure():
    dim = 5
    a, a_dag, n_op = fock_operators(dim)
    comm = a.matrix @ a_dag.matrix - a_dag.matrix @ a.matrix
    expected = np.eye(dim, dtype=complex)
    expected[dim - 1, dim - 1] = -(dim - 1)
    np.testing.assert_allclose(comm, expected, atol=1e-14)
    # adag a equals the number operator exactly in the truncated space
    np.testing.assert_allclose(a_dag.matrix @ a.matrix, n_op.matrix, atol=0)


def test_fock_requires_dim_at_least_two():
    with pytest.raises(InvariantViolation):
        fock_operators(1)


def test_coherent_state_zero_displacement_is_vacuum():
    np.testing.assert_allclose(
        coherent_state(0.0, 12).amplitudes, StateVector.basis(12, 0).amplitudes
    )


def test_coherent_state_truncation_guard():
    with pytest.raises(TruncationInsufficient):
        coherent_state(5.0, 10)


def test_coherent_state_refuses_weight_beyond_the_cutoff():
    # Poisson(|alpha|^2) mass sits wholly above n = 15: the top level's
    # weight is tiny, the weight beyond the cutoff is 1.
    for alpha in (10.0, 1e10 + 1e10j, 1e300, 1.7e308 + 1.7e308j):
        with pytest.raises(TruncationInsufficient):
            coherent_state(alpha, 16)
    # the largest moduli the benchmark draws (1 at d <= 16, 1.5 above)
    for alpha, dim in ((1.0, 16), (-1.5j, 24)):
        assert coherent_state(alpha, dim).dim == dim


def test_coherent_state_eigenrelation_where_guard_passes():
    a, _, _ = fock_operators(40)
    for alpha in (0.5, 1.0, 1.5 + 0.5j, 2.0):
        psi = coherent_state(alpha, 40)
        resid = np.linalg.norm(a.matrix @ psi.amplitudes - alpha * psi.amplitudes)
        assert resid < 1e-6


def test_position_operator_examples():
    op = position_operator(GridSpec(-1.0, 1.0, 9))
    x = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(np.diag(op.matrix), x)
    np.testing.assert_allclose(op.matrix, np.diag(np.diag(op.matrix)))
    eigs = np.linalg.eigvalsh(op.matrix)
    assert eigs.max() - eigs.min() == pytest.approx(2.0, abs=1e-14)


def test_diagonal_operator_forms_the_dense_matrix_bit_for_bit():
    entries = np.array([-1.5, -0.0, 0.0, 2.25, 1e-300])
    op = Operator.from_diagonal(entries)
    assert op.dim == 5
    assert op.diagonal.tobytes() == entries.astype(complex).tobytes()
    m = op.matrix
    assert m.dtype == np.complex128 and not m.flags.writeable
    assert m.tobytes() == np.diag(entries).astype(complex).tobytes()
    assert op.matrix is m
    with pytest.raises(FrozenInstanceError):
        op.matrix = np.eye(5)


def test_operator_diagonal_is_none_exactly_off_the_diagonal():
    _, _, sz, sp, _ = pauli_operators()
    assert np.array_equal(sz.diagonal, [1.0, -1.0])
    assert sp.diagonal is None
    assert not Operator.from_diagonal([1.0, 2.0]).diagonal.flags.writeable
    assert not position_operator(GridSpec(-1.0, 1.0, 9)).diagonal.flags.writeable


@pytest.mark.parametrize("entries", [[1.0, np.inf], [np.nan, 0.0], [[1.0, 2.0]], 3.0])
def test_diagonal_operator_rejects_non_finite_or_non_vector_entries(entries):
    with pytest.raises(InvariantViolation):
        Operator.from_diagonal(entries)


def test_grid_spec_invariants():
    with pytest.raises(InvariantViolation):
        GridSpec(1.0, -1.0, 16)
    with pytest.raises(InvariantViolation):
        GridSpec(-1.0, 1.0, 4)
    for bounds in [(-math.inf, 5.0), (-5.0, math.inf), (math.nan, 5.0), (-1e308, 1e308)]:
        with pytest.raises(InvariantViolation, match="finite bounds and spacing"):
            GridSpec(*bounds, 64)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pure_state_purity_is_one(dim, seed):
    rng = np.random.default_rng(seed)
    psi = StateVector.normalized(
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    )
    assert purity(DensityMatrix.from_state(psi)) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_mixture_purity_bounds(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= rho.trace().real
    p = purity(DensityMatrix(rho))
    assert 1.0 / dim - 1e-12 <= p <= 1.0 + 1e-10
