"""Shared fixtures: the 13-model catalog at desk-scale dimensions, and an
independent dense generator to check the library's against."""

import numpy as np

from ppsd_lab import GridSpec, LindbladModel, ModelSpec, catalog_model

DESK_SPECS = (
    ModelSpec("dephasing_qubit", {"gamma": 1.0}),
    ModelSpec("position_decoherence", {"gamma": 1.0}, GridSpec(-5.0, 5.0, 32)),
    ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": 0.5}),
    ModelSpec("damped_oscillator", {"gamma0": 1.0, "N": 0.3, "dim": 16}),
    ModelSpec("three_level_atom", {}),
    ModelSpec("multimode", {"n_modes": 2, "mode_dim": 3, "N_1": 0.2}),
    ModelSpec("phase_damped_oscillator", {"dim": 10}),
    ModelSpec("depolarizing", {}),
    ModelSpec("squeezed_vacuum_decay", {}),
    ModelSpec("nonadiabatic_driven", {"dim": 16}),
    ModelSpec("walls_collet_milburn", {"dim": 10}),
    ModelSpec("grw", {}, GridSpec(-6.0, 6.0, 32)),
    ModelSpec("csl", {}),
)


def desk_catalog() -> list[LindbladModel]:
    return [catalog_model(spec) for spec in DESK_SPECS]


def kronecker_generator(model: LindbladModel) -> np.ndarray:
    """The dense generator as the row-major Kronecker sum over ``model.terms``.

    Reads the operators as the model stores them and none of its cached
    tables, so it is a reference for ``model._generator`` and the kernels
    that read it rather than a second copy of them.
    """
    d = model.dim
    eye = np.eye(d, dtype=complex)
    h = model.hamiltonian.matrix
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for term in model.terms:
        L = term.op.matrix
        LdL = L.conj().T @ L
        sup += term.rate * (
            np.kron(L, L.conj()) - 0.5 * np.kron(LdL, eye) - 0.5 * np.kron(eye, LdL.T)
        )
    return sup


def stored_coefficients(model: LindbladModel) -> np.ndarray:
    """The entrywise coefficients c of a diagonal model, read as the (d, d)
    view of its generator's one stored diagonal."""
    return model._generator.data.reshape(model.dim, model.dim)
