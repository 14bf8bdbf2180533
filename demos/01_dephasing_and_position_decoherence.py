#!/usr/bin/env python3
"""Decoherence in a monitored basis: qubit dephasing and position monitoring.

Two models whose generators act entrywise in the monitored basis:

  * a qubit monitored in the sigma_z basis, where the generator
    gamma (Z rho Z - rho) freezes the populations and damps the coherences
    as exp(-2 gamma t);

  * a particle whose position is continuously monitored, where the grid
    representation rho(x, x') decays as exp(-gamma t (x - x')^2).

Both admit exact closed-form solutions, so the propagator can be checked
entry by entry.  The script also shows the two faces of the purity story:
an initially pure superposition loses purity monotonically (these models are
unital), while the monitored-basis states themselves -- the pointer states --
are exact fixed points.

Run:  python3 demos/01_dephasing_and_position_decoherence.py
Exit: 0 when every check passes.
"""

import sys

import numpy as np

from ppsd_lab import (
    DensityMatrix,
    GridSpec,
    ModelSpec,
    StateVector,
    catalog_model,
    dephasing_closed_form,
    is_unital,
    position_closed_form,
    ppsd_residual,
    propagate,
)


def main() -> int:
    failures = []

    # --- dephasing qubit -------------------------------------------------
    gamma = 1.0
    model = catalog_model(ModelSpec("dephasing_qubit", {"gamma": gamma}))
    print(f"dephasing qubit: unital = {is_unital(model)}")

    plus = StateVector.normalized([1.0, 1.0])
    times = np.linspace(0.0, 2.0, 9)
    traj = propagate(model, DensityMatrix.from_state(plus), times)
    print("  t      purity        closed form")
    for t, p in zip(traj.times, traj.purities):
        closed = 0.5 * (1.0 + np.exp(-4.0 * gamma * t))
        print(f"  {t:4.2f}   {p:.9f}   {closed:.9f}")
        if abs(p - closed) > 1e-10:
            failures.append(f"dephasing purity mismatch at t={t}")
    if np.diff(traj.purities).max() > 1e-12:
        failures.append("dephasing purity should never increase")

    # pointer states: eigenstates of the monitored observable stay put
    for idx, name in ((0, "|1>"), (1, "|0>")):
        pointer = StateVector.basis(2, idx)
        residual = ppsd_residual(model, pointer)
        print(f"  pointer state {name}: purity-loss rate R = {residual:.2e}")
        if residual > 1e-14:
            failures.append(f"pointer state {name} should have zero residual")

    # closed form vs propagation, entrywise
    rho0 = DensityMatrix.from_state(plus)
    worst = max(
        np.abs(
            s.matrix - dephasing_closed_form(rho0, gamma, t).matrix
        ).max()
        for t, s in zip(traj.times, traj.states)
    )
    print(f"  max entrywise deviation from the decay law: {worst:.2e}")
    if worst > 1e-9:
        failures.append("dephasing closed form mismatch")

    # --- position decoherence --------------------------------------------
    grid = GridSpec(-5.0, 5.0, 64)
    pos_model = catalog_model(ModelSpec("position_decoherence", {"gamma": gamma}, grid))
    x = grid.points
    wavepacket = StateVector.normalized(np.exp(-(x**2) / (4 * 0.8**2)))
    rho0 = DensityMatrix.from_state(wavepacket)
    traj = propagate(pos_model, rho0, [0.0, 0.5, 1.0])
    print("\nposition decoherence (64-point grid):")
    for t, state in zip(traj.times, traj.states):
        expected = position_closed_form(rho0, grid, gamma, t)
        err = np.abs(state.matrix - expected.matrix).max()
        coherence = np.abs(state.matrix[16, 48])  # far-separated entry
        print(
            f"  t={t:3.1f}: purity={np.vdot(state.matrix, state.matrix).real:.6f}, "
            f"far coherence={coherence:.3e}, closed-form error={err:.2e}"
        )
        if err > 1e-8:
            failures.append(f"position closed form mismatch at t={t}")

    if failures:
        print("\nFAILED:")
        for f in failures:
            print(" -", f)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
