#!/usr/bin/env python3
"""Squeezed-vacuum decay: zero-residual states that still refuse to travel.

A two-level atom decaying into a squeezed vacuum has the single jump
operator

    C = cosh(r) sigma_minus + e^{i theta} sinh(r) sigma_plus.

With one jump operator, the purity-loss rate R(psi) vanishes exactly on the
eigenvectors of C.  For r > 0, C is invertible with eigenvalues
+/- e^{i theta/2} sqrt(sinh(2r)/2), so the zero-residual set is a PAIR of
states -- both with excited population p_e = (1 + coth r)^(-1), differing by
the sign of the relative phase (equivalently theta -> theta + 2 pi in the
candidate formula).  Neither is stationary, and neither actually stays pure:
propagating either one through the master equation drops the Bloch-vector
norm below 1 immediately (at third order in t), which the consistency check
flags as verdict "no_ppsd".

The script finds both states as the joint eigenspaces the search
enumerates, verifies the exact eigenstructure, and cross-validates the
closed-form Bloch solution of the model against direct propagation.

Run:  python3 demos/03_squeezed_decay_candidate_pair.py
Exit: 0 when every check passes.
"""

import math
import sys

import numpy as np

from ppsd_lab import (
    DensityMatrix,
    ModelSpec,
    catalog_model,
    fidelity,
    fig3_initial_bloch,
    fig3_purity_curve,
    pauli_operators,
    ppsd_search,
    propagate,
    squeezed_ppsd_state,
)


def main() -> int:
    failures = []
    r, theta, gamma0 = 0.2, math.pi, 1.0
    model = catalog_model(
        ModelSpec("squeezed_vacuum_decay", {"gamma0": gamma0, "r": r, "theta": theta})
    )
    C = model.terms[0].op.matrix

    plus_branch = squeezed_ppsd_state(r, theta)
    minus_branch = squeezed_ppsd_state(r, theta + 2 * math.pi)
    p_e = abs(plus_branch.amplitudes[0]) ** 2
    print(f"candidate excited population p_e = {p_e:.6f} "
          f"(analytic (1 + coth r)^-1 = {1 / (1 + 1 / math.tanh(r)):.6f})")

    for name, psi in (("+branch", plus_branch), ("-branch", minus_branch)):
        lam = np.vdot(psi.amplitudes, C @ psi.amplitudes)
        defect = np.linalg.norm(C @ psi.amplitudes - lam * psi.amplitudes)
        print(f"  {name}: eigenvalue {lam:+.6f}, eigenvector defect {defect:.1e}")
        if defect > 1e-12:
            failures.append(f"{name} is not an eigenvector of the jump operator")
    overlap = fidelity(plus_branch, minus_branch)
    print(f"  pair fidelity |<+|->|^2 = {overlap:.6f} (two distinct states)")

    reports = ppsd_search(model)
    print(f"\nsearch found {len(reports)} zero-residual state(s):")
    for rep in reports:
        match = max(fidelity(rep.state, plus_branch), fidelity(rep.state, minus_branch))
        print(
            f"  residual={rep.residual:.1e}  stationary={rep.is_stationary}  "
            f"verdict={rep.verdict}  best-branch fidelity={match:.12f}"
        )
        if rep.verdict != "no_ppsd" or rep.is_stationary:
            failures.append("each zero-residual state must be non-stationary no_ppsd")
        if match < 1.0 - 1e-8:
            failures.append("search hit does not match either branch")
    if len(reports) != 2:
        failures.append("search should find exactly the +/- pair")

    # Bloch-norm-squared curve for the +branch-compatible initial state
    delta = -theta / 2
    times = np.linspace(0.0, 3.0, 100)
    curve = fig3_purity_curve(gamma0, r, theta, delta, times)
    p_vals = np.array([p for _, p in curve])
    print(
        f"\nBloch curve P(t)=|n|^2: P(0)={p_vals[0]:.12f}, "
        f"P(0.5)={p_vals[np.searchsorted(times, 0.5)]:.6f}, P(3)={p_vals[-1]:.6f}"
    )
    if abs(p_vals[0] - 1.0) > 1e-10 or not np.all(np.diff(p_vals) < 0):
        failures.append("P must start at 1 and decrease strictly")

    # cross-validate against direct propagation
    sx, sy, sz, _, _ = pauli_operators()
    n0 = fig3_initial_bloch(p_e, delta)
    rho0 = DensityMatrix(
        0.5 * (np.eye(2, dtype=complex) + n0[0] * sx.matrix + n0[1] * sy.matrix + n0[2] * sz.matrix)
    )
    traj = propagate(model, rho0, times)
    gap = np.abs(p_vals - (2.0 * traj.purities - 1.0)).max()
    print(f"closed form vs propagation: max deviation {gap:.2e}")
    if gap > 1e-7:
        failures.append("Bloch closed form disagrees with propagation")

    print(
        "\nreading: the purity-preservation condition admits two isolated"
        "\nstates, but both lose purity the moment the dynamics runs -- the"
        "\ncondition is necessary, not sufficient, and no pure trajectory exists."
    )

    if failures:
        print("\nFAILED:")
        for f in failures:
            print(" -", f)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
