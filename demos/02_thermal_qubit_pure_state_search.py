#!/usr/bin/env python3
"""Can a thermally damped qubit trace a pure trajectory?

The thermally damped qubit has jump operators sigma_minus (emission, rate
gamma0 (N+1)) and sigma_plus (absorption, rate gamma0 N), where N is the
bath occupation.  A pure state with excited population p keeps its purity
only where the residual

    R(p) = gamma0 [ (2N+1) p^2 - 2N p + N ]

vanishes.  The quadratic has discriminant 4(-N^2 - N): at N = 0 the only
root is p = 0 (the ground state, a fixed point that provides no motion),
and for any N > 0 there is no root at all.

This script evaluates the closed-form root structure, confirms it with
the search's exact zero-residual set, and shows on a Bloch scan how the
residual floor N(N+1)/(2N+1) lifts off zero as the bath warms.

Run:  python3 demos/02_thermal_qubit_pure_state_search.py
Exit: 0 when every check passes.
"""

import sys

import numpy as np

from ppsd_lab import (
    ModelSpec,
    StateVector,
    catalog_model,
    fidelity,
    ppsd_residual,
    ppsd_search,
    thermal_qubit_ppsd_roots,
)


def bloch_state(theta, phi) -> StateVector:
    return StateVector(
        np.array(
            [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], dtype=complex
        )
    )


def main() -> int:
    failures = []

    print("occupation N | closed-form roots | search hits | sphere floor")
    for N in (0.0, 0.1, 0.5, 1.0, 2.0):
        model = catalog_model(ModelSpec("thermal_qubit", {"gamma0": 1.0, "N": N}))
        roots = thermal_qubit_ppsd_roots(N)
        hits = ppsd_search(model)

        floor = min(
            ppsd_residual(model, bloch_state(th, ph))
            for th in np.linspace(0, np.pi, 41)
            for ph in np.linspace(0, 2 * np.pi, 21)
        )
        print(
            f"  {N:10.2f} | {str(roots) or '[]':17s} | {len(hits):11d} | {floor:.6f}"
        )

        expected_floor = N * (N + 1.0) / (2.0 * N + 1.0)
        # the scan grid sits slightly off the minimizing population, so the
        # measured floor can only exceed the analytic one by the grid error
        if floor < expected_floor - 1e-9 or floor > expected_floor + 5e-3:
            failures.append(f"N={N}: floor {floor} vs analytic {expected_floor}")
        if N == 0:
            if len(hits) != 1 or not hits[0].is_stationary:
                failures.append("N=0 should yield exactly the stationary ground state")
            elif fidelity(hits[0].state, StateVector.basis(2, 1)) < 1.0 - 1e-9:
                failures.append("N=0 hit is not the ground state")
        else:
            if hits:
                failures.append(f"N={N} should admit no pure candidates")
            if roots:
                failures.append(f"N={N} closed form should have no roots")

    print(
        "\nreading: at N=0 the unique candidate is the stationary ground state"
        "\n(no motion, hence no trajectory); any thermal occupation removes"
        "\neven that candidate.  The dynamics immediately mixes every pure state."
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
