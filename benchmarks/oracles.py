"""Output oracles: judge each job's output against physics, not bytes.

Tolerances are fixed so that a change of summation order at the 1e-12
level never reads as a failure.  Each check returns a list of failure
strings (empty when the output is right); search checks also report how
many oracle states the search found.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ppsd_lab import (
    GridSpec,
    ModelSpec,
    StateVector,
    catalog_model,
    grw_closed_form,
    hermitian_lindblad_fixed_points,
    position_closed_form,
    ppsd_residual,
    purity,
    residual_scale,
    squeezed_ppsd_state,
)

#: The program's own invariant gate (lindblad.PROPAGATION_GATE): a state
#: within it may also read a purity up to 1 + 1e-8.
TRACE_TOL = 1e-8
NEGATIVITY_TOL = 1e-8
PURITY_TOL = 1e-8
CLOSED_FORM_TOL = 1e-8
#: Completeness defect the grw quadrature is built to (models.py); it bounds
#: the purity gap to the continuum closed form by 2 * lam * t * defect.
GRW_QUADRATURE_DEFECT = 1e-6
MATCH_FIDELITY = 1.0 - 1e-6
#: Default --tol of ppsd-search: a hit must satisfy R < tol * residual_scale.
SEARCH_TOL = 1e-9
#: Weight on |3> above which a three-level hit leaves span{|1>,|2>}.
SPAN_TOL = 1e-8


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """(metadata, columns, rows) of the CLI's CSV output."""
    meta, table = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            table.append(line.split(","))
    if not table:
        raise ValueError("no header line")
    return meta, table[0], table[1:]


def _column(columns: list[str], rows: list[list[str]], name: str) -> list[float]:
    k = columns.index(name)
    return [float(r[k]) for r in rows]


def _gaussian_state(grid: GridSpec, x0: float, sigma: float) -> StateVector:
    x = grid.points
    return StateVector.normalized(np.exp(-((x - x0) ** 2) / (4.0 * sigma**2)))


def check_simulate(expect: dict, text: str) -> list[str]:
    _, columns, rows = parse_csv(text)
    failures = []
    if len(rows) != expect["steps"] + 1:
        failures.append(f"{len(rows)} rows, expected {expect['steps'] + 1}")
    times = _column(columns, rows, "t")
    purities = _column(columns, rows, "purity")
    trace_err = max(_column(columns, rows, "trace_error"))
    min_eig = min(_column(columns, rows, "min_eigenvalue"))
    if not trace_err <= TRACE_TOL:
        failures.append(f"trace error {trace_err:.3e} > {TRACE_TOL:.0e}")
    if not min_eig >= -NEGATIVITY_TOL:
        failures.append(f"min eigenvalue {min_eig:.3e} < -{NEGATIVITY_TOL:.0e}")
    if not max(purities) <= 1.0 + PURITY_TOL:
        failures.append(f"purity {max(purities)!r} > 1")
    if expect.get("pure"):
        worst = max(abs(p - 1.0) for p in purities)
        if not worst <= PURITY_TOL:
            failures.append(f"N=0 coherent purity drifts by {worst:.3e}")
    cf = expect.get("closed_form")
    if cf is not None and rows:
        grid = GridSpec(*cf["grid"])
        rho0 = _gaussian_state(grid, *cf["gaussian"]).to_density_matrix()
        # five rows spread over the run keep the oracle cheap
        picks = sorted({round(k * (len(rows) - 1) / 4) for k in range(5)})
        for k in picks:
            if cf["model"] == "position_decoherence":
                ref = position_closed_form(rho0, grid, cf["params"]["gamma"], times[k])
                tol = CLOSED_FORM_TOL
            else:
                lam = cf["params"]["lam"]
                ref = grw_closed_form(rho0, grid, lam, cf["params"]["alpha"], times[k])
                tol = max(2.0 * lam * times[k] * GRW_QUADRATURE_DEFECT, CLOSED_FORM_TOL)
            gap = abs(purity(ref) - purities[k])
            if not gap <= tol:
                failures.append(f"purity at t={times[k]} off the closed form by {gap:.3e}")
                break
    return failures


def check_ppsd_check(expect: dict, text: str) -> list[str]:
    _, columns, rows = parse_csv(text)
    if len(rows) != 1:
        return [f"{len(rows)} result rows, expected 1"]
    row = dict(zip(columns, rows[0]))
    failures = []
    if row["verdict"] != expect["verdict"]:
        failures.append(f"verdict {row['verdict']}, expected {expect['verdict']}")
    if not float(row["residual"]) >= -1e-12:
        failures.append(f"negative residual {row['residual']}")
    return failures


def parse_state(text: str) -> np.ndarray:
    """Amplitudes from the CLI's ``a+bj;c-dj`` state column."""
    return np.array([complex(z) for z in text.split(";")])


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


def search_oracle_states(expect: dict, model) -> list[np.ndarray] | None:
    """Every zero-residual state of the model, or None for a continuum."""
    kind = expect["oracle"]
    if kind == "thermal_ground":
        # catalog ordering is excited first, ground second
        return [np.array([0.0, 1.0], dtype=complex)]
    if kind == "squeezed_pair":
        r, theta = expect["params"]["r"], expect["params"]["theta"]
        return [squeezed_ppsd_state(r, theta).amplitudes,
                squeezed_ppsd_state(r, theta + 2.0 * math.pi).amplitudes]
    if kind == "hermitian":
        return [s.amplitudes for s in hermitian_lindblad_fixed_points(model)]
    if kind == "empty":
        return []
    if kind == "span12":
        return None
    raise ValueError(f"unknown search oracle {kind!r}")


def check_search(expect: dict, text: str) -> tuple[list[str], tuple[int, int] | None, int]:
    """(failures, (oracle states found, oracle states) or None, hits)."""
    rows = json.loads(text)["rows"]
    hits = [parse_state(row[4]) for row in rows]
    spec = ModelSpec(expect["model"], expect["params"], expect.get("dim"))
    model = catalog_model(spec)
    gate = SEARCH_TOL * residual_scale(model)
    failures = []
    for k, v in enumerate(hits):
        psi = StateVector.normalized(v)
        res = ppsd_residual(model, psi)
        if not res < gate:
            failures.append(f"hit {k} has residual {res:.3e} >= {gate:.3e}")
    oracle = search_oracle_states(expect, model)
    if oracle is None:
        for k, v in enumerate(hits):
            leak = abs(v[2]) ** 2 / float(np.vdot(v, v).real)
            if not leak <= SPAN_TOL:
                failures.append(f"hit {k} has weight {leak:.3e} outside span{{|1>,|2>}}")
        return failures, None, len(hits)
    for k, v in enumerate(hits):
        v = v / np.linalg.norm(v)
        if not any(_fidelity(v, o) >= MATCH_FIDELITY for o in oracle):
            failures.append(f"hit {k} matches no zero-residual state of the model")
    found = sum(
        any(_fidelity(h / np.linalg.norm(h), o) >= MATCH_FIDELITY for h in hits)
        for o in oracle
    )
    if expect.get("require_all") and found < len(oracle):
        failures.append(f"found {found} of {len(oracle)} zero-residual states")
    return failures, (found, len(oracle)), len(hits)


def check_reproduce(expect: dict, text: str) -> list[str]:
    meta, _, _ = parse_csv(text)
    if meta.get("passed") != "true":
        return [f"reproduce {meta.get('target')} did not pass: {meta.get('failures', '')}"]
    return []


def check(job: dict, text: str) -> tuple[list[str], tuple[int, int] | None, int | None]:
    """Judge one job's output: (failures, recall pair, hit count)."""
    kind, expect = job["kind"], job["expect"]
    if kind == "ppsd-search":
        return check_search(expect, text)
    checker = {
        "simulate": check_simulate,
        "ppsd-check": check_ppsd_check,
        "reproduce": check_reproduce,
    }[kind]
    return checker(expect, text), None, None
