"""Command-line front end: model files in, CSV/JSON results out.

Subcommands
-----------
simulate      propagate a density matrix and tabulate purity/Bloch data
ppsd-check    evaluate the purity-preservation residual of one state
ppsd-search   list the exact zero-residual states, each with its verdict
reproduce     run one of the packaged quantitative checks end to end
list-models   enumerate the model catalog with parameters and defaults

ppsd-check and ppsd-search judge a pure state the same way.  It has zero
residual when R(psi) < 1e-9 * residual_scale, a fixed gate printed as
``# tol=``.  A state the generator annihilates is stationary_only and is
reported without integration.  Any other is a ppsd_trajectory only if it
passes that gate along its pure flow and the flow stays within trace
distance 1e-6 of the master equation; else it is no_ppsd.  Neither bound
is an option.

Model sources are either a catalog name plus ``--param key=value`` flags or
a JSON model file (``--model-file``) with fields
{name, dim, hamiltonian, terms: [{rate, op}], basis_note, basis} and complex
entries written as [re, im] pairs; a diagonal operator is written as the
list of its d diagonal pairs, any other as d x d.  ``basis`` is "qubit",
"levels" or [x_min, x_max, n_points] for a grid; a file without it is read
as "qubit" at dim 2 and "levels" otherwise.

simulate builds each row from its own state as ``propagated_states`` forms
it, so on every exact path it holds one state at a time, whatever
``--steps``; the rows are written once every state has passed the gate.

Exit codes: 0 success, 2 invalid input, 3 numerical failure during
propagation, 4 reproduction mismatch.  Output is UTF-8 with LF line endings;
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import IntegrationFailure, PpsdLabError
from .hilbert import (
    DensityMatrix,
    GridSpec,
    Operator,
    StateVector,
    coherent_state,
    pauli_operators,
    purity,
)
from .lindblad import LindbladModel, LindbladTerm, propagate, propagated_states
from .models import (
    CATALOG_INFO,
    MODEL_NAMES,
    ModelSpec,
    _nonadiabatic_residual_bounds,
    addressable,
    catalog_model,
    dephasing_closed_form,
    fig3_initial_bloch,
    fig3_purity_curve,
    grw_closed_form,
    position_closed_form,
    squeezed_ppsd_state,
    thermal_qubit_ppsd_roots,
    three_level_feasibility_scan,
)
from .ppsd import (
    PPSD_RESIDUAL_RTOL,
    SearchConfig,
    _judge_zero_set,
    consistency_check,
    fidelity,
    ppsd_residual,
    ppsd_search,
    residual_scale,
    unlisted_hits,
    zero_residual_subspaces,
)

REPRODUCE_TARGETS = ("eq3", "eq5", "eq16", "fig2", "fig3", "b13", "b16", "grw")


def _check_t_max(t_max: float) -> None:
    if not (math.isfinite(t_max) and t_max > 0):
        raise PpsdLabError("t-max must be finite and > 0")


@dataclass(frozen=True)
class ResultRecord:
    """Run metadata plus a self-describing tabular payload."""

    metadata: dict
    columns: tuple[str, ...]
    rows: list[tuple]
    extra: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {
            "metadata": self.metadata,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
        }
        obj.update(self.extra)
        return obj


# ---------------------------------------------------------------------------
# model file serialization
# ---------------------------------------------------------------------------


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def _pairs_to_matrix(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise PpsdLabError("matrix entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _operator_to_pairs(op: Operator) -> list:
    """A diagonal operator as its d [re, im] pairs, any other as d x d."""
    if op.diagonal is None:
        return _matrix_to_pairs(op.matrix)
    return [[float(z.real), float(z.imag)] for z in op.diagonal]


def _pairs_to_operator(pairs) -> Operator:
    """Inverse of _operator_to_pairs: a rank-2 array of pairs is a diagonal."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2:
        return Operator.from_diagonal(arr[:, 0] + 1j * arr[:, 1])
    return Operator(_pairs_to_matrix(arr))


def model_to_dict(model: LindbladModel) -> dict:
    basis = model.basis
    if isinstance(basis, GridSpec):
        basis = [basis.x_min, basis.x_max, basis.n_points]
    return {
        "name": model.label,
        "dim": model.dim,
        "hamiltonian": _operator_to_pairs(model.hamiltonian),
        "terms": [
            {"rate": float(t.rate), "op": _operator_to_pairs(t.op)}
            for t in model.terms
        ],
        "basis_note": model.basis_note,
        "basis": basis,
    }


def model_from_dict(obj: dict) -> LindbladModel:
    try:
        dim = int(obj["dim"])
        basis = obj.get("basis", "qubit" if dim == 2 else "levels")
        if isinstance(basis, list):
            x_min, x_max, n_points = basis
            basis = GridSpec(float(x_min), float(x_max), int(n_points))
        terms = tuple(
            LindbladTerm(float(t["rate"]), _pairs_to_operator(t["op"]))
            for t in obj["terms"]
        )
        return LindbladModel(
            hamiltonian=_pairs_to_operator(obj["hamiltonian"]),
            terms=terms,
            dim=dim,
            label=str(obj.get("name", "")),
            basis_note=str(obj.get("basis_note", "")),
            basis=basis,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PpsdLabError(f"malformed model file: {exc}") from exc


def save_model(model: LindbladModel, path: str) -> None:
    _atomic_write(path, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: str) -> LindbladModel:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PpsdLabError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(obj)


# ---------------------------------------------------------------------------
# sources: model and state flags
# ---------------------------------------------------------------------------


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise PpsdLabError(f"--param expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise PpsdLabError(f"parameter {key!r} has non-numeric value {val!r}") from exc
    return out


def _parse_grid(text: str) -> GridSpec:
    refusal = f"--grid expects xmin,xmax,npoints, got {text!r}"
    try:
        x_min, x_max, n = text.split(",")
        bounds = float(x_min), float(x_max), int(n)
    except ValueError as exc:
        raise PpsdLabError(refusal) from exc
    try:
        return GridSpec(*bounds)
    except PpsdLabError as exc:
        raise PpsdLabError(f"{refusal}: {exc}") from exc


def resolve_model(args) -> tuple[LindbladModel, dict]:
    """Build the model from CLI flags; returns (model, metadata)."""
    if getattr(args, "model_file", None):
        model = load_model(args.model_file)
        return model, {"model": model.label or "file", "source": args.model_file}
    if not getattr(args, "model", None):
        raise PpsdLabError("either --model or --model-file is required")
    params = _parse_params(args.param or [])
    dim_or_grid = None
    if getattr(args, "grid", None) and getattr(args, "dim", None) is not None:
        raise PpsdLabError("--dim and --grid cannot be given together")
    if getattr(args, "grid", None):
        dim_or_grid = _parse_grid(args.grid)
    elif getattr(args, "dim", None) is not None:
        dim_or_grid = int(args.dim)
    spec = ModelSpec(args.model, params, dim_or_grid)
    model = catalog_model(spec)
    meta = {"model": args.model}
    meta.update({f"param_{k}": v for k, v in sorted(params.items())})
    if dim_or_grid is not None:
        meta["dim_or_grid"] = str(dim_or_grid)
    return model, meta


def resolve_state(token: str, model: LindbladModel, pure_required: bool = False):
    """Translate a --state token into a StateVector or DensityMatrix.

    Tokens: plus | minus | excited | ground | vacuum | mixed | basis:i |
    fock:n | coherent:re[,im] | gaussian:x0,sigma | squeezed_candidate |
    file:path.json.  "plus"/"minus" are the equal-weight superpositions of
    the first two basis vectors.  The rest follow ``model.basis``: "ground"
    is the second basis vector of a qubit basis (excited first) and the
    first otherwise; fock and coherent states need a non-grid basis and
    gaussian states a grid one, sampled at its points.
    """
    d = model.dim
    on_grid = isinstance(model.basis, GridSpec)
    inv = 1.0 / math.sqrt(2.0)
    if token == "plus" or token == "minus":
        if d < 2:
            raise PpsdLabError("superposition states need dim >= 2")
        amps = np.zeros(d, complex)
        amps[0] = inv
        amps[1] = inv if token == "plus" else -inv
        return StateVector(amps)
    if token == "excited":
        return StateVector.basis(d, 0)
    if token == "ground":
        return StateVector.basis(d, 1 if model.basis == "qubit" else 0)
    if token == "vacuum":
        return StateVector.basis(d, 0)
    if token == "mixed":
        if pure_required:
            raise PpsdLabError("this command requires a pure state")
        return DensityMatrix.maximally_mixed(d)
    if token.startswith("basis:") or token.startswith("fock:"):
        try:
            idx = int(token.split(":", 1)[1])
        except ValueError as exc:
            raise PpsdLabError(f"state {token!r} needs an integer index") from exc
        if not 0 <= idx < d:
            raise PpsdLabError(f"basis index {idx} out of range for dim {d}")
        if on_grid and token.startswith("fock:"):
            raise PpsdLabError("fock states are not for grid models; use basis:i")
        return StateVector.basis(d, idx)
    if token.startswith("coherent:"):
        alpha = complex(*_state_numbers(token, (1, 2), "re[,im]"))
        if on_grid:
            raise PpsdLabError("coherent states are not for grid models")
        return coherent_state(alpha, d)
    if token.startswith("gaussian:"):
        x0, sigma = _state_numbers(token, (2,), "x0,sigma")
        if not sigma > 0:
            raise PpsdLabError(f"state {token!r} needs sigma > 0")
        if not on_grid:
            raise PpsdLabError("gaussian states are for grid models")
        x = model.basis.points
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return StateVector.normalized(np.exp(-((x - x0) ** 2) / (4.0 * sigma**2)))
        except (OverflowError, FloatingPointError) as exc:
            raise PpsdLabError(f"state {token!r} is out of floating-point range") from exc
    if token == "squeezed_candidate":
        if model.label != "squeezed_vacuum_decay":
            raise PpsdLabError("squeezed_candidate applies to squeezed_vacuum_decay")
        C = model.terms[0].op.matrix
        r = float(np.arcsinh(abs(C[0, 1])))
        theta = float(np.angle(C[0, 1]))
        return squeezed_ppsd_state(r, theta)
    if token.startswith("file:"):
        path = token.split(":", 1)[1]
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise PpsdLabError(f"cannot read state file {path}: {exc}") from exc
        if "amplitudes" in obj:
            arr = np.asarray(obj["amplitudes"], float)
            return StateVector.normalized(arr[:, 0] + 1j * arr[:, 1])
        if "matrix" in obj and not pure_required:
            return DensityMatrix(_pairs_to_matrix(obj["matrix"]))
        raise PpsdLabError("state file needs 'amplitudes' (or 'matrix')")
    raise PpsdLabError(f"unknown state token {token!r}")


def _state_numbers(token: str, counts: tuple[int, ...], form: str) -> list[float]:
    """The finite comma-separated numbers after the colon of a state token."""
    try:
        values = [float(x) for x in token.split(":", 1)[1].split(",")]
    except ValueError:
        values = []
    if len(values) not in counts or not all(math.isfinite(v) for v in values):
        prefix = token.split(":", 1)[0]
        raise PpsdLabError(f"state {token!r} is not {prefix}:{form} with finite numbers")
    return values


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(_fmt(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def record_to_csv(record: ResultRecord) -> str:
    lines = [f"# {k}={_fmt(v)}" for k, v in record.metadata.items()]
    for k, v in record.extra.items():
        lines.append(f"# {k}={_fmt(v)}")
    lines.append(",".join(record.columns))
    for row in record.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def record_to_json(record: ResultRecord) -> str:
    return json.dumps(record.to_json_obj(), indent=2, default=_fmt) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(record: ResultRecord, fmt: str, output: str | None) -> None:
    text = record_to_csv(record) if fmt == "csv" else record_to_json(record)
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)


def _base_metadata(extra: dict) -> dict:
    meta = {"tool": "ppsd-lab", "version": __version__}
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    _check_t_max(args.t_max)
    if args.steps < 2:
        raise PpsdLabError(f"--steps must be >= 2, got {args.steps}")
    addressable(8 * (args.steps + 1), "--steps")
    model, meta = resolve_model(args)
    state = resolve_state(args.state, model)
    rho0 = state if isinstance(state, DensityMatrix) else DensityMatrix.from_state(state)
    times = np.linspace(0.0, args.t_max, args.steps + 1)
    path, states = propagated_states(model, rho0, times, method=args.method)
    bloch = model.basis == "qubit"
    columns = ["t", "purity", "trace_error", "min_eigenvalue"]
    if bloch:
        columns += ["n_x", "n_y", "n_z"]
    sx, sy, sz, _, _ = pauli_operators()
    rows = []
    # one row per state, built as it arrives: no state outlives the next row
    for t, (st, tr_err) in zip(times, states):
        m = st.matrix
        row = [float(t), purity(st), float(tr_err), st.min_eigenvalue]
        if bloch:
            row += [
                float(np.trace(m @ s).real)
                for s in (sx.matrix, sy.matrix, sz.matrix)
            ]
        rows.append(tuple(row))
    meta = _base_metadata(meta)
    meta.update(
        {
            "state": args.state,
            "t_max": args.t_max,
            "steps": args.steps,
            "method": args.method,
            "path": path,
        }
    )
    emit(ResultRecord(meta, tuple(columns), rows), args.format, args.output)
    return 0


def cmd_ppsd_check(args) -> int:
    _check_t_max(args.t_max)
    if args.steps < 1:
        raise PpsdLabError(f"--steps must be >= 1, got {args.steps}")
    addressable(8 * (args.steps + 1), "--steps")
    model, meta = resolve_model(args)
    psi = resolve_state(args.state, model, pure_required=True)
    residual = max(ppsd_residual(model, psi), 0.0)
    report = consistency_check(model, psi, t_max=args.t_max, n_steps=args.steps)
    meta = _base_metadata(meta)
    meta["state"] = args.state
    record = ResultRecord(
        meta,
        ("residual", "is_stationary", "consistency_gap", "verdict"),
        [(residual, report.is_stationary, report.consistency_gap, report.verdict)],
    )
    emit(record, args.format, args.output)
    return 0


def _state_repr(psi: StateVector) -> str:
    return ";".join(
        f"{z.real:.12g}{z.imag:+.12g}j" for z in psi.amplitudes
    )


def cmd_ppsd_search(args) -> int:
    if args.restarts < 1:
        raise PpsdLabError(f"--restarts must be >= 1, got {args.restarts}")
    if args.seed < 0:
        raise PpsdLabError(f"--seed must be >= 0, got {args.seed}")
    model, meta = resolve_model(args)
    config = SearchConfig(n_restarts=args.restarts, seed=args.seed)
    addressable(16 * model.dim * args.restarts, "--restarts")
    subspaces = zero_residual_subspaces(model)
    reports = _judge_zero_set(model, subspaces)
    unlisted = unlisted_hits(model, subspaces, config)
    meta = _base_metadata(meta)
    meta.update({"restarts": args.restarts, "seed": args.seed, "tol": PPSD_RESIDUAL_RTOL})
    meta.update({"zero_set": "exact", "subspace_dims": [B.shape[1] for B in subspaces]})
    if unlisted is not None:
        meta["unlisted_hits"] = unlisted
    if reports:
        extra = {}
    elif residual_scale(model) == 0.0:
        extra = {"note": "no dissipation: every state keeps its purity"}
    else:
        extra = {"note": "no PPSD states found"}
    record = ResultRecord(
        meta,
        ("residual", "is_stationary", "consistency_gap", "verdict", "state"),
        [
            (
                r.residual,
                r.is_stationary,
                r.consistency_gap,
                r.verdict,
                _state_repr(r.state),
            )
            for r in reports
        ],
        extra=extra,
    )
    emit(record, args.format, args.output)
    return 0


def cmd_list_models(args) -> int:
    rows = []
    for name in MODEL_NAMES:
        defaults, dim, note = CATALOG_INFO[name]
        params = " ".join(f"{k}={v}" for k, v in defaults.items())
        rows.append((name, params, dim, note))
    record = ResultRecord(
        _base_metadata({"n_models": len(MODEL_NAMES)}),
        ("name", "params", "default_dim", "description"),
        rows,
    )
    emit(record, args.format, args.output)
    return 0


# ---------------------------------------------------------------------------
# reproduction targets
# ---------------------------------------------------------------------------


def _random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace().real)


def _target_eq3():
    """Dephasing propagation against its entrywise decay law."""
    gamma = 1.0
    model = catalog_model(ModelSpec("dephasing_qubit", {"gamma": gamma}))
    rng = np.random.default_rng(2024)
    times = np.linspace(0.0, 2.0, 9)
    rows, worst = [], 0.0
    for k in range(20):
        rho0 = _random_density(rng, 2)
        traj = propagate(model, rho0, times)
        err = max(
            float(np.abs(st.matrix - dephasing_closed_form(rho0, gamma, t).matrix).max())
            for t, st in zip(times, traj.states)
        )
        worst = max(worst, err)
        rows.append((k, err))
    failures = [] if worst < 1e-9 else [f"max entrywise error {worst:.3e} >= 1e-9"]
    return rows, ("initial_state", "max_error"), {"max_error": worst}, failures


def _target_eq5():
    """Position-decoherence propagation against its Gaussian decay factor."""
    grid = GridSpec(-5.0, 5.0, 64)
    gamma = 1.0
    model = catalog_model(ModelSpec("position_decoherence", {"gamma": gamma}, grid))
    x = grid.points
    psi = StateVector.normalized(np.exp(-(x**2) / (4 * 0.7**2)))
    rho0 = DensityMatrix.from_state(psi)
    times = np.linspace(0.0, 1.0, 6)
    traj = propagate(model, rho0, times)
    rows, worst = [], 0.0
    for t, st in zip(times, traj.states):
        err = float(np.abs(st.matrix - position_closed_form(rho0, grid, gamma, t).matrix).max())
        worst = max(worst, err)
        rows.append((float(t), err))
    failures = [] if worst < 1e-8 else [f"max error {worst:.3e} >= 1e-8"]
    return rows, ("t", "max_error"), {"max_error": worst}, failures


def _target_eq16():
    """Thermal-qubit zero-residual roots across occupations."""
    rows, failures = [], []
    for N in (0.0, 0.1, 0.5, 1.0, 2.0):
        roots = thermal_qubit_ppsd_roots(N)
        rows.append((N, -(N**2) - N, ";".join(f"{r:.12g}" for r in roots) or "none"))
        if N == 0 and roots != [0.0]:
            failures.append(f"N=0 expected root 0, got {roots}")
        if N > 0 and roots:
            failures.append(f"N={N} expected no roots, got {roots}")
    return rows, ("N", "discriminant_over_4", "roots"), {}, failures


def _target_fig2():
    """Three-level feasibility boundary and p1+p2 excess."""
    p2_grid = np.linspace(0.0, 1.0, 2001)
    scan = three_level_feasibility_scan(1.0, 0.01, 0.4, 0.0004, p2_grid)
    feasible = [pt for pt in scan if pt.p1_roots]
    failures = []
    if not feasible:
        failures.append("no feasible p2 found")
        return [], ("p2", "p1_low", "p1_high", "sum_low", "sum_high"), {}, failures
    p2_min = feasible[0].p2
    if not 0.83 < p2_min < 0.90:
        failures.append(f"minimal feasible p2 {p2_min:.6f} outside (0.83, 0.90)")
    min_sum = min(min(pt.p1_plus_p2) for pt in feasible)
    if not min_sum > 1.0:
        failures.append(f"p1+p2 reached {min_sum:.9f} <= 1")
    rows = [
        (pt.p2, pt.p1_roots[0], pt.p1_roots[-1], pt.p1_plus_p2[0], pt.p1_plus_p2[-1])
        for pt in feasible
    ]
    extra = {"min_feasible_p2": p2_min, "min_p1_plus_p2": min_sum}
    return rows, ("p2", "p1_low", "p1_high", "sum_low", "sum_high"), extra, failures


def _target_fig3():
    """Squeezed-decay purity curve: closed form against propagation."""
    gamma0, r, theta, delta = 1.0, 0.2, math.pi, -math.pi / 2
    times = np.linspace(0.0, 3.0, 100)
    curve = fig3_purity_curve(gamma0, r, theta, delta, times)
    failures = []
    p_vals = np.array([p for _, p in curve])
    if abs(p_vals[0] - 1.0) > 1e-10:
        failures.append(f"P(0) = {p_vals[0]!r} differs from 1 beyond 1e-10")
    if np.any(np.diff(p_vals) >= 0):
        failures.append("P(t) is not strictly decreasing on [0, 3]")
    late = p_vals[times >= 0.05]
    if np.any(late >= 1.0 - 1e-6):
        failures.append("P(t) >= 1 - 1e-6 at some t >= 0.05")
    # cross-validation: propagate the model and compare 2 tr(rho^2) - 1
    model = catalog_model(
        ModelSpec("squeezed_vacuum_decay", {"gamma0": gamma0, "r": r, "theta": theta})
    )
    p_e = 1.0 / (1.0 + 1.0 / math.tanh(r))
    n0 = fig3_initial_bloch(p_e, delta)
    sx, sy, sz, _, _ = pauli_operators()
    rho0 = 0.5 * (
        np.eye(2, dtype=complex)
        + n0[0] * sx.matrix
        + n0[1] * sy.matrix
        + n0[2] * sz.matrix
    )
    traj = propagate(model, DensityMatrix(rho0), times)
    prop_p = 2.0 * traj.purities - 1.0
    gap = float(np.abs(prop_p - p_vals).max())
    if gap > 1e-7:
        failures.append(f"closed form vs propagation gap {gap:.3e} > 1e-7")
    rows = [(float(t), float(p), float(q)) for (t, p), q in zip(curve, prop_p)]
    return rows, ("t", "P_closed_form", "P_propagated"), {"max_gap": gap}, failures


def _target_b13():
    """Squeezed-decay zero-residual state: eigen checks and the exact search."""
    r, theta = 0.2, math.pi
    model = catalog_model(
        ModelSpec("squeezed_vacuum_decay", {"gamma0": 1.0, "r": r, "theta": theta})
    )
    psi = squeezed_ppsd_state(r, theta)
    C = model.terms[0].op.matrix
    lam = complex(np.vdot(psi.amplitudes, C @ psi.amplitudes))
    eig_defect = float(np.linalg.norm(C @ psi.amplitudes - lam * psi.amplitudes))
    lam_target = math.sqrt(math.sinh(2 * r) / 2.0)
    residual = ppsd_residual(model, psi)
    failures = []
    if eig_defect > 1e-12:
        failures.append(f"eigenvector defect {eig_defect:.3e} > 1e-12")
    if abs(abs(lam) - lam_target) > 1e-10:
        failures.append(f"|eigenvalue| {abs(lam)!r} differs from sqrt(sinh(2r)/2)")
    if residual > 1e-12:
        failures.append(f"residual {residual:.3e} > 1e-12")
    reports = ppsd_search(model)
    best = max(reports, key=lambda rep: fidelity(rep.state, psi), default=None)
    n_hits = len(reports)
    if n_hits != 1:
        failures.append(
            f"search returned {n_hits} states, expected exactly 1 "
            "(the jump operator has a +/- eigenvalue pair; see README)"
        )
    if best is None or fidelity(best.state, psi) <= 1.0 - 1e-8:
        failures.append("no search hit matches the candidate state to 1 - 1e-8")
    elif best.is_stationary or best.verdict != "no_ppsd":
        failures.append("matched hit should be non-stationary with verdict no_ppsd")
    rows = [
        (
            rep.residual,
            rep.is_stationary,
            rep.verdict,
            fidelity(rep.state, psi),
            _state_repr(rep.state),
        )
        for rep in reports
    ]
    extra = {
        "n_hits": n_hits,
        "eigenvalue_modulus": abs(lam),
        "candidate_residual": residual,
    }
    return rows, ("residual", "is_stationary", "verdict", "fidelity_vs_candidate", "state"), extra, failures


def _target_b16():
    """Driven-oscillator residual lower bound across frozen snapshots."""
    snapshots = [
        {"alpha_kT": 0.1, "gamma_t": 1.0, "xi_sq": 1.0},
        {"alpha_kT": 0.5, "gamma_t": 1.0, "xi_sq": 1.0},
        {"alpha_kT": 1.0, "gamma_t": 0.7, "xi_sq": 1.3},
        {"alpha_kT": 2.0, "gamma_t": 1.5, "xi_sq": 0.5},
        {"alpha_kT": 4.0, "gamma_t": 1.0, "xi_sq": 2.0},
    ]
    rng = np.random.default_rng(99)
    rows, failures = [], []
    dim = 24
    for snap in snapshots:
        params = {"dim": dim, **snap}
        states = [
            StateVector.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            for _ in range(100)
        ]
        residuals, bound = _nonadiabatic_residual_bounds(params, states)
        margin = min(residual - bound for residual in residuals)
        rows.append((snap["alpha_kT"], snap["gamma_t"], snap["xi_sq"], bound, margin))
        if margin < -1e-9:
            failures.append(f"snapshot {snap}: margin {margin:.3e} < -1e-9")
    return rows, ("alpha_kT", "gamma_t", "xi_sq", "bound", "min_margin"), {}, failures


def _target_grw():
    """Localization model: quadrature propagation against the closed form."""
    grid = GridSpec(-5.0, 5.0, 128)
    lam, alpha, t = 1.0, 1.0, 1.0
    model = catalog_model(ModelSpec("grw", {"lam": lam, "alpha": alpha}, grid))
    x = grid.points
    psi = StateVector.normalized(np.exp(-(x**2) / (4 * 0.5**2)))
    rho0 = DensityMatrix.from_state(psi)
    traj = propagate(model, rho0, [0.0, t])
    expected = grw_closed_form(rho0, grid, lam, alpha, t)
    err = float(np.abs(traj.states[-1].matrix - expected.matrix).max())
    failures = [] if err < 1e-7 else [f"max error {err:.3e} >= 1e-7"]
    return [(t, err)], ("t", "max_error"), {"max_error": err}, failures


_TARGETS = {
    "eq3": _target_eq3,
    "eq5": _target_eq5,
    "eq16": _target_eq16,
    "fig2": _target_fig2,
    "fig3": _target_fig3,
    "b13": _target_b13,
    "b16": _target_b16,
    "grw": _target_grw,
}


def cmd_reproduce(args) -> int:
    rows, columns, extra, failures = _TARGETS[args.target]()
    meta = _base_metadata({"target": args.target, "passed": not failures})
    if failures:
        meta["failures"] = " | ".join(failures)
    record = ResultRecord(meta, columns, rows, extra=extra)
    emit(record, args.format, args.output)
    if failures:
        for f in failures:
            print(f"reproduce {args.target}: {f}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=MODEL_NAMES, help="catalog model name")
    p.add_argument("--model-file", help="path to a JSON model file")
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="model parameter (repeatable)",
    )
    p.add_argument("--dim", type=int, help="override the Hilbert-space dimension")
    p.add_argument("--grid", help="override the grid as xmin,xmax,npoints")


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--output", help="write to this path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppsd-lab",
        description="Markovian open-system models, purity dynamics, and "
        "pure-pure-state-dynamics analysis.",
    )
    parser.add_argument("--version", action="version", version=f"ppsd-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="propagate a state and tabulate purity data")
    _add_model_flags(p)
    p.add_argument("--state", default="plus", help="initial state token")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument(
        "--method",
        choices=("exact_exponential", "adaptive_rk"),
        default="exact_exponential",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ppsd-check", help="purity-preservation residual of a state")
    _add_model_flags(p)
    p.add_argument("--state", required=True)
    p.add_argument("--t-max", type=float, default=2.0, help="consistency horizon")
    p.add_argument("--steps", type=int, default=40)
    _add_output_flags(p)
    p.set_defaults(func=cmd_ppsd_check)

    p = sub.add_parser(
        "ppsd-search",
        help="list the exact zero-residual states",
        description="The basis vectors of the exact zero-residual subspaces, "
        "each with its verdict; each has R < 1e-9 * residual_scale, a fixed "
        "gate printed as '# tol='.  --restarts and --seed drive the sphere-"
        "search cross-check of a non-diagonal model, printed as "
        "'# unlisted_hits='; they never change the rows.",
    )
    _add_model_flags(p)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_ppsd_search)

    p = sub.add_parser("reproduce", help="run a packaged quantitative check")
    p.add_argument("target", choices=REPRODUCE_TARGETS)
    _add_output_flags(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("list-models", help="enumerate the model catalog")
    _add_output_flags(p)
    p.set_defaults(func=cmd_list_models)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegrationFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (PpsdLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
