"""Command-line surface: flags, formats, exit codes, reproduction targets."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppsd_lab
from ppsd_lab import (
    MODEL_NAMES,
    GridSpec,
    LindbladModel,
    LindbladTerm,
    ModelSpec,
    Operator,
    catalog_model,
    liouvillian_matrix,
    propagate,
)
from ppsd_lab.cli import (
    load_model,
    main,
    model_from_dict,
    model_to_dict,
    resolve_state,
    save_model,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("dephasing_qubit", {"gamma": 1.0}),
        ModelSpec("thermal_qubit", {"gamma0": 2.0, "N": 0.3}),
        ModelSpec("squeezed_vacuum_decay", {"r": 0.4, "theta": 1.1}),
        ModelSpec("damped_oscillator", {"dim": 6, "omega": 0.5}),
        ModelSpec("position_decoherence", {}, GridSpec(-5.0, 5.0, 16)),
    ],
    ids=lambda s: s.name,
)
def test_model_file_round_trip_preserves_liouvillian(tmp_path, spec):
    model = catalog_model(spec)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    original = liouvillian_matrix(model)
    recovered = liouvillian_matrix(loaded)
    assert np.abs(original - recovered).max() < 1e-15
    assert loaded.basis_note == model.basis_note
    assert loaded.basis == model.basis


@pytest.mark.parametrize(
    "name", ["dephasing_qubit", "thermal_qubit", "depolarizing", "squeezed_vacuum_decay"]
)
def test_ground_is_the_second_basis_vector_of_qubit_models(name):
    model = catalog_model(ModelSpec(name))
    assert model.basis == "qubit"
    assert np.array_equal(resolve_state("ground", model).amplitudes, [0.0, 1.0])


def test_model_file_without_basis_reads_the_old_default():
    legacy = model_to_dict(catalog_model(ModelSpec("thermal_qubit")))
    del legacy["basis"]
    assert np.array_equal(resolve_state("ground", model_from_dict(legacy)).amplitudes, [0, 1])
    grid_spec = ModelSpec("position_decoherence", {}, GridSpec(-5.0, 5.0, 16))
    legacy = model_to_dict(catalog_model(grid_spec))
    del legacy["basis"]
    assert model_from_dict(legacy).basis == "levels"


@pytest.mark.parametrize("name", ["damped_oscillator", "phase_damped_oscillator",
                                  "walls_collet_milburn"])
def test_ground_of_a_two_level_fock_model_is_the_vacuum(capsys, name):
    code, out, _ = run_cli(capsys, "ppsd-check", "--model", name, "--dim", "2",
                           "--state", "ground")
    assert code == 0
    assert out.splitlines()[-1] == "0.0,true,0.0,stationary_only"


def test_excited_is_the_first_vector_of_a_qubit_basis():
    model = catalog_model(ModelSpec("thermal_qubit"))
    assert np.array_equal(resolve_state("excited", model).amplitudes, [1.0, 0.0])


@pytest.mark.parametrize("name", ["thermal_qubit", "depolarizing", "damped_oscillator",
                                  "three_level_atom", "multimode"])
def test_vacuum_is_the_ground_state_off_a_grid(name):
    model = catalog_model(ModelSpec(name))
    vacuum = resolve_state("vacuum", model).amplitudes
    assert np.array_equal(vacuum, resolve_state("ground", model).amplitudes)
    assert vacuum[1 if model.basis == "qubit" else 0] == 1.0


def test_simulate_from_the_thermal_qubit_vacuum_starts_at_the_ground_level(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "thermal_qubit", "--state", "vacuum",
                           "--t-max", "1", "--steps", "2")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert float(dict(zip(header, rows[0]))["n_z"]) == -1.0


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_grid_model_file_simulates_like_the_catalog_model(capsys, tmp_path, model):
    # every catalog model, grid or not, at its default size
    path = tmp_path / "model.json"
    save_model(catalog_model(ModelSpec(model)), str(path))
    state = "gaussian:0.3,0.7" if model in ("position_decoherence", "grw") else "plus"
    common = ("--state", state, "--t-max", "1")
    from_file = run_cli(capsys, "simulate", "--model-file", str(path), *common)
    from_flags = run_cli(capsys, "simulate", "--model", model, *common)
    assert (from_file[0], from_flags[0]) == (0, 0)
    assert parse_csv(from_file[1])[1:] == parse_csv(from_flags[1])[1:]


def test_model_dict_round_trip_complex_entries():
    model = catalog_model(ModelSpec("squeezed_vacuum_decay", {"theta": 0.7}))
    again = model_from_dict(model_to_dict(model))
    np.testing.assert_array_equal(again.terms[0].op.matrix, model.terms[0].op.matrix)


def test_model_file_keeps_diagonal_operators_as_diagonals(tmp_path):
    model = catalog_model(ModelSpec("grw", {}, GridSpec(-5.0, 5.0, 64)))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    obj = json.loads(path.read_text())
    assert np.asarray(obj["terms"][0]["op"]).shape == (64, 2)
    loaded = load_model(str(path))
    for ours, theirs in zip(model._diagonal_jumps, loaded._diagonal_jumps):
        assert ours.tobytes() == theirs.tobytes()
    assert not any("matrix" in t.op.__dict__ for t in loaded.terms)


def test_model_file_diagonal_of_the_wrong_length_exits_two(capsys, tmp_path):
    obj = model_to_dict(catalog_model(ModelSpec("dephasing_qubit")))
    obj["terms"][0]["op"].append([0.0, 0.0])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(
        capsys, "simulate", "--model-file", str(path), "--t-max", "1", "--state", "plus"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_model_file_exits_two(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(
        capsys, "simulate", "--model-file", str(missing), "--t-max", "1", "--state", "plus"
    )
    assert code == 2
    assert "error" in err


def test_malformed_model_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "dim": 2}')
    code, _, err = run_cli(
        capsys, "simulate", "--model-file", str(bad), "--t-max", "1", "--state", "plus"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_dephasing_purity_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--model", "dephasing_qubit",
        "--param", "gamma=1",
        "--state", "plus",
        "--t-max", "1",
        "--steps", "100",
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header[:4] == ["t", "purity", "trace_error", "min_eigenvalue"]
    assert header[4:] == ["n_x", "n_y", "n_z"]
    final_purity = float(rows[-1][1])
    assert final_purity == pytest.approx(0.5 * (1 + math.exp(-4.0)), abs=1e-6)
    assert final_purity == pytest.approx(0.509158, abs=1e-6)


def test_simulate_thermal_relaxation_to_ground(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--model", "thermal_qubit",
        "--param", "gamma0=1",
        "--param", "N=0",
        "--state", "excited",
        "--t-max", "20",
        "--steps", "50",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    final = {k: float(v) for k, v in zip(header, rows[-1])}
    # ground state |-> has Bloch vector (0, 0, -1)
    assert abs(final["n_z"] + 1.0) < 1e-6
    assert abs(final["n_x"]) < 1e-6 and abs(final["n_y"]) < 1e-6
    assert final["purity"] == pytest.approx(1.0, abs=1e-6)


def test_simulate_prints_no_bloch_columns_off_a_qubit_basis(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "damped_oscillator", "--dim", "2",
        "--state", "ground", "--t-max", "1", "--steps", "2",
    )
    assert code == 0
    _, header, _ = parse_csv(out)
    assert header == ["t", "purity", "trace_error", "min_eigenvalue"]


def test_simulate_rejects_zero_horizon(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--model", "dephasing_qubit", "--state", "plus", "--t-max", "0"
    )
    assert code == 2


def test_simulate_refuses_a_seed(capsys):
    # simulate is deterministic, so a seed would be ignored: refuse it
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "depolarizing", "--t-max", "1", "--seed", "9"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_search_refuses_a_tol(capsys):
    # the zero-residual gate is a fixed constant, so a tolerance is refused
    with pytest.raises(SystemExit) as exc:
        main("ppsd-search --model thermal_qubit --tol 1e-6".split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err


def test_simulate_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--model", "dephasing_qubit", "--state", "plus",
        "--t-max", "1", "--steps", "4", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["columns"][:2] == ["t", "purity"]
    assert len(obj["rows"]) == 5


# ---------------------------------------------------------------------------
# ppsd-check / ppsd-search
# ---------------------------------------------------------------------------


def test_check_depolarizing_excited(capsys):
    code, out, _ = run_cli(
        capsys, "ppsd-check", "--model", "depolarizing", "--state", "excited"
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert float(rec["residual"]) == pytest.approx(2.0, abs=1e-12)
    assert rec["verdict"] == "no_ppsd"


def test_check_thermal_ground_stationary(capsys):
    code, out, _ = run_cli(
        capsys,
        "ppsd-check", "--model", "thermal_qubit",
        "--param", "gamma0=1", "--param", "N=0", "--state", "ground",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert float(rec["residual"]) == pytest.approx(0.0, abs=1e-12)
    assert rec["is_stationary"] == "true"
    assert rec["verdict"] == "stationary_only"


def test_check_squeezed_candidate_zero_residual_but_no_trajectory(capsys):
    code, out, _ = run_cli(
        capsys,
        "ppsd-check", "--model", "squeezed_vacuum_decay",
        "--param", "r=0.2", "--param", "theta=3.141592653589793",
        "--state", "squeezed_candidate",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert float(rec["residual"]) < 1e-12
    assert rec["is_stationary"] == "false"
    assert rec["verdict"] == "no_ppsd"


def test_check_prints_a_nonnegative_residual(capsys):
    # R(psi) of this coherent state evaluates to -1.7e-16 in floating point;
    # the printed purity-loss rate is clamped at 0 like the report's
    code, out, _ = run_cli(
        capsys,
        "ppsd-check", "--model", "damped_oscillator", "--param", "N=0.0",
        "--dim", "24", "--state", "coherent:0.395336,0.304141",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert float(rec["residual"]) == 0.0
    assert rec["verdict"] == "ppsd_trajectory"


def test_check_dimension_mismatch_exits_two(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    code, _, err = run_cli(
        capsys,
        "ppsd-check", "--model", "dephasing_qubit", "--state", f"file:{state}",
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--model", "damped_oscillator", "--state", "coherent:abc"),
        ("--model", "damped_oscillator", "--state", "basis:x"),
        ("--model", "position_decoherence", "--grid=-5,5,16", "--state", "gaussian:1"),
        ("--model", "damped_oscillator", "--grid=-5,5,16"),
        ("--model", "position_decoherence", "--dim", "8"),
        ("--model", "grw", "--dim", "8"),
        ("--model", "multimode", "--dim", "8"),
        ("--model", "csl", "--dim", "8"),
        ("--model", "damped_oscillator", "--dim", "16", "--state", "coherent:1e300"),
        ("--model", "damped_oscillator", "--dim", "16", "--state", "coherent:1e10,1e10"),
        ("--model", "position_decoherence", "--grid=-5,5,16", "--state", "gaussian:0,1e300"),
        ("--model", "position_decoherence", "--grid=-5,5,16", "--state", "gaussian:1e300,1"),
        ("--model", "position_decoherence", "--grid=-5,5,16", "--state", "coherent:1"),
        ("--model", "position_decoherence", "--grid=-5,5,16", "--state", "fock:3"),
        ("--model", "position_decoherence", "--grid=-5,5,16", "--state", "vacuum"),
        ("--model", "grw", "--grid=-5,5,16", "--state", "vacuum"),
        ("--model", "three_level_atom", "--state", "excited"),
        ("--model", "damped_oscillator", "--dim", "2", "--state", "excited"),
        ("--model", "grw", "--grid=-5,5,16", "--state", "excited"),
        ("--model", "grw", "--grid=-5,5,64", "--dim", "10", "--state", "basis:3"),
    ],
    ids=lambda flags: " ".join(flags[1:]),
)
def test_invalid_state_or_dimension_exits_two_with_one_line(capsys, flags):
    code, out, err = run_cli(capsys, "simulate", *flags, "--t-max", "1", "--steps", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ("simulate", "--model", "thermal_qubit", "--state", "plus", "--steps", "3"),
        ("ppsd-check", "--model", "thermal_qubit", "--param", "N=0.3", "--state", "plus"),
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("t_max", ["inf", "nan"])
def test_non_finite_t_max_exits_two(capsys, command, t_max):
    code, out, err = run_cli(capsys, *command, "--t-max", t_max)
    assert code == 2
    assert out == ""
    assert err == "error: t-max must be finite and > 0\n"


@pytest.mark.parametrize(
    "model, param",
    [
        ("multimode", "n_modes=inf"),
        ("damped_oscillator", "dim=inf"),
        ("multimode", "mode_dim=nan"),
        ("nonadiabatic_driven", "dim=nan"),
        ("damped_oscillator", "dim=2.7"),
        ("thermal_qubit", "N=inf"),
        ("thermal_qubit", "N=-1"),
        ("thermal_qubit", "gamma0=0"),
        ("multimode", "n_modes=4"),
        ("multimode", "mode_dim=1"),
        ("damped_oscillator", "dim=1"),
        ("damped_oscillator", "1"),
        ("grw", "alpha=0"),
        ("walls_collet_milburn", "gamma=0"),
        ("nonadiabatic_driven", "m=0"),
        ("squeezed_vacuum_decay", "r=-0.5"),
        ("three_level_atom", "N1=-1"),
    ],
)
def test_non_finite_or_fractional_param_exits_two_naming_it(capsys, model, param):
    # a bare number is a --dim override, anything else a --param
    flag, name = ("--param", param.split("=")[0]) if "=" in param else ("--dim", "dim")
    code, out, err = run_cli(
        capsys, "simulate", "--model", model, flag, param, "--t-max", "1", "--steps", "2",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: parameter {name} must be ")


@pytest.mark.parametrize(
    "model, size, message",
    [
        ("walls_collet_milburn", "epsilon=1e200", "parameter epsilon=1e+200 overflows"),
        ("squeezed_vacuum_decay", "r=1000", "parameter r=1000 overflows"),
        ("damped_oscillator", "dim=1e300", "out of memory: parameter dim is too large"),
        ("multimode", "mode_dim=1e300", "out of memory: parameter mode_dim is too large"),
        ("damped_oscillator", str(10**23), "out of memory: parameter dim is too large"),
        ("damped_oscillator", "n_modes=1e18", "unknown params for damped_oscillator: ['n_modes']"),
        ("dephasing_qubit", "dim=1e300", "unknown params for dephasing_qubit: ['dim']"),
    ],
)
def test_huge_param_exits_two_naming_it_before_allocating(capsys, model, size, message):
    # a bare number is a --dim override, anything else a --param
    flag = "--param" if "=" in size else "--dim"
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "simulate", "--model", model, flag, size, "--t-max", "1", "--steps", "2",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {message}")
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--model", "thermal_qubit", "--t-max", "1", "--steps", str(10**18)),
        ("ppsd-check", "--model", "thermal_qubit", "--state", "plus", "--steps", str(10**18)),
        ("ppsd-search", "--model", "squeezed_vacuum_decay", "--restarts", str(10**17)),
        ("simulate", "--model", "damped_oscillator", "--dim", str(10**17), "--t-max", "1"),
        ("simulate", "--model", "thermal_qubit", "--t-max", "1", "--steps", str(10**20)),
        ("ppsd-check", "--model", "thermal_qubit", "--state", "plus", "--steps", str(10**20)),
        ("simulate", "--model", "position_decoherence", f"--grid=-5,5,{10**20}",
         "--state", "gaussian:0,1", "--t-max", "1"),
        ("ppsd-search", "--model", "thermal_qubit", "--restarts", str(10**20)),
    ],
    ids=["simulate-steps", "ppsd-check-steps", "ppsd-search-restarts", "simulate-dim",
         "simulate-steps-1e20", "ppsd-check-steps-1e20", "simulate-grid-1e20",
         "ppsd-search-restarts-1e20"],
)
def test_an_allocation_the_machine_refuses_exits_two_with_one_line(capsys, argv):
    # each size asks for more bytes than a 57-bit address space holds:
    # numpy refuses the allocation, or the size check refuses a size beyond
    # what numpy can address, before any memory is touched
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: out of memory: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", ["-inf,5,64", "-1e308,1e308,64", "nan,5,64", "-5,nan,64"])
@pytest.mark.parametrize("model", ["position_decoherence", "grw"])
def test_non_finite_grid_points_exit_two(capsys, model, grid):
    code, out, err = run_cli(
        capsys, "simulate", "--model", model, f"--grid={grid}", "--state", "basis:3",
        "--t-max", "1", "--steps", "2",
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: --grid expects xmin,xmax,npoints, got {grid!r}: "
        "grid requires finite bounds and spacing\n"
    )


@pytest.mark.parametrize(
    "grid, reason",
    [
        ("5,-5,64", ": grid requires x_min < x_max"),
        ("-5,5,4", ": grid requires at least 8 points"),
        ("-5,5", ""),
        ("-5,5,6.5", ""),
    ],
)
def test_refused_grid_names_the_failed_condition(capsys, grid, reason):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "grw", f"--grid={grid}", "--t-max", "1",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --grid expects xmin,xmax,npoints, got {grid!r}{reason}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bounds", [[-math.inf, 5.0], [-1e308, 1e308], [math.nan, 5.0]])
def test_non_finite_grid_basis_in_model_file_exits_two(capsys, tmp_path, bounds):
    grid_spec = ModelSpec("position_decoherence", {}, GridSpec(-5.0, 5.0, 16))
    obj = model_to_dict(catalog_model(grid_spec))
    obj["basis"] = [*bounds, 16]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(
        capsys, "simulate", "--model-file", str(path), "--state", "basis:3", "--t-max", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: malformed model file: grid requires finite bounds and spacing\n"


def test_basis_token_valid_on_grid_models(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "position_decoherence", "--grid=-5,5,16",
        "--state", "basis:3", "--t-max", "1", "--steps", "2",
    )
    assert code == 0 and out


def _wrong_count(counts):
    return (
        st.lists(st.integers(-9, 9), min_size=1, max_size=4)
        .filter(lambda xs: len(xs) not in counts)
        .map(lambda xs: ",".join(map(str, xs)))
    )


HUGE = st.floats(1e10, 1.7e308).flatmap(lambda x: st.sampled_from((x, -x)))

MALFORMED_STATE_TOKENS = st.one_of(
    st.builds(
        "{}:{}".format,
        st.sampled_from(("coherent", "basis", "fock", "gaussian")),
        st.text(alphabet="abxyz!?@ ,.", max_size=6),
    ),
    st.builds("coherent:{}".format, _wrong_count((1, 2))),
    st.builds("gaussian:{}".format, _wrong_count((2,))),
    st.builds("{}:{}.5".format, st.sampled_from(("basis", "fock")), st.integers(0, 9)),
    # huge finite magnitudes: refused by the truncation guard or out of
    # floating-point range on the grid, never an overflow traceback
    st.builds("coherent:{!r}".format, HUGE),
    st.builds("coherent:{!r},{!r}".format, HUGE, HUGE),
    st.builds("gaussian:{!r},{!r}".format, st.floats(-5, 5), st.floats(1.4e154, 1.7e308)),
    st.builds("gaussian:{!r},{!r}".format, HUGE, st.floats(0.1, 10)),
)


@settings(max_examples=60, deadline=None)
@given(token=MALFORMED_STATE_TOKENS)
def test_malformed_state_tokens_exit_two(token):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["ppsd-check", "--model", "position_decoherence",
                     "--grid=-5,5,16", "--state", token])
    assert code == 2
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def _count_eigvalsh(monkeypatch) -> list:
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_simulate_diagonalises_each_state_once(capsys, monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    code, out, _ = run_cli(
        capsys,
        "simulate", "--model", "position_decoherence", "--state", "gaussian:0.5,0.8",
        "--t-max", "1", "--steps", "50",
    )
    assert code == 0
    assert len(parse_csv(out)[2]) == 51
    # the initial state plus one per row
    assert len(calls) == 52


def test_ppsd_check_diagonalises_each_state_once(capsys, monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    code, _, _ = run_cli(
        capsys,
        "ppsd-check", "--model", "position_decoherence", "--grid=-5,5,32",
        "--state", "gaussian:0.5,0.8",
    )
    assert code == 0
    # the initial state, then per point of the 41-point consistency grid one
    # propagated state and one trace distance
    assert len(calls) == 1 + 2 * 41


def test_simulate_exits_three_on_negativity_beyond_the_gate(capsys, monkeypatch, tmp_path):
    import ppsd_lab.lindblad as lindblad

    c, s = math.cos(0.4), math.sin(0.4)
    u = np.array([[c, -1j * s], [-1j * s, c]])
    bad = u @ np.diag([1 + 5e-8, -5e-8]) @ u.conj().T
    target = tmp_path / "out.csv"
    target.write_text("earlier run\n")
    # the gate fails at the first time, printing nothing, and at the last
    # time, after every earlier row was built, leaving --output untouched
    for failing, output in ((0, ()), (2, ("--output", str(target)))):

        def raw(_m, r, times, failing=failing):
            yield from [r] * failing + [bad] * (len(times) - failing)

        monkeypatch.setattr(lindblad, "_propagate_exact", raw)
        code, out, err = run_cli(
            capsys, "simulate", "--model", "thermal_qubit", "--state", "plus",
            "--t-max", "1", "--steps", "2", *output,
        )
        assert code == 3
        assert out == ""
        assert err == f"numerical failure: negativity -5.000e-08 at t={failing / 2}\n"
    assert target.read_text() == "earlier run\n"
    assert [f.name for f in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize(
    "argv, path",
    [
        (("--model", "dephasing_qubit"), "entrywise"),
        (("--model", "thermal_qubit"), "block_expm"),
        (("--model", "damped_oscillator", "--dim", "24", "--state", "coherent:0.5,0"),
         "block_expm"),
        (("--model", "nonadiabatic_driven", "--dim", "24", "--state", "coherent:0.5,0"),
         "sparse_taylor"),
        (("--model", "thermal_qubit", "--method", "adaptive_rk"), "adaptive_rk"),
    ],
    ids=["entrywise", "block_expm", "block_expm_d24", "sparse_taylor", "adaptive_rk"],
)
def test_simulate_reports_the_propagation_path(capsys, argv, path):
    args = ("simulate", *argv, "--t-max", "0.5", "--steps", "4")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert parse_csv(out)[0]["path"] == path
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out)["metadata"]["path"] == path


@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "dephasing_qubit", "--t-max", "0.5", "--steps", "4"),
        ("--model", "thermal_qubit", "--t-max", "0.5", "--steps", "4"),
        # one 40-point Taylor block after the t = 0 step
        ("--model", "nonadiabatic_driven", "--dim", "24", "--state", "coherent:0.5,0",
         "--t-max", "0.05", "--steps", "40"),
        ("--model", "thermal_qubit", "--method", "adaptive_rk", "--t-max", "0.5", "--steps", "4"),
    ],
    ids=["entrywise", "block_expm", "sparse_taylor", "adaptive_rk"],
)
def test_simulate_streams_the_rows_of_the_propagated_trajectory(monkeypatch, argv):
    import ppsd_lab.cli as cli
    import ppsd_lab.lindblad as lindblad

    calls, records, blocks = [], [], []
    stream, taylor_block = cli.propagated_states, lindblad._taylor_block

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return stream(*args, **kwargs)

    def block_spy(A, mu, z, h, count, K):
        blocks.append(count)
        return taylor_block(A, mu, z, h, count, K)

    monkeypatch.setattr(cli, "propagated_states", spy)
    monkeypatch.setattr(lindblad, "_taylor_block", block_spy)
    monkeypatch.setattr(cli, "emit", lambda record, _fmt, _out: records.append(record))
    assert main(["simulate", *argv]) == 0
    if "nonadiabatic_driven" in argv:
        assert max(blocks) > 1
    (args, kwargs), = calls
    traj = propagate(*args, **kwargs)
    want = list(zip(traj.times.tolist(), traj.purities.tolist(), traj.trace_errors.tolist(),
                    [s.min_eigenvalue for s in traj.states]))
    assert [row[:4] for row in records[0].rows] == want
    assert records[0].metadata["path"] == traj.path


@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "position_decoherence", "--grid=-5,5,256", "--state", "gaussian:0.3,0.7",
         "--t-max", "1.5", "--steps", "400"),
        ("--model", "nonadiabatic_driven", "--dim", "40", "--t-max", "0.01", "--steps", "2000"),
        ("--model", "damped_oscillator", "--param", "N=0.3", "--dim", "40",
         "--t-max", "0.01", "--steps", "2000"),
    ],
    ids=["entrywise_grid", "sparse_one_block", "block_expm"],
)
def test_simulate_memory_does_not_grow_with_steps(capsys, argv):
    # the streamed rows hold no state: 401 float64 256 x 256 states take
    # 200 MiB, and a (2000, 1600) complex Taylor block 49 MiB
    tracemalloc.start()
    try:
        code = main(["simulate", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 16 * 2**20


def test_simulate_prints_the_trace_error_the_gate_judged(capsys, monkeypatch):
    import ppsd_lab.lindblad as lindblad

    # inside the 1e-8 gate: tr = 1 + 3e-9 before renormalisation
    monkeypatch.setattr(
        lindblad, "_propagate_exact", lambda _m, r, times: [r + 1.5e-9 * np.eye(2)] * len(times)
    )
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "thermal_qubit", "--state", "plus",
        "--t-max", "1", "--steps", "2",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    for row in rows:
        assert abs(float(row[header.index("trace_error")]) - 3e-9) < 1e-15
        # the gated state: eigenvalues (1, 0) + 1.5e-9, renormalised
        assert float(row[header.index("min_eigenvalue")]) == pytest.approx(
            1.5e-9 / (1 + 3e-9), abs=1e-15
        )


def test_simulate_d80_runs_the_exact_method_it_reports(capsys, monkeypatch):
    import ppsd_lab.lindblad as lindblad

    def refuse(*_args, **_kwargs):
        raise AssertionError("adaptive RK ran")

    monkeypatch.setattr(lindblad, "solve_ivp", refuse)
    code, out, _ = run_cli(
        capsys,
        "simulate", "--model", "damped_oscillator", "--param", "N=0.483216",
        "--dim", "80", "--state", "coherent:-0.159641,-1.12669",
        "--t-max", "1.0", "--steps", "20",
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["method"] == "exact_exponential"
    assert len(rows) == 21
    assert min(float(r[header.index("min_eigenvalue")]) for r in rows) > -1e-8


def test_check_builds_the_kronecker_sum_once(capsys, monkeypatch):
    # the norm, the blocks and the propagation read one cached generator:
    # the Kronecker sum of H and two jump operators takes 2 + 2 * 3 products
    from scipy import sparse

    kron, calls = sparse.kron, []

    def counted(*args, **kwargs):
        calls.append(args)
        return kron(*args, **kwargs)

    monkeypatch.setattr(sparse, "kron", counted)
    code, _, _ = run_cli(
        capsys,
        "ppsd-check", "--model", "damped_oscillator", "--param", "N=0.3",
        "--dim", "24", "--state", "coherent:0.5",
    )
    assert code == 0
    assert len(calls) == 8


@pytest.mark.filterwarnings("error")
def test_long_horizon_grid_simulate_exits_quietly(capsys):
    # c_ii is exactly 0, so exp(c t) stays bounded at any horizon; the
    # roundoff the formula leaves there overflows exp(c t) at t = 2.5e19
    code, out, err = run_cli(
        capsys,
        "simulate", "--model", "grw", "--grid=-5,5,64", "--state", "gaussian:0.3,0.7",
        "--t-max", "1e20", "--steps", "4",
    )
    assert code == 0
    assert err == ""
    _, header, rows = parse_csv(out)
    assert len(rows) == 5
    assert max(float(r[header.index("trace_error")]) for r in rows) < 1e-12


@pytest.mark.filterwarnings("error")
def test_long_horizon_dephasing_check_exits_quietly(capsys):
    # c t overflows to -inf at t = 1e308 unless clipped, and an uncapped
    # DOP853 step overflows scipy's step-size update
    code, out, err = run_cli(
        capsys,
        "ppsd-check", "--model", "dephasing_qubit", "--state", "plus", "--t-max", "1e308",
    )
    assert code == 0
    assert err == ""
    _, header, rows = parse_csv(out)
    assert rows[0][header.index("verdict")] == "no_ppsd"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flags",
    [
        ("--model", "thermal_qubit", "--param", "N=0.3", "--state", "plus"),
        ("--model", "damped_oscillator", "--param", "N=0.3", "--dim", "24",
         "--state", "coherent:1"),
        ("--model", "dephasing_qubit", "--state", "plus"),
        ("--model", "grw", "--grid=-5,5,16", "--state", "gaussian:0.5,0.7"),
    ],
    ids=lambda flags: flags[1],
)
def test_smallest_positive_horizon_check_exits_zero(capsys, flags):
    # t_max / 10 underflows to 0, which DOP853 refuses as a step cap
    code, out, err = run_cli(capsys, "ppsd-check", *flags, "--t-max", "5e-324")
    assert (code, err) == (0, "")
    _, header, rows = parse_csv(out)
    assert rows[0][header.index("verdict")] == "no_ppsd"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ("--model", "grw", "--param", "lam=0", "--t-max", "1", "--steps", "2"),
            id="grw-lam0",
        ),
        pytest.param(
            ("--model", "squeezed_vacuum_decay", "--param", "r=12", "--t-max", "1",
             "--steps", "2"),
            id="squeeze-r12",
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4: trace error 1.490e-07"),
        ),
        pytest.param(
            ("--model", "thermal_qubit", "--param", "N=0.3", "--t-max", "1e20"),
            id="thermal-1e20",
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4: trace error 3.039e+11"),
        ),
        pytest.param(
            ("--model", "three_level_atom", "--state", "ground", "--t-max", "1e20"),
            id="three-level-1e20",
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4: trace error 1.958e+06"),
        ),
        # the block path's work does not grow with the horizon
        pytest.param(
            ("--model", "damped_oscillator", "--param", "N=0.3", "--dim", "24",
             "--t-max", "1500"),
            id="damped-d24-1500",
        ),
        pytest.param(
            ("--model", "damped_oscillator", "--param", "N=0.3", "--dim", "24",
             "--t-max", "1e20", "--steps", "5"),
            id="damped-d24-1e20",
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4: trace error 1.000e+00"),
        ),
        pytest.param(
            ("--model", "damped_oscillator", "--param", "N=0.3", "--dim", "40",
             "--method", "adaptive_rk", "--t-max", "2"),
            id="adaptive-rk-d40",
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 6: negativity -1.971e-08"),
        ),
    ],
)
def test_valid_simulate_exits_zero_quietly(capsys, argv):
    code, _, err = run_cli(capsys, "simulate", *argv)
    assert (code, err) == (0, "")


@pytest.mark.filterwarnings("error")
def test_sparse_simulate_at_the_float_limit_exits_two_with_one_line(capsys):
    # t ||L||_1 overflows at t = 1e308: one error line, no warning, no
    # traceback
    code, out, err = run_cli(
        capsys,
        "simulate", "--model", "damped_oscillator", "--param", "N=0.3", "--dim", "24",
        "--t-max", "1e308", "--steps", "5",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_max", ["1e308", "1e300"])
def test_dense_simulate_past_the_float_limit_fails_with_one_line(capsys, t_max):
    # the dense step overflows to a NaN trace, which the propagation gate
    # must refuse before the renormalising divide; the step cache's key
    # must not overflow either
    code, out, err = run_cli(
        capsys, "simulate", "--model", "thermal_qubit", "--param", "N=0.3", "--t-max", t_max,
    )
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: trace error nan at t=")


def test_search_occupied_thermal_bath_reports_no_states(capsys):
    code, out, _ = run_cli(
        capsys,
        "ppsd-search", "--model", "thermal_qubit",
        "--param", "gamma0=1", "--param", "N=1", "--restarts", "64",
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert rows == []
    assert meta["note"] == "no PPSD states found"


@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "dephasing_qubit", "--param", "gamma=0"),
        ("--model", "squeezed_vacuum_decay", "--param", "gamma0=0"),
    ],
    ids=["diagonal", "sampled"],
)
def test_search_without_dissipation_says_every_state_keeps_its_purity(capsys, argv):
    code, out, _ = run_cli(capsys, "ppsd-search", *argv)
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert rows == []
    assert meta["note"] == "no dissipation: every state keeps its purity"


def test_search_phase_damped_finds_all_fock_states(capsys):
    code, out, _ = run_cli(
        capsys,
        "ppsd-search", "--model", "phase_damped_oscillator",
        "--restarts", "160", "--seed", "3",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert len(rows) == 10
    assert all(r[header.index("is_stationary")] == "true" for r in rows)


@pytest.mark.parametrize(
    "argv, dims, unlisted",
    [
        (("--model", "thermal_qubit", "--restarts", "4"), "1", "0"),
        (("--model", "walls_collet_milburn", "--dim", "4"), "1;1;1;1", None),
    ],
    ids=["cross_checked", "exact"],
)
def test_search_metadata_names_the_zero_set(capsys, argv, dims, unlisted):
    # every model's zero set is exact; only a non-diagonal model runs the
    # restarts that cross-check it
    code, out, _ = run_cli(capsys, "ppsd-search", *argv)
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["zero_set"] == "exact"
    assert meta["subspace_dims"] == dims
    assert meta.get("unlisted_hits") == unlisted


def test_search_enumerates_the_zero_set_once(capsys, monkeypatch):
    import ppsd_lab.cli as cli
    import ppsd_lab.ppsd as ppsd

    calls, enumerate_zero_set = [], ppsd.zero_residual_subspaces

    def counted(model):
        calls.append(model)
        return enumerate_zero_set(model)

    monkeypatch.setattr(cli, "zero_residual_subspaces", counted)
    monkeypatch.setattr(ppsd, "zero_residual_subspaces", counted)
    code, out, _ = run_cli(capsys, "ppsd-search", "--model", "squeezed_vacuum_decay")
    assert code == 0
    assert len(parse_csv(out)[2]) == 2
    assert len(calls) == 1


def _search_rows(capsys, argv, restarts, seed):
    code, out, _ = run_cli(
        capsys, "ppsd-search", *argv, "--restarts", str(restarts), "--seed", str(seed),
    )
    assert code == 0
    cross_check = ("# restarts=", "# seed=", "# unlisted_hits=")
    kept = [line for line in out.splitlines() if not line.startswith(cross_check)]
    return kept, parse_csv(out)[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "three_level_atom", "--param", "N1=0", "--param", "N2=0"),
        ("--model", "squeezed_vacuum_decay"),
        ("--model", "multimode"),
        ("--model", "walls_collet_milburn", "--dim", "10"),
    ],
    ids=lambda argv: argv[1],
)
def test_search_rows_depend_on_the_model_alone(capsys, argv):
    first, _ = _search_rows(capsys, argv, 1, 0)
    for restarts, seed in ((16, 3), (160, 9)):
        assert _search_rows(capsys, argv, restarts, seed)[0] == first


def test_search_lists_the_multimode_vacuum_and_flags_its_near_coherent_family(capsys):
    # the truncated ladder operators have the vacuum as their one joint
    # eigenvector, while near-coherent states pass the residual gate: the
    # restarts that end there are counted, never listed
    code, out, _ = run_cli(capsys, "ppsd-search", "--model", "multimode")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0][header.index("verdict")] == "stationary_only"
    state = [complex(z) for z in rows[0][header.index("state")].split(";")]
    assert state == [1.0] + [0.0] * 15
    assert meta["subspace_dims"] == "1"
    assert int(meta["unlisted_hits"]) > 0


def test_search_returns_every_grid_point_of_a_grw_model(capsys):
    code, out, _ = run_cli(
        capsys, "ppsd-search", "--model", "grw", "--grid=-5,5,32", "--restarts", "1",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["metadata"]["zero_set"] == "exact"
    assert obj["metadata"]["subspace_dims"] == [1] * 32
    states = [[complex(z) for z in row[4].split(";")] for row in obj["rows"]]
    assert np.array_equal(np.abs(states), np.eye(32))


def test_search_reports_a_repeated_signature_as_one_subspace(capsys, tmp_path):
    model = LindbladModel(
        hamiltonian=Operator(np.diag([0.0, 1.0, 2.0])),
        terms=(LindbladTerm(1.0, Operator.from_diagonal([1.0, 3.0, 1.0])),),
        dim=3,
    )
    path = tmp_path / "model.json"
    save_model(model, str(path))
    code, out, _ = run_cli(capsys, "ppsd-search", "--model-file", str(path))
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["subspace_dims"] == "2;1"
    assert [r[header.index("state")] for r in rows] == [
        "1+0j;0+0j;0+0j", "0+0j;0+0j;1+0j", "0+0j;1+0j;0+0j",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("ppsd-check", "--state", "gaussian:0.5,0.7"),
        ("ppsd-search", "--restarts", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_grid_commands_stay_within_a_memory_bound(capsys, argv):
    # the dense per-term table of a 192-point grw model alone is 340 MB
    tracemalloc.start()
    try:
        code = main([argv[0], "--model", "grw", "--grid=-5,5,192", *argv[1:]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "model, flag, value",
    [
        ("dephasing_qubit", "--restarts", "0"),
        ("thermal_qubit", "--seed", "-1"),
        ("csl", "--seed", "-1"),
    ],
    ids=["dephasing-restarts-0", "thermal-seed-minus-1", "csl-seed-minus-1"],
)
def test_search_invalid_flags_exit_two(capsys, model, flag, value):
    code, out, err = run_cli(capsys, "ppsd-search", "--model", model, flag, value)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {flag} must be ")


@pytest.mark.parametrize(
    "command, value, floor",
    [("ppsd-check", "0", 1), ("ppsd-check", "-3", 1), ("simulate", "1", 2)],
    ids=["check-steps-0", "check-steps-minus-3", "simulate-steps-1"],
)
def test_steps_below_the_floor_exit_two_naming_the_flag(capsys, command, value, floor):
    code, out, err = run_cli(
        capsys, command, "--model", "dephasing_qubit", "--state", "plus",
        "--t-max", "1", "--steps", value,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --steps must be >= {floor}, got {value}\n"


# ---------------------------------------------------------------------------
# list-models
# ---------------------------------------------------------------------------


def test_list_models_thirteen_entries(capsys):
    code, out, _ = run_cli(capsys, "list-models")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert len(rows) == 13
    name_idx = header.index("name")
    desc_idx = header.index("description")
    for row in rows:
        assert row[name_idx]
        assert row[desc_idx]


def test_list_models_json(capsys):
    code, out, _ = run_cli(capsys, "list-models", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 13


# ---------------------------------------------------------------------------
# reproduce targets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["eq3", "eq5", "eq16", "fig2", "fig3", "b16", "grw"])
def test_reproduce_targets_pass(capsys, target):
    code, out, err = run_cli(capsys, "reproduce", target)
    assert code == 0, err
    meta, _, _ = parse_csv(out)
    assert meta["passed"] == "true"


def test_reproduce_b16_builds_one_model_per_snapshot(capsys, monkeypatch):
    import ppsd_lab.cli as cli
    import ppsd_lab.models as models

    calls = []

    def counted(spec):
        calls.append(spec.name)
        return catalog_model(spec)

    monkeypatch.setattr(models, "catalog_model", counted)
    monkeypatch.setattr(cli, "catalog_model", counted)
    code, out, err = run_cli(capsys, "reproduce", "b16")
    assert code == 0, err
    assert calls == ["nonadiabatic_driven"] * 5


def test_reproduce_b13_exits_four_on_the_pair_count(capsys):
    """The b13 target reports the +/- zero-residual pair and exits 4.

    Every numerical claim about the candidate state holds (eigenvector
    defect, eigenvalue modulus, zero residual, a matching search hit that is
    non-stationary with verdict no_ppsd), but the search correctly returns
    two states where the target demands exactly one; see the README note on
    the squeezed-decay zero-residual pair.
    """
    code, out, err = run_cli(capsys, "reproduce", "b13")
    assert code == 4
    meta, header, rows = parse_csv(out)
    assert meta["passed"] == "false"
    assert meta["n_hits"] == "2"
    assert "expected exactly 1" in meta["failures"]
    fid_idx = header.index("fidelity_vs_candidate")
    fids = sorted(float(r[fid_idx]) for r in rows)
    assert fids[-1] > 1.0 - 1e-8
    assert float(meta["candidate_residual"]) < 1e-12


def test_reproduce_fig2_metadata(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "fig2")
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert 0.83 < float(meta["min_feasible_p2"]) < 0.90
    assert float(meta["min_p1_plus_p2"]) > 1.0


def test_output_written_atomically(tmp_path):
    out = tmp_path / "result.csv"
    assert main(["reproduce", "eq16", "--output", str(out)]) == 0
    assert out.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


# ---------------------------------------------------------------------------
# the CLI contract: byte-identical reruns, thread counts, demos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("simulate", "--model", "depolarizing", "--state", "plus", "--t-max", "2",
                      "--steps", "25"), id="simulate-depolarizing"),
        pytest.param(("simulate", "--model", "damped_oscillator", "--param", "N=0.3",
                      "--dim", "24", "--t-max", "1.5", "--format", "json"), id="simulate-sparse"),
        pytest.param(("simulate", "--model", "nonadiabatic_driven", "--dim", "24", "--t-max", "1.5",
                      "--format", "json"), id="simulate-taylor"),
        pytest.param(("simulate", "--model", "damped_oscillator", "--param", "N=0", "--dim", "24",
                      "--method", "adaptive_rk", "--t-max", "1.5", "--format", "json"),
                     id="simulate-adaptive-rk"),
        pytest.param(("simulate", "--model", "position_decoherence", "--grid=-5,5,192",
                      "--state", "gaussian:0.3,0.7", "--t-max", "1", "--format", "json"),
                     id="simulate-real-grid"),
        pytest.param(("simulate", "--model", "grw", "--grid=-5,5,192", "--state",
                      "gaussian:0.1,0.5", "--t-max", "1.5", "--steps", "50", "--format", "json"),
                     id="simulate-grw-192"),
        pytest.param(("ppsd-check", "--model", "grw", "--grid=-5,5,64", "--state",
                      "gaussian:0.5,0.7", "--format", "json"), id="check-diagonal"),
        pytest.param(("ppsd-check", "--model", "damped_oscillator", "--param", "N=0.3",
                      "--dim", "16", "--state", "coherent:0.5", "--format", "json"),
                     id="check-dense"),
        pytest.param(("ppsd-search", "--model", "squeezed_vacuum_decay", "--restarts", "24",
                      "--seed", "5"), id="search-squeezed"),
        pytest.param(("ppsd-search", "--model", "squeezed_vacuum_decay", "--param", "r=0.3",
                      "--param", "theta=1", "--restarts", "16", "--seed", "5", "--format",
                      "json"), id="search-squeezed-r0.3"),
        pytest.param(("ppsd-search", "--model", "three_level_atom", "--param", "N1=0",
                      "--param", "N2=0", "--restarts", "16", "--seed", "3", "--format", "json"),
                     id="search-three-level-plane"),
        pytest.param(("ppsd-search", "--model", "three_level_atom", "--restarts", "16",
                      "--seed", "3", "--format", "json"), id="search-three-level"),
        pytest.param(("ppsd-search", "--model", "thermal_qubit", "--param", "N=0",
                      "--restarts", "8", "--seed", "4", "--format", "json"),
                     id="search-thermal-ground"),
    ],
)
def test_command_reruns_byte_identical(tmp_path, argv):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--output", str(first)]) == 0
    assert main([*argv, "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()  # LF line endings


def _fresh_interpreter_env(**overrides) -> dict:
    """The environment of a subprocess that imports this ppsd_lab."""
    src = str(Path(ppsd_lab.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **overrides}


def test_outputs_do_not_depend_on_the_thread_count(tmp_path):
    # each side runs in a fresh interpreter with its own hash seed, so an
    # output that follows the BLAS thread count or set order shows here
    commands = [
        ("simulate", "--model", "damped_oscillator", "--param", "N=0.3", "--dim", "24",
         "--t-max", "1.5", "--format", "json"),
        ("ppsd-check", "--model", "damped_oscillator", "--param", "N=0.3", "--dim", "24",
         "--state", "coherent:0.5", "--format", "json"),
        ("simulate", "--model", "damped_oscillator", "--param", "N=0.3", "--dim", "24",
         "--t-max", "0.05", "--steps", "400", "--format", "json"),
        # past the block crossover: one Taylor block of 400 points, each
        # formed when it is yielded
        ("simulate", "--model", "nonadiabatic_driven", "--dim", "24", "--state", "coherent:0.5",
         "--t-max", "0.05", "--steps", "400", "--format", "json"),
        ("ppsd-search", "--model", "damped_oscillator", "--param", "N=0.3", "--dim", "24",
         "--restarts", "4", "--seed", "1", "--format", "json"),
        ("simulate", "--model", "position_decoherence", "--grid=-5,5,256",
         "--state", "gaussian:0.3,0.7", "--t-max", "1.5", "--steps", "50"),
    ]
    script = (
        "import json, sys\n"
        "from ppsd_lab.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
    )
    outputs = []
    for threads, hash_seed in (("1", "0"), ("2", "1")):
        paths = [tmp_path / f"{threads}_{i}" for i in range(len(commands))]
        argvs = [[*argv, "--output", str(path)] for argv, path in zip(commands, paths)]
        env = _fresh_interpreter_env(OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([path.read_text() for path in paths])
    one, two = outputs
    assert one[:-1] == two[:-1]
    # the grid min_eigenvalue column follows LAPACK's thread count (README,
    # "Threads"): compare t, purity and trace_error
    assert [row.split(",")[:3] for row in one[-1].splitlines()] == [
        row.split(",")[:3] for row in two[-1].splitlines()
    ]


@pytest.mark.parametrize(
    "demo", sorted((Path(__file__).parents[1] / "demos").glob("*.py")), ids=lambda p: p.stem
)
def test_demo_exits_zero(tmp_path, demo):
    # demo 04 writes demos_out/ into its working directory
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=_fresh_interpreter_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
