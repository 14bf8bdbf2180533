"""Command-line surface: flags, formats, exit codes, reproduction targets."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsd_lab import ModelSpec, build_liouvillian, catalog_model
from ppsd_lab.cli import load_model, main, model_from_dict, model_to_dict, save_model


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
    ],
    ids=lambda s: s.name,
)
def test_model_file_round_trip_preserves_liouvillian(tmp_path, spec):
    model = catalog_model(spec)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    original = build_liouvillian(model).matrix
    recovered = build_liouvillian(loaded).matrix
    assert np.abs(original - recovered).max() < 1e-15
    assert loaded.basis_note == model.basis_note


def test_model_dict_round_trip_complex_entries():
    model = catalog_model(ModelSpec("squeezed_vacuum_decay", {"theta": 0.7}))
    again = model_from_dict(model_to_dict(model))
    np.testing.assert_array_equal(again.terms[0].op.matrix, model.terms[0].op.matrix)


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


def test_simulate_rejects_zero_horizon(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--model", "dephasing_qubit", "--state", "plus", "--t-max", "0"
    )
    assert code == 2


def test_simulate_reruns_byte_identical(capsys, tmp_path):
    args = (
        "simulate", "--model", "depolarizing", "--state", "plus",
        "--t-max", "2", "--steps", "25",
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(list(args) + ["--output", str(first)]) == 0
    assert main(list(args) + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()  # LF line endings


def test_simulate_refuses_a_seed(capsys):
    # simulate is deterministic, so a seed would be ignored: refuse it
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "depolarizing", "--t-max", "1", "--seed", "9"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


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
    ],
    ids=lambda flags: " ".join(flags[1:]),
)
def test_invalid_state_or_dimension_exits_two_with_one_line(capsys, flags):
    code, out, err = run_cli(capsys, "simulate", *flags, "--t-max", "1", "--steps", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_simulate_exits_three_on_negativity_beyond_the_gate(capsys, monkeypatch):
    import ppsd_lab.lindblad as lindblad

    c, s = math.cos(0.4), math.sin(0.4)
    u = np.array([[c, -1j * s], [-1j * s, c]])
    bad = u @ np.diag([1 + 5e-8, -5e-8]) @ u.conj().T
    monkeypatch.setattr(lindblad, "_propagate_exact", lambda _m, _r, times: [bad] * len(times))
    code, out, err = run_cli(
        capsys, "simulate", "--model", "thermal_qubit", "--state", "plus",
        "--t-max", "1", "--steps", "2",
    )
    assert code == 3
    assert out == ""
    assert err == "numerical failure: negativity -5.000e-08 at t=0.0\n"


@pytest.mark.parametrize(
    "argv, path",
    [
        (("--model", "dephasing_qubit"), "entrywise"),
        (("--model", "thermal_qubit"), "dense_expm"),
        (("--model", "damped_oscillator", "--dim", "24", "--state", "coherent:0.5,0"),
         "sparse_expm_multiply"),
        (("--model", "thermal_qubit", "--method", "adaptive_rk"), "adaptive_rk"),
    ],
    ids=["entrywise", "dense_expm", "sparse_expm_multiply", "adaptive_rk"],
)
def test_simulate_reports_the_propagation_path(capsys, argv, path):
    args = ("simulate", *argv, "--t-max", "0.5", "--steps", "4")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert parse_csv(out)[0]["path"] == path
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out)["metadata"]["path"] == path


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


def test_search_deterministic_across_runs(tmp_path):
    args = (
        "ppsd-search", "--model", "squeezed_vacuum_decay",
        "--restarts", "24", "--seed", "5",
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(list(args) + ["--output", str(a)]) == 0
    assert main(list(args) + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_invalid_flags_exit_two(capsys):
    code, _, _ = run_cli(
        capsys, "ppsd-search", "--model", "dephasing_qubit", "--restarts", "0"
    )
    assert code == 2


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
