import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest

import util
import bitprep.cli as cli_mod
from bitprep import (
    STAGE_NAMES,
    PhaseK,
    RegisterLayout,
    SimRun,
    StateVector,
    TargetState,
    parse_circuit,
    simulate,
)
from bitprep.cli import main, parse_target_file
from bitprep.statevector import _Block

ROOT13 = float(np.sqrt(13.0))

WORKED_TARGET = (
    "# two-component target\n"
    "n 1\n"
    "m 2\n"
    f"polar {2.0 / ROOT13!r} 0.75\n"
    f"polar {3.0 / ROOT13!r} 0.5\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# target file parsing


def test_parse_polar_file():
    n, m, state = parse_target_file(WORKED_TARGET)
    assert (n, m) == (1, 2)
    assert np.allclose(state.amplitudes, [-2j / ROOT13, -3.0 / ROOT13], atol=1e-12)


def test_parse_cart_file():
    text = f"n 1\ncart 0.0 {-2.0 / ROOT13!r}\ncart {-3.0 / ROOT13!r} 0.0\n"
    n, m, state = parse_target_file(text)
    assert (n, m) == (1, None)
    assert np.allclose(state.amplitudes, [-2j / ROOT13, -3.0 / ROOT13], atol=1e-12)


def test_parse_unnormalized_flag():
    text = "n 1\nunnormalized\npolar 2 0.75\npolar 3 0.5\n"
    _, _, state = parse_target_file(text)
    assert np.allclose(state.magnitudes, [2 / ROOT13, 3 / ROOT13], atol=1e-12)


@pytest.mark.parametrize(
    "text, message",
    [
        ("m 2\npolar 1 0\npolar 0 0\n", "missing n"),
        ("n 0\n", ">= 1"),
        ("n 1\nm 0\npolar 1 0\npolar 0 0\n", "m must be"),
        ("n 1\nn 1\npolar 1 0\npolar 0 0\n", "twice"),
        ("n 1\npolar 1 0\n", "expected 2 entries"),
        ("n 1\npolar 1 0\ncart 0 0\n", "mixed"),
        ("n 1\npolar 1 0\npolar nope 0\n", "bad number"),
        ("n 1\npolar 1 0\npolar inf 0\n", "finite"),
        ("n 1\nteleport\npolar 1 0\npolar 0 0\n", "unknown directive"),
        ("n x\npolar 1 0\npolar 0 0\n", "integer"),
        ("n 1_0\npolar 1 0\npolar 0 0\n", "expected integer, got '1_0'"),
        ("n +1\npolar 1 0\npolar 0 0\n", r"expected integer, got '\+1'"),
        ("n \u0661\npolar 1 0\npolar 0 0\n", "expected integer, got '\u0661'"),
        ("n 1\nm 1_0\npolar 1 0\npolar 0 0\n", "expected integer, got '1_0'"),
        ("n 1\nm +3\npolar 1 0\npolar 0 0\n", r"expected integer, got '\+3'"),
        ("n 1\nm \u0663\npolar 1 0\npolar 0 0\n", "expected integer, got '\u0663'"),
        ("n 1\npolar 0.9 0\npolar 0.1 0\n", "norm"),
        ("n 1\nunnormalized now\npolar 1 0\npolar 0 0\n", "no arguments"),
    ],
)
def test_parse_rejects_bad_files(text, message):
    with pytest.raises(cli_mod.TargetFileError, match=message):
        parse_target_file(text)


# ----------------------------------------------------------------------
# happy path


def test_worked_run(tmp_path, capsys):
    target = write(tmp_path, "worked.target", WORKED_TARGET)
    report_path = tmp_path / "report.json"
    export_path = tmp_path / "circuit.txt"
    code = main(
        [str(target), "--report", str(report_path), "--export", str(export_path), "--stage-check"]
    )
    out = capsys.readouterr()
    assert code == 0
    assert "verification: ok (9 checks)" in out.out

    report = json.loads(report_path.read_text())
    assert report["format"] == "bitprep-report 1"
    assert report["input"]["sha256"] == hashlib.sha256(target.read_bytes()).hexdigest()
    assert (report["n"], report["m"]) == (1, 2)
    assert report["plan"]["amp_levels"] == [2, 3]
    assert report["plan"]["phase_levels"] == [3, 2]
    assert report["success_probability"]["formula"] == 13.0 / 512.0
    assert abs(report["success_probability"]["measured"] - 13.0 / 512.0) < 1e-12
    assert report["fidelity"]["target_vs_plan"] >= 1.0 - 1e-12
    assert report["fidelity"]["plan_vs_output"] >= 1.0 - 1e-12
    assert report["resources"]["width"] == 9
    assert report["verification"]["passed"] is True
    assert set(report["verification"]["checks"]) == {
        "superpose", "amplitude", "phase", "collapse", "label",
        "measure", "probability", "disentangle", "output",
    }
    assert set(report["timings"]) == {"compile_s", "simulate_s", "verify_s"}

    # the exported circuit re-simulates to the reported probability
    rerun = simulate(parse_circuit(export_path.read_text()))
    assert abs(rerun.probability - report["success_probability"]["measured"]) < 1e-12


def test_minimal_run_without_stage_check(tmp_path, capsys):
    target = write(tmp_path, "t.target", WORKED_TARGET)
    assert main([str(target)]) == 0
    assert "verification: ok (3 checks)" in capsys.readouterr().out


def test_flag_m_overrides_file(tmp_path, capsys):
    target = write(tmp_path, "t.target", WORKED_TARGET)
    report_path = tmp_path / "r.json"
    assert main([str(target), "--m", "4", "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["m"] == 4


def test_basis_state_run(tmp_path, capsys):
    target = write(tmp_path, "zero.target", "n 2\npolar 1 0\npolar 0 0\npolar 0 0\npolar 0 0\n")
    assert main([str(target), "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "fidelity plan|output: 1.0" in out


def test_unnormalized_run(tmp_path):
    target = write(tmp_path, "u.target", "n 1\nm 2\nunnormalized\npolar 2 0.75\npolar 3 0.5\n")
    assert main([str(target)]) == 0


def test_peephole_run(tmp_path):
    target = write(
        tmp_path, "uniform.target",
        "n 2\nm 2\npolar 0.5 0\npolar 0.5 0\npolar 0.5 0\npolar 0.5 0\n",
    )
    export_path = tmp_path / "uniform.circuit"
    assert main([str(target), "--peephole", "--export", str(export_path)]) == 0
    assert "\nMCX 6\n" in export_path.read_text()


def test_deterministic_outputs(tmp_path):
    target = write(tmp_path, "t.target", WORKED_TARGET)
    paths = []
    for tag in ("a", "b"):
        export = tmp_path / f"{tag}.circuit"
        report = tmp_path / f"{tag}.json"
        assert main([str(target), "--export", str(export), "--report", str(report)]) == 0
        paths.append((export.read_bytes(), json.loads(report.read_text())))
    assert paths[0][0] == paths[1][0]
    first, second = paths[0][1], paths[1][1]
    first.pop("timings")
    second.pop("timings")
    assert first == second


# ----------------------------------------------------------------------
# failure paths


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main([str(tmp_path / "absent.target")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_file_is_exit_2_and_writes_nothing(tmp_path, capsys):
    target = write(tmp_path, "bad.target", "n 1\npolar 1 0\ncart 0 0\n")
    report_path = tmp_path / "never.json"
    export_path = tmp_path / "never.circuit"
    code = main([str(target), "--report", str(report_path), "--export", str(export_path)])
    assert code == 2
    assert "mixed" in capsys.readouterr().err
    assert not report_path.exists()
    assert not export_path.exists()


@pytest.mark.parametrize("n, expected", [
    (40, "expected 1099511627776 entries"),
    (10 ** 7, "expected 2**10000000 entries"),
    (10 ** 12, "expected 2**1000000000000 entries"),
], ids=["40", "1e7", "1e12"])
def test_huge_n_is_one_line_error(tmp_path, capsys, n, expected):
    target = write(tmp_path, "huge.target", f"n {n}\nm 2\npolar 1 0\npolar 0 0\n")
    assert main([str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{expected} for n={n}, got 2" in err


@pytest.mark.parametrize("flag", ["--report", "--export"])
def test_unwritable_output_is_exit_2(tmp_path, capsys, flag):
    target = write(tmp_path, "t.target", WORKED_TARGET)
    path = tmp_path / "absent" / "out.txt"
    assert main([str(target), flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not path.exists()


def test_missing_precision_is_exit_2(tmp_path, capsys):
    target = write(tmp_path, "nom.target", "n 1\npolar 1 0\npolar 0 0\n")
    assert main([str(target)]) == 2
    assert "no precision" in capsys.readouterr().err


def test_zero_precision_flag_is_exit_2(tmp_path, capsys):
    target = write(tmp_path, "t.target", WORKED_TARGET)
    assert main([str(target), "--m", "0"]) == 2
    assert "m must be" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663"])
def test_precision_flag_takes_ascii_digits_only(tmp_path, capsys, token):
    target = write(tmp_path, "t.target", WORKED_TARGET)
    assert main([str(target), "--m", token]) == 2
    assert capsys.readouterr().err == f"error: --m: expected integer, got {token!r}\n"


def test_underflow_is_exit_2(tmp_path, capsys):
    entries = "".join(f"polar {2.0 ** -2.5!r} 0\n" for _ in range(32))
    target = write(tmp_path, "flat.target", "n 5\nm 1\n" + entries)
    assert main([str(target)]) == 2
    assert "smallest workable precision" in capsys.readouterr().err


def test_binary_junk_is_exit_2(tmp_path, capsys):
    target = tmp_path / "junk.target"
    target.write_bytes(b"\xff\xfe\x00junk")
    assert main([str(target)]) == 2


def test_capacity_is_exit_3(tmp_path, capsys):
    target = write(tmp_path, "t.target", WORKED_TARGET)
    assert main([str(target), "--max-qubits", "8"]) == 3
    assert "qubit" in capsys.readouterr().err
    assert main([str(target), "--max-qubits", "9"]) == 0


def test_default_cap_is_checked_before_compiling(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an over-cap target was compiled")

    monkeypatch.setattr(cli_mod, "compile_circuit", never)
    entries = "polar 1 0\n" + "polar 0 0\n" * 1023
    target = write(tmp_path, "wide.target", "n 10\nm 10\n" + entries)  # width 34
    assert main([str(target)]) == 3
    assert capsys.readouterr().err == (
        "error: register needs 34 qubits (2**34 amplitudes) but the cap is 26 qubits; "
        "raise the cap explicitly to proceed\n"
    )


def test_raised_cap_reaches_the_simulator(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB")

    monkeypatch.setattr(StateVector, "ground", exhausted)
    target = write(tmp_path, "t.target", "n 1\nm 11\npolar 0.6 0\npolar 0.8 0.25\n")  # width 27
    assert main([str(target), "--max-qubits", "27"]) == 3
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 2.00 GiB\n"


@pytest.mark.parametrize("m", [30, 27])  # widths 65 and 59, both past numpy's array limit
def test_too_wide_for_numpy_is_exit_3(tmp_path, capsys, m):
    target = write(tmp_path, "t.target", "n 1\npolar 1.0 0.0\npolar 0.0 0.0\n")
    assert main([str(target), "--m", str(m), "--max-qubits", "100"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("m, code", [(40, 3), (63, 2), (70, 2)])
def test_wide_precision_is_one_line_error(tmp_path, capsys, m, code):
    # m = 40 quantizes exactly but needs 85 qubits; from m = 63 the levels overflow int64
    target = write(tmp_path, "t.target", "n 1\npolar 0.6 0.0\npolar 0.8 0.25\n")
    assert main([str(target), "--m", str(m), "--max-qubits", "100"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_memory_error_is_exit_3(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB")

    def bare(*args, **kwargs):
        raise MemoryError

    target = write(tmp_path, "t.target", WORKED_TARGET)
    with monkeypatch.context() as patch:
        patch.setattr(StateVector, "ground", exhausted)
        assert main([str(target)]) == 3
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.00 TiB\n"
    # a failed allocation on the stage-check path, with no message
    monkeypatch.setattr(cli_mod, "run_projector_path", bare)
    assert main([str(target), "--stage-check"]) == 3
    assert capsys.readouterr().err == "error: out of memory: allocation failed\n"


def test_verification_failure_is_exit_1(tmp_path, capsys, monkeypatch):
    real = cli_mod.simulate

    def corrupted(circuit, **kwargs):
        run = real(circuit, **kwargs)
        amplitudes = run.final.amplitudes.copy()
        index = int(np.argmax(np.abs(amplitudes)))
        amplitudes[index] = -amplitudes[index]
        final = StateVector.from_amplitudes(circuit.layout, amplitudes)
        return SimRun(final=final, probability=run.probability)

    monkeypatch.setattr(cli_mod, "simulate", corrupted)
    target = write(tmp_path, "t.target", WORKED_TARGET)
    report_path = tmp_path / "failed.json"
    code = main([str(target), "--report", str(report_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "verification failed at output" in err
    # the report is still written, recording the failure honestly
    report = json.loads(report_path.read_text())
    assert report["verification"]["passed"] is False
    assert report["verification"]["checks"]["output"]["pass"] is False
    assert report["fidelity"]["plan_vs_output"] < 0.99


def test_post_selection_without_support_fails_measure(tmp_path, capsys, monkeypatch):
    # the label split reads an all-zero slice, so the kept branch is empty
    real = _Block.through_run
    monkeypatch.setattr(_Block, "through_run", lambda *args: real(*args) * 0.0)
    target = write(tmp_path, "t.target", WORKED_TARGET)
    report_path = tmp_path / "empty.json"
    code = main([str(target), "--report", str(report_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "verification failed at measure: post-selection pattern has no support" in err
    report = json.loads(report_path.read_text())
    checks = report["verification"]["checks"]
    assert [name for name, check in checks.items() if check["pass"]] == []
    assert report["success_probability"]["measured"] == 0.0
    assert report["fidelity"]["plan_vs_output"] is None


@pytest.mark.parametrize("index, stage", list(enumerate((*STAGE_NAMES, "measure"))))
def test_stage_check_catches_a_wrong_stage(tmp_path, capsys, monkeypatch, index, stage):
    real = cli_mod.simulate

    def tampered(circuit, *, on_stage):
        def hook(name, state):
            if name == stage:
                # flips the sign wherever system qubit 0 reads 1, block by block
                state.apply(PhaseK(0, 1))
            on_stage(name, state)

        return real(circuit, on_stage=hook)

    monkeypatch.setattr(cli_mod, "simulate", tampered)
    target = write(tmp_path, "t.target", WORKED_TARGET)
    report_path = tmp_path / "tampered.json"
    code = main([str(target), "--stage-check", "--report", str(report_path)])
    assert code == 1
    assert f"verification failed at {stage}" in capsys.readouterr().err
    check = json.loads(report_path.read_text())["verification"]["checks"][stage]
    assert check["pass"] is False
    assert check["path_deviation"] > 1e-12


def test_stage_check_time_counts_as_verify(tmp_path, monkeypatch):
    real = cli_mod.predict_stage

    def slow(plan, stage):
        time.sleep(0.02)
        return real(plan, stage)

    monkeypatch.setattr(cli_mod, "predict_stage", slow)
    target = write(tmp_path, "t.target", WORKED_TARGET)
    report_path = tmp_path / "slow.json"
    assert main([str(target), "--stage-check", "--report", str(report_path)]) == 0
    # six predictions ran inside simulate, yet their time is verify time
    timings = json.loads(report_path.read_text())["timings"]
    assert timings["verify_s"] >= 0.12
    assert timings["simulate_s"] < timings["verify_s"]


@pytest.mark.parametrize(
    "target",
    [
        util.random_target(np.random.default_rng(27), 2),
        TargetState.from_polar([0.5] * 4, [0.0, 0.25, 0.5, 0.75]),
    ],
    ids=["random", "one-level"],
)
def test_stage_check_peaks_under_four_cores(tmp_path, capsys, target):
    # each stage is compared as it is reached, then dropped, so the two
    # paths hold one state each, not six
    entries = "".join(
        f"polar {float(a)!r} {float(t)!r}\n" for a, t in zip(target.magnitudes, target.phase_turns)
    )
    path = write(tmp_path, "wide.target", f"n 2\nm 7\n{entries}")
    core_bytes = 16 << (2 + 2 * 7 + 2)
    tracemalloc.start()
    try:
        assert main([str(path), "--stage-check"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * core_bytes
