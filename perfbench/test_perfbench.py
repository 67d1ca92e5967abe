"""Tests of the benchmark's own checker and tracer at tiny widths.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from bitprep import cli  # noqa: E402
from checks import check_preparation  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_inputs, target_text  # noqa: E402

import run  # noqa: E402


def _prepare(tmp_path, n=1, m=3):
    """Run one CLI preparation; returns (exit code, report dict, export text)."""
    target = tmp_path / "target.txt"
    target.write_text(target_text(np.random.default_rng(0), n, m), encoding="utf-8")
    report, export = tmp_path / "report.json", tmp_path / "circuit.txt"
    code = cli.main([str(target), "--report", str(report), "--export", str(export)])
    return code, json.loads(report.read_text()), export.read_text()


def test_good_preparation_passes(tmp_path):
    assert check_preparation(*_prepare(tmp_path)) == []


def test_wrong_probability_fails(tmp_path):
    code, report, export = _prepare(tmp_path)
    report["success_probability"]["measured"] += 1e-9
    assert check_preparation(code, report, export) == ["probability"]


def test_failed_verdict_fails(tmp_path):
    code, report, export = _prepare(tmp_path)
    report["verification"]["passed"] = False
    assert check_preparation(code, report, export) == ["exit"]
    report["verification"]["passed"] = True
    assert check_preparation(1, report, export) == ["exit"]


def test_export_that_does_not_round_trip_fails(tmp_path):
    code, report, export = _prepare(tmp_path)
    lines = export.splitlines()
    lines.remove(next(line for line in lines if line.startswith("H ")))
    assert check_preparation(code, report, "\n".join(lines) + "\n") == ["roundtrip"]
    assert check_preparation(code, report, "not a circuit\n") == ["roundtrip"]


def test_missing_outputs_fail_every_check():
    assert check_preparation(0, None, None) == ["exit", "probability", "roundtrip"]


def test_trace_counts_match_the_circuit(tmp_path):
    original = cli.simulate
    tracer = Tracer()
    tracer.prep = 0
    with tracer.installed():
        code, report, _ = _prepare(tmp_path, n=2, m=2)
    assert code == 0 and cli.simulate is original
    metrics = layer_metrics(tracer.spans, {0}, [0])
    stages = report["resources"]["stages"]
    assert metrics["encoder.gates"] == report["resources"]["gate_count"]
    assert metrics["resources.depth"] == report["resources"]["elementary_depth"]
    assert metrics["statevector.hadamard.count"] == sum(s["hadamard"] for s in stages.values())
    assert metrics["statevector.mcx.count"] == sum(s["mcx"] + s["x"] for s in stages.values())
    width = report["resources"]["width"]
    assert metrics["statevector.extract.flops"] == 8 * 2 ** (2 * 2) * 2 ** (width - 2)
    stage_sum = sum(metrics[f"simulate.{s}.s"] for s in ("superpose", "amplitude", "phase", "collapse", "label"))
    assert 0 < stage_sum <= metrics["encoder.simulate.s"]
    assert metrics["cli.main.self_s"] > 0


def test_inputs_repeat_for_a_seed():
    for name in WORKLOADS:
        first, again = make_inputs(name, 3), make_inputs(name, 3)
        assert first == again and first != make_inputs(name, 4)


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(w.name, w.why) for w in WORKLOADS.values() if w.listed]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == listed
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)



def test_statistics_that_do_not_repeat_fail(tmp_path):
    runner = run.Runner(tmp_path, make_inputs("small_batch", 0)[:2])
    for index in (0, 1, 0):
        runner.prepare(index)
    failures, failed, stats = run.check_all(runner, None)
    assert (failed, sum(failures.values())) == (0, 0)
    assert None not in stats
    recorded = [list(stats[0]), [stats[1][0] + 1, *stats[1][1:]]]
    failures, failed, _ = run.check_all(runner, recorded)
    assert failures["repeat"] == failed == 1
