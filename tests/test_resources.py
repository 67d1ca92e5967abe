import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from bitprep import (
    MCX,
    BitPlan,
    Hadamard,
    PhaseK,
    analyze,
    compile_circuit,
)
from bitprep.resources import gate_cost

WORKED = util.worked_plan()

# empirical ceiling for elementary_depth / (2**n * n * m); the dense sweep
# below measures at most 16.5 (n=1, m=1, where the fixed label-stage cost
# dominates) and the ratio falls as n grows
DEPTH_RATIO_CEILING = 18.0


def dense_plan(n, m):
    labels = 1 << n
    return BitPlan(n, m, np.ones((labels, m), dtype=int), np.ones((labels, m), dtype=int))


# ----------------------------------------------------------------------
# cost model


def test_gate_cost_units():
    assert gate_cost(Hadamard(0)) == 1
    assert gate_cost(PhaseK(0, 3)) == 1
    assert gate_cost(MCX((), 0)) == 1
    assert gate_cost(MCX(((1, 1),), 0)) == 1
    assert gate_cost(MCX(((1, 1), (2, 0)), 0)) == 3
    controls = tuple((q, 1) for q in range(1, 6))
    assert gate_cost(MCX(controls, 0)) == 9


# ----------------------------------------------------------------------
# exact counts


def test_worked_report():
    report = analyze(compile_circuit(WORKED), WORKED)
    assert report.width == 9
    assert report.popcounts == (1, 2)
    assert report.stage("superpose").hadamard == 5
    assert report.stage("superpose").phase == 2
    assert report.stage("amplitude").mcx == 8
    assert report.stage("phase").mcx == 2
    assert report.stage("collapse").hadamard == 4
    assert report.stage("label").mcx == 2
    assert report.mcx_count == 12
    assert report.gate_count == 23


def test_worked_depth_matches_per_gate_costs():
    circuit = compile_circuit(WORKED)
    report = analyze(circuit, WORKED)
    assert report.elementary_depth == sum(gate_cost(g) for g in circuit.gates)
    assert report.elementary_depth == 57


def test_amplitude_mcx_follows_popcounts():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        plan = util.random_plan(rng, n, m)
        report = analyze(compile_circuit(plan), plan)
        expected = sum(2 * c + 1 for c in report.popcounts)
        assert report.stage("amplitude").mcx == expected
        assert report.popcounts == tuple(
            int(plan.amp_bits[:, k].sum()) for k in range(m)
        )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_count_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    plan = util.random_plan(rng, n, m)
    report = analyze(compile_circuit(plan), plan)
    assert report.width == n + 2 * m + 4
    assert report.stage("phase").mcx == 1 << n
    assert report.stage("label").mcx == 2
    assert report.stage("amplitude").mcx == sum(2 * c + 1 for c in report.popcounts)
    assert report.stage("superpose").hadamard == n + 2 * m
    assert report.stage("superpose").phase == m
    assert report.stage("collapse").hadamard == 2 * m
    assert report.mcx_count == sum(tally.mcx for _, tally in report.stages)


def test_all_ones_amplitude_count():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            plan = dense_plan(n, m)
            report = analyze(compile_circuit(plan), plan)
            assert report.stage("amplitude").mcx == m * (2 * (1 << n) + 1)


# ----------------------------------------------------------------------
# depth growth


def test_amplitude_depth_bound_dense():
    # C1 = 4 against the mark/select/unwind construction
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3, 4):
            plan = dense_plan(n, m)
            depth = analyze(compile_circuit(plan), plan).stage("amplitude").depth
            assert depth <= 4 * ((1 << (n + 1)) * n + m) * m


def test_phase_depth_bound_dense():
    # C2 = 2 against one (n + m)-controlled gate per basis label
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3, 4):
            plan = dense_plan(n, m)
            depth = analyze(compile_circuit(plan), plan).stage("phase").depth
            assert depth <= 2 * (1 << n) * (n + m)


def test_depth_ratio_bounded_over_sweep():
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            plans = [dense_plan(n, m)]
            for _ in range(6):
                labels = 1 << n
                amp = rng.integers(0, 2, size=(labels, m))
                if not amp.any():
                    amp[0, 0] = 1
                plans.append(BitPlan(n, m, amp, rng.integers(0, 2, size=(labels, m))))
            for plan in plans:
                report = analyze(compile_circuit(plan), plan)
                worst = max(worst, report.elementary_depth / ((1 << n) * n * m))
    assert worst <= DEPTH_RATIO_CEILING


def test_depth_ratio_falls_with_scale():
    # the bound is loose only at the smallest case; by n=4 the fixed
    # overhead is amortized well below half the ceiling
    plan = dense_plan(4, 4)
    report = analyze(compile_circuit(plan), plan)
    assert report.elementary_depth / (16 * 4 * 4) < DEPTH_RATIO_CEILING / 2


# ----------------------------------------------------------------------
# peephole interaction


def test_peephole_changes_tally_not_width():
    plan = dense_plan(2, 2)
    plain = analyze(compile_circuit(plan), plan)
    tight = analyze(compile_circuit(plan, peephole=True), plan)
    assert plain.stage("amplitude").x == 0
    assert tight.stage("amplitude").x == 2 * plan.m  # one X either side per column
    assert tight.stage("amplitude").mcx == plan.m  # bare selects
    assert tight.elementary_depth < plain.elementary_depth
    assert tight.width == plain.width
    assert tight.popcounts == plain.popcounts


# ----------------------------------------------------------------------
# report object


def test_report_serializes():
    report = analyze(compile_circuit(WORKED), WORKED)
    data = json.loads(json.dumps(report.as_dict()))
    assert data["width"] == 9
    assert data["popcounts"] == [1, 2]
    assert data["stages"]["amplitude"]["mcx"] == 8
    assert data["mcx_count"] == 12
    assert data["elementary_depth"] == 57
    assert "cost 1" in data["cost_model"]


def test_unknown_stage_name():
    report = analyze(compile_circuit(WORKED), WORKED)
    with pytest.raises(KeyError):
        report.stage("oracle")


def test_analyze_rejects_mismatched_plan():
    rng = np.random.default_rng(3)
    other = util.random_plan(rng, 2, 2)
    with pytest.raises(ValueError):
        analyze(compile_circuit(WORKED), other)
