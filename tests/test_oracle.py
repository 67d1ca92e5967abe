import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from bitprep import (
    BitPlan,
    RegisterLayout,
    TargetState,
    align_phase,
    compile_circuit,
    decompose,
    naive_success_probability,
    predict_stage,
    reconstruct,
    run_projector_path,
    simulate,
)
from bitprep.oracle import phase_word_factor, tagged_work_values

WORKED = util.worked_plan()
LAYOUT = RegisterLayout(WORKED.n, WORKED.m)


# ----------------------------------------------------------------------
# closed-form component tables


def test_tagged_work_values():
    plan = BitPlan(
        1,
        3,
        np.array([[1, 0, 1], [0, 1, 0]]),  # levels 5 and 2
        np.zeros((2, 3), dtype=int),
    )
    assert tagged_work_values(plan, 0) == (1, 4, 5, 6, 7)
    assert tagged_work_values(plan, 1) == (2, 3)
    assert len(tagged_work_values(plan, 0)) == plan.amp_ints[0]


def test_phase_word_factor():
    assert phase_word_factor(()) == 1.0
    assert abs(phase_word_factor((1,)) - (-1.0)) < 1e-15
    assert abs(phase_word_factor((1, 1)) - (-1j)) < 1e-15
    assert abs(phase_word_factor((0, 1)) - 1j) < 1e-15


def test_opening_prediction_small():
    plan = decompose(TargetState.from_amplitudes([0.0, 1.0]), 1)
    pred = predict_stage(plan, 1)
    assert len(pred.components) == 8
    base = 2.0 ** -1.5
    assert all(abs(abs(comp.coeff) - base) < 1e-15 for comp in pred.components)
    # half the components sit on phase word (1,) and carry the -1 factor
    negative = [c for c in pred.components if c.phase_word == (1,)]
    assert len(negative) == 4
    assert all(abs(comp.coeff + base) < 1e-15 for comp in negative)


def test_tagging_prediction_worked():
    pred = predict_stage(WORKED, 2)
    assert len(pred.components) == 5
    by_label = {0: set(), 1: set()}
    for comp in pred.components:
        assert comp.marks == (0, 1)
        assert comp.outcome == (0, 0)
        assert comp.phase_word is None
        assert abs(comp.coeff - 2.0 ** -2.5) < 1e-15
        by_label[comp.label].add(comp.work)
    assert by_label[0] == {2, 3}
    assert by_label[1] == {1, 2, 3}


def test_phase_prediction_worked():
    pred = predict_stage(WORKED, 3)
    assert len(pred.components) == 5
    base = 2.0 ** -2.5
    for comp in pred.components:
        assert comp.marks == (1, 1)
        expected_word = tuple(int(b) for b in WORKED.phase_bits[comp.label])
        assert comp.phase_word == expected_word
        factor = (-1j) if comp.label == 0 else (-1.0)  # 3/4 and 1/2 turns
        assert abs(comp.coeff - base * factor) < 1e-14


def test_concentration_prediction_worked():
    for stage, outcome in ((4, (0, 0)), (5, (1, 1))):
        pred = predict_stage(WORKED, stage)
        assert len(pred.components) == 2
        narrow = 2.0 ** -4.5
        comps = sorted(pred.components, key=lambda c: c.label)
        assert comps[0].work == 0 and comps[0].phase_word == (0, 0)
        assert comps[0].outcome == outcome and comps[1].outcome == outcome
        assert abs(comps[0].coeff - narrow * 2.0 * (-1j)) < 1e-14
        assert abs(comps[1].coeff - narrow * 3.0 * (-1.0)) < 1e-14


def test_final_prediction_is_the_reconstruction():
    pred = predict_stage(WORKED, 6)
    comps = sorted(pred.components, key=lambda c: c.label)
    expected = reconstruct(WORKED).amplitudes
    for j, comp in enumerate(comps):
        assert abs(comp.coeff - expected[j]) < 1e-14
        assert comp.outcome == (1, 1) and comp.marks == (1, 1)
    assert abs(pred.useful_norm_sq() - 1.0) < 1e-12


def test_predicted_branch_weights_worked():
    # closed-form norms of the useful branch, stage by stage
    expected = {1: 1.0, 2: 0.625, 3: 0.15625, 4: 13.0 / 512.0, 5: 13.0 / 512.0, 6: 1.0}
    for stage, weight in expected.items():
        assert abs(predict_stage(WORKED, stage).useful_norm_sq() - weight) < 1e-12


def test_invalid_stage_rejected():
    for stage in (0, 7, -1):
        with pytest.raises(ValueError):
            predict_stage(WORKED, stage)


# ----------------------------------------------------------------------
# predictions against the compiled simulation


def test_every_stage_matches_prediction_worked():
    run = simulate(compile_circuit(WORKED), keep_stages=True)
    for stage, state in enumerate(run.stages, start=1):
        pred = predict_stage(WORKED, stage)
        assert pred.max_deviation(state) < 1e-12
        assert abs(pred.measured_norm_sq(state) - pred.useful_norm_sq()) < 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_every_stage_matches_prediction_random(seed):
    rng = np.random.default_rng(seed)
    plan = util.random_plan(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
    run = simulate(compile_circuit(plan), keep_stages=True)
    for stage, state in enumerate(run.stages, start=1):
        assert predict_stage(plan, stage).max_deviation(state) < 1e-12


def test_unpredicted_weight_never_reaches_the_kept_branch():
    # everything outside the predicted component set must read flag=meter=0
    rng = np.random.default_rng(5150)
    for plan in (WORKED, util.random_plan(rng, 2, 2)):
        layout = RegisterLayout(plan.n, plan.m)
        run = simulate(compile_circuit(plan), keep_stages=True)
        labeled = run.stages[4]
        residual = labeled.amplitudes.copy()
        for index, _ in predict_stage(plan, 5).amplitude_entries():
            residual[index] = 0.0
        idx = np.arange(residual.size)
        kept = ((idx >> layout.bit_position(layout.flag)) & 1) & (
            (idx >> layout.bit_position(layout.meter)) & 1
        )
        assert float(np.abs(residual[kept == 1]).max(initial=0.0)) < 1e-24
        assert abs(labeled.norm() - 1.0) < 1e-12


def test_norm_accounting_random():
    rng = np.random.default_rng(99)
    plan = util.random_plan(rng, 2, 3)
    run = simulate(compile_circuit(plan), keep_stages=True)
    for stage, state in enumerate(run.stages, start=1):
        pred = predict_stage(plan, stage)
        assert abs(pred.measured_norm_sq(state) - pred.useful_norm_sq()) < 1e-12


def test_prediction_layout_mismatch_rejected():
    other = simulate(compile_circuit(util.random_plan(np.random.default_rng(0), 2, 2)))
    with pytest.raises(ValueError):
        predict_stage(WORKED, 6).max_deviation(other.final)


# ----------------------------------------------------------------------
# projector-algebra execution


def test_projector_path_reproduces_worked_output():
    states = run_projector_path(WORKED)
    assert len(states) == 6
    expected = reconstruct(WORKED).amplitudes
    system = align_phase(states[5].extract(LAYOUT.system), expected)
    assert np.allclose(system, expected, atol=1e-12)


def test_projector_path_agrees_with_compiled_path():
    rng = np.random.default_rng(12)
    plans = [WORKED] + [
        util.random_plan(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        for _ in range(6)
    ]
    for plan in plans:
        compiled = simulate(compile_circuit(plan), keep_stages=True)
        direct = run_projector_path(plan)
        for stage_index in range(6):
            gap = np.max(
                np.abs(compiled.stages[stage_index].amplitudes - direct[stage_index].amplitudes)
            )
            assert gap < 1e-12, f"stage {stage_index + 1} of {plan!r}"


def test_projector_path_matches_predictions():
    states = run_projector_path(WORKED)
    for stage, state in enumerate(states, start=1):
        assert predict_stage(WORKED, stage).max_deviation(state) < 1e-12


# ----------------------------------------------------------------------
# success probability


def test_worked_probability_is_exact():
    assert naive_success_probability(WORKED) == 13.0 / 512.0
    assert naive_success_probability(WORKED, verify=True) == 13.0 / 512.0


def test_single_component_probability():
    for m in (1, 2, 3, 4):
        plan = decompose(TargetState.from_amplitudes([1.0, 0.0]), m)
        top = (1 << m) - 1
        assert naive_success_probability(plan) == top * top / 2 ** (1 + 4 * m)


def test_probability_scaling_across_precision():
    # each extra bit multiplies the denominator by 2**4 while G**2 follows the plan
    target = util.worked_target()
    values = {}
    scales = {}
    for m in (1, 2, 3, 4, 5):
        plan = decompose(target, m)
        values[m] = naive_success_probability(plan)
        scales[m] = plan.scale ** 2
    for m in (1, 2, 3, 4):
        ratio = (values[m + 1] / values[m]) / (scales[m + 1] / scales[m])
        assert abs(ratio - 2.0 ** -4) < 1e-12


def test_probability_matches_simulation():
    rng = np.random.default_rng(444)
    for _ in range(4):
        plan = util.random_plan(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        run = simulate(compile_circuit(plan))
        assert abs(run.probability - naive_success_probability(plan, verify=True)) < 1e-12
