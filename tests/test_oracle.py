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

WORKED = util.worked_plan()
LAYOUT = RegisterLayout(WORKED.n, WORKED.m)


# ----------------------------------------------------------------------
# closed-form component tables


# accumulated factor exp(2*pi*i * sum_i word[i] / 2**(i+1)) of each m=2 phase word
WORD_FACTORS_M2 = {(0, 0): 1.0, (1, 0): -1.0, (0, 1): 1j, (1, 1): -1j}


def test_opening_prediction_small():
    plan = decompose(TargetState.from_amplitudes([0.0, 1.0]), 1)
    pred = predict_stage(plan, 1)
    assert len(pred.components) == 8
    base = 2.0 ** -1.5
    assert np.all(np.abs(np.abs(pred.amplitudes) - base) < 1e-15)
    # half the components sit on phase word (1,) and carry the -1 factor
    assert np.count_nonzero(np.abs(pred.amplitudes + base) < 1e-15) == 4
    for label in (0, 1):
        for work in (0, 1):
            entry = (label, work, (1,), (0, 0), (0, 0))
            assert abs(util.predicted_amplitude(pred, *entry) + base) < 1e-15
            entry = (label, work, (0,), (0, 0), (0, 0))
            assert abs(util.predicted_amplitude(pred, *entry) - base) < 1e-15


def test_opening_prediction_word_factors():
    plan = decompose(TargetState.from_amplitudes([0.6, 0.8]), 2)
    pred = predict_stage(plan, 1)
    assert len(pred.components) == 32
    base = 2.0 ** -2.5
    for word, factor in WORD_FACTORS_M2.items():
        for label in (0, 1):
            for work in range(4):
                entry = (label, work, word, (0, 0), (0, 0))
                assert abs(util.predicted_amplitude(pred, *entry) - base * factor) < 1e-15


def test_tagging_prediction_levels():
    plan = BitPlan(
        1,
        3,
        np.array([[1, 0, 1], [0, 1, 0]]),  # levels 5 and 2
        np.zeros((2, 3), dtype=int),
    )
    tagged = {0: (1, 4, 5, 6, 7), 1: (2, 3)}
    pred = predict_stage(plan, 2)
    words = util.phase_words(3)
    expected = {
        util.basis_index(pred.layout, label, work, word, (0, 1), (0, 0))
        for label, works in tagged.items()
        for work in works
        for word in words
    }
    assert len(pred.components) == (5 + 2) * 8
    assert set(pred.components.tolist()) == expected
    # exactly a_j work values are tagged for label j
    assert [len(tagged[label]) for label in (0, 1)] == plan.amp_ints.tolist()


def test_tagging_prediction_worked():
    pred = predict_stage(WORKED, 2)
    assert len(pred.components) == 5 * 4
    tagged = {0: {2, 3}, 1: {1, 2, 3}}
    expected = {
        util.basis_index(LAYOUT, label, work, word, (0, 1), (0, 0))
        for label, works in tagged.items()
        for work in works
        for word in WORD_FACTORS_M2
    }
    assert set(pred.components.tolist()) == expected
    # the phase register still holds its superposed factor
    for label, works in tagged.items():
        for work in works:
            for word, factor in WORD_FACTORS_M2.items():
                entry = (label, work, word, (0, 1), (0, 0))
                amplitude = util.predicted_amplitude(pred, *entry)
                assert abs(amplitude - 2.0 ** -2.5 * factor) < 1e-15


def test_phase_prediction_worked():
    pred = predict_stage(WORKED, 3)
    assert len(pred.components) == 5
    base = 2.0 ** -2.5
    for label, works in ((0, (2, 3)), (1, (1, 2, 3))):
        word = tuple(int(b) for b in WORKED.phase_bits[label])
        factor = (-1j) if label == 0 else (-1.0)  # 3/4 and 1/2 turns
        for work in works:
            amplitude = util.predicted_amplitude(pred, label, work, word, (1, 1), (0, 0))
            assert abs(amplitude - base * factor) < 1e-14


def test_concentration_prediction_worked():
    for stage, outcome in ((4, (0, 0)), (5, (1, 1))):
        pred = predict_stage(WORKED, stage)
        assert len(pred.components) == 2
        narrow = 2.0 ** -4.5
        first = util.predicted_amplitude(pred, 0, 0, (0, 0), (1, 1), outcome)
        second = util.predicted_amplitude(pred, 1, 0, (0, 0), (1, 1), outcome)
        assert abs(first - narrow * 2.0 * (-1j)) < 1e-14
        assert abs(second - narrow * 3.0 * (-1.0)) < 1e-14


def test_final_prediction_is_the_reconstruction():
    pred = predict_stage(WORKED, 6)
    assert len(pred.components) == 2
    expected = reconstruct(WORKED).amplitudes
    for j in range(2):
        amplitude = util.predicted_amplitude(pred, j, 0, (0, 0), (1, 1), (1, 1))
        assert abs(amplitude - expected[j]) < 1e-14
    assert abs(pred.useful_norm_sq() - 1.0) < 1e-12


def test_predicted_branch_weights_worked():
    # closed-form norms of the useful branch, stage by stage
    expected = {1: 1.0, 2: 0.625, 3: 0.15625, 4: 13.0 / 512.0, 5: 13.0 / 512.0, 6: 1.0}
    for stage, weight in expected.items():
        assert abs(predict_stage(WORKED, stage).useful_norm_sq() - weight) < 1e-12


def test_predicted_sizes_and_weights_random():
    # a lost or doubled entry shows in the count and the weight
    rng = np.random.default_rng(2718)
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        plan = util.random_plan(rng, n, m)
        a_sum = int(plan.amp_ints.sum())
        g_sq = int((plan.amp_ints ** 2).sum())
        sizes = {1: 1 << (n + 2 * m), 2: a_sum << m, 3: a_sum, 4: 1 << n, 5: 1 << n, 6: 1 << n}
        weights = {
            1: 1.0,
            2: a_sum / 2.0 ** (n + m),
            3: a_sum / 2.0 ** (n + 2 * m),
            4: g_sq / 2.0 ** (n + 4 * m),
            5: g_sq / 2.0 ** (n + 4 * m),
            6: 1.0,
        }
        for stage in range(1, 7):
            pred = predict_stage(plan, stage)
            assert len(np.unique(pred.components)) == len(pred.amplitudes) == sizes[stage]
            assert abs(pred.useful_norm_sq() - weights[stage]) < 1e-12


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
        pred = predict_stage(plan, 5)
        expected = {
            util.basis_index(layout, j, 0, (0,) * plan.m, (1, 1), (1, 1))
            for j in range(1 << plan.n)
        }
        assert set(pred.components.tolist()) == expected
        residual = labeled.amplitudes.copy()
        residual[pred.components] = 0.0
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
        # a duplicate index would count its weight twice on both sides
        assert len(np.unique(pred.components)) == len(pred.components)
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


def branch_probability(plan):
    """Squared norm of the flag=meter=1 branch after the projector path's label stage."""
    layout = RegisterLayout(plan.n, plan.m)
    return run_projector_path(plan)[4].probability(((layout.flag, 1), (layout.meter, 1)))


def test_worked_probability_is_exact():
    assert naive_success_probability(WORKED) == 13.0 / 512.0
    assert abs(branch_probability(WORKED) - 13.0 / 512.0) < 1e-12


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
        formula = naive_success_probability(plan)
        assert abs(branch_probability(plan) - formula) < 1e-12
        assert abs(run.probability - formula) < 1e-12
