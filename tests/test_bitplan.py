from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from bitprep import (
    BitPlan,
    PrecisionError,
    TargetState,
    decompose,
    fidelity,
    naive_success_probability,
    reconstruct,
    smallest_viable_precision,
)


# ----------------------------------------------------------------------
# TargetState ingestion


def test_polar_round_trip():
    state = TargetState.from_polar([0.6, 0.8], [0.25, 0.0])
    assert np.allclose(state.amplitudes, [0.6j, 0.8], atol=1e-15)
    assert state.n == 1


def test_norm_validation():
    with pytest.raises(ValueError):
        TargetState.from_polar([0.6, 0.9], [0.0, 0.0])
    ok = TargetState.from_polar([0.6, 0.9], [0.0, 0.0], normalize=True)
    assert np.isclose(np.dot(ok.magnitudes, ok.magnitudes), 1.0)


def test_negative_magnitude_rejected():
    with pytest.raises(ValueError):
        TargetState.from_polar([-0.6, 0.8], [0.0, 0.0])


def test_phases_reduced_mod_one():
    state = TargetState.from_polar([0.6, 0.8], [1.25, -0.5])
    assert np.allclose(state.phase_turns, [0.25, 0.5])
    # tiny negative turns must not survive as 1.0 after the mod
    edge = TargetState.from_polar([0.6, 0.8], [-1e-20, 0.0])
    assert edge.phase_turns[0] == 0.0


def test_direct_construction_requires_canonical_phases():
    with pytest.raises(ValueError):
        TargetState(np.array([0.6, 0.8]), np.array([1.25, 0.0]))


def test_from_amplitudes_zero_entries_get_zero_phase():
    state = TargetState.from_amplitudes([1.0, 0.0])
    assert state.phase_turns[1] == 0.0
    assert state.magnitudes[1] == 0.0


def test_length_must_be_power_of_two():
    with pytest.raises(ValueError):
        TargetState.from_amplitudes([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        TargetState.from_amplitudes([1.0])


def test_arrays_are_read_only():
    state = util.worked_target()
    with pytest.raises(ValueError):
        state.magnitudes[0] = 0.5


# ----------------------------------------------------------------------
# fidelity


def test_fidelity_identical_is_one():
    state = util.worked_target()
    assert np.isclose(fidelity(state, state), 1.0)


def test_fidelity_orthogonal_is_zero():
    a = TargetState.from_polar([1.0, 0.0], [0.0, 0.0])
    b = TargetState.from_polar([0.0, 1.0], [0.0, 0.0])
    assert np.isclose(fidelity(a, b), 0.0)


def test_fidelity_dimension_mismatch():
    a = TargetState.from_polar([1.0, 0.0], [0.0, 0.0])
    b = TargetState.from_polar([1.0, 0.0, 0.0, 0.0], [0.0] * 4, normalize=True)
    with pytest.raises(ValueError):
        fidelity(a, b)


def test_worked_target_quantizes_losslessly():
    # magnitudes 2/sqrt(13), 3/sqrt(13) scale exactly to levels 2 and 3
    target = util.worked_target()
    plan = decompose(target, 2)
    assert fidelity(target, reconstruct(plan)) > 1.0 - 1e-12


# ----------------------------------------------------------------------
# decompose


def test_worked_plan_bits():
    plan = util.worked_plan()
    assert plan.amp_bits.tolist() == [[0, 1], [1, 1]]
    assert plan.phase_bits.tolist() == [[1, 1], [1, 0]]
    assert plan.amp_ints.tolist() == [2, 3]
    assert plan.phase_ints.tolist() == [3, 2]
    assert np.isclose(plan.scale, np.sqrt(13.0))


@pytest.mark.parametrize("m", [1, 3, 6])
def test_single_component_target_is_scale_invariant(m):
    target = TargetState.from_polar([1.0, 0.0], [0.0, 0.0])
    plan = decompose(target, m)
    assert plan.amp_ints.tolist() == [(1 << m) - 1, 0]
    recon = reconstruct(plan)
    assert recon.magnitudes.tolist() == [1.0, 0.0]
    assert fidelity(target, recon) == 1.0


def test_rounding_against_grid_search():
    # every quantized level must be the nearest grid point, half away from zero
    rng = np.random.default_rng(424)
    m = 6
    target = util.random_target(rng, 3)
    plan = decompose(target, m)
    for j in range(8):
        scaled = target.magnitudes[j] * (1 << m)
        best = min(
            range(1 << m),
            key=lambda v: (abs(scaled - v), -v),  # ties resolve to the larger level
        )
        assert plan.amp_ints[j] == best


def test_quantization_error_bound():
    rng = np.random.default_rng(77)
    for n in (1, 2, 3):
        for m in (1, 2, 4, 6):
            target = util.random_target(rng, n)
            plan = decompose(target, m)
            err = np.abs(target.magnitudes - plan.amp_ints / (1 << m))
            assert err.max() <= 2.0 ** -m + 1e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 8))
def test_quantization_error_bound_property(seed, m):
    rng = np.random.default_rng(seed)
    target = util.random_target(rng, int(rng.integers(1, 4)))
    plan = decompose(target, m)
    err = np.abs(target.magnitudes - plan.amp_ints / (1 << m))
    assert err.max() <= 2.0 ** -m + 1e-15


def test_magnitude_one_is_clamped():
    target = TargetState.from_polar([1.0, 0.0], [0.5, 0.0])
    plan = decompose(target, 4)
    assert plan.amp_ints[0] == 15  # 16 would need one bit too many


def test_phase_wrap_to_zero():
    m = 3
    turn = 1.0 - 2.0 ** -(m + 1)  # rounds up to 2**m, wrapping to level 0
    target = TargetState.from_polar([1.0, 0.0], [turn, 0.0])
    plan = decompose(target, m)
    assert plan.phase_ints[0] == 0
    assert reconstruct(plan).phase_turns[0] == 0.0


def test_half_ties_round_away_from_zero():
    # 0.5 * 2**1 = 1.0 exactly, 0.25 * 2**2 = 1.0 exactly: the banker's
    # rounding numpy applies by default would send 1.5 to 2 but 0.5 to 0
    target = TargetState.from_polar([0.5, 0.75, 0.25, np.sqrt(1 - 0.875)], [0.0] * 4, normalize=False)
    plan = decompose(target, 1)
    assert plan.amp_ints.tolist() == [1, 1, 1, 1]


def test_phase_levels_match_direct_rounding():
    rng = np.random.default_rng(9)
    target = util.random_target(rng, 2)
    m = 5
    plan = decompose(target, m)
    expected = np.floor(target.phase_turns * (1 << m) + 0.5).astype(int) % (1 << m)
    assert plan.phase_ints.tolist() == expected.tolist()


def test_scale_covariant_ingestion():
    rng = np.random.default_rng(15)
    mags = rng.random(4)
    mags /= np.linalg.norm(mags)
    turns = rng.random(4)
    base = decompose(TargetState.from_polar(mags, turns), 4)
    for factor in (0.3, 0.9):
        scaled = decompose(
            TargetState.from_polar(mags * factor, turns, normalize=True), 4
        )
        assert np.array_equal(base.amp_bits, scaled.amp_bits)
        assert np.array_equal(base.phase_bits, scaled.phase_bits)


def test_all_zero_plan_names_viable_precision():
    # uniform 32-component state: magnitudes 2**-2.5 vanish at m=1
    target = TargetState.from_polar([2.0 ** -2.5] * 32, [0.0] * 32)
    with pytest.raises(PrecisionError, match="m=2"):
        decompose(target, 1)
    assert smallest_viable_precision(target) == 2
    assert decompose(target, 2).amp_ints.max() >= 1


def test_decompose_rejects_bad_precision():
    with pytest.raises(ValueError):
        decompose(util.worked_target(), 0)
    for m in (63, 64):
        with pytest.raises(ValueError, match="int64"):
            decompose(util.worked_target(), m)


@pytest.mark.parametrize("m", [31, 32, 40, 62])
def test_wide_precision_scale_is_exact(m):
    # from m = 32 the two levels' squares sum past 2**63
    plan = decompose(util.worked_target(), m)
    exact = sum(Fraction(a) ** 2 for a in plan.amp_ints.tolist())
    assert plan.scale_sq == exact
    assert abs(Fraction(plan.scale) ** 2 / exact - 1) < 1e-15
    law = exact / 2 ** (plan.n + 4 * m)
    assert abs(Fraction(naive_success_probability(plan)) / law - 1) < 1e-15
    assert abs(fidelity(reconstruct(plan), util.worked_target()) - 1.0) < 1e-12


# ----------------------------------------------------------------------
# reconstruct


def test_reconstruct_worked_plan():
    recon = reconstruct(util.worked_plan())
    expected = np.array([-2j, -3.0]) / np.sqrt(13.0)
    assert np.allclose(recon.amplitudes, expected, atol=1e-12)


def test_reconstruct_trivial_plan():
    plan = BitPlan(2, 1, np.array([[1], [0], [0], [0]]), np.zeros((4, 1), dtype=int))
    recon = reconstruct(plan)
    assert np.allclose(recon.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_refinement_converges():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        target = util.random_target(rng, 2)
        fid = fidelity(target, reconstruct(decompose(target, 10)))
        assert fid >= 0.999


# ----------------------------------------------------------------------
# BitPlan validation


def test_bitplan_shape_checked():
    with pytest.raises(ValueError):
        BitPlan(1, 2, np.ones((2, 3), dtype=int), np.ones((2, 2), dtype=int))


def test_bitplan_bits_checked():
    with pytest.raises(ValueError):
        BitPlan(1, 1, np.array([[2], [0]]), np.zeros((2, 1), dtype=int))


def test_bitplan_all_zero_rejected():
    with pytest.raises(ValueError):
        BitPlan(1, 1, np.zeros((2, 1), dtype=int), np.zeros((2, 1), dtype=int))


def test_bit_weights():
    plan = BitPlan(
        1,
        3,
        np.array([[1, 0, 1], [0, 1, 0]]),  # levels 5 and 2
        np.array([[1, 0, 1], [0, 1, 0]]),  # words 101 and 010
    )
    assert plan.amp_ints.tolist() == [5, 2]
    assert plan.phase_ints.tolist() == [5, 2]
    assert np.allclose(plan.phase_turns, [5 / 8, 2 / 8])
    assert np.isclose(plan.scale, np.sqrt(29.0))
