import numpy as np
import pytest

from bitprep import MCX, Hadamard, PhaseK, gate_qubits


def test_phase_exponent_must_be_positive():
    PhaseK(0, 1)
    with pytest.raises(ValueError):
        PhaseK(0, 0)
    with pytest.raises(ValueError):
        PhaseK(0, -3)


def test_mcx_normalizes_controls_to_tuple():
    gate = MCX([(2, 1), (0, 0)], 5)
    assert gate.controls == ((2, 1), (0, 0))


def test_mcx_normalizes_controls_to_python_int_pairs():
    for controls in (
        [(np.int64(2), 1), (np.uint8(0), 0)],
        ((2, True), (0, False)),
        [[2, 1], [0, 0]],
        ((np.int32(2), np.True_), (0, np.int8(0))),
    ):
        gate = MCX(controls, 5)
        assert gate.controls == ((2, 1), (0, 0))
        assert type(gate.controls) is tuple
        assert all(type(pair) is tuple and list(map(type, pair)) == [int, int] for pair in gate.controls)
    # controls already in that form are kept as given
    plain = ((2, 1), (0, 0))
    assert MCX(plain, 5).controls is plain


def test_mcx_rejects_duplicate_controls():
    with pytest.raises(ValueError):
        MCX(((1, 0), (1, 1)), 2)


def test_mcx_rejects_target_among_controls():
    with pytest.raises(ValueError):
        MCX(((3, 1),), 3)


def test_mcx_rejects_bad_polarity():
    with pytest.raises(ValueError):
        MCX(((1, 2),), 0)


def test_gate_qubits():
    assert gate_qubits(Hadamard(4)) == (4,)
    assert gate_qubits(MCX((), 1)) == (1,)
    assert gate_qubits(MCX(((0, 1), (3, 0)), 2)) == (0, 3, 2)
