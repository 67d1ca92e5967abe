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
