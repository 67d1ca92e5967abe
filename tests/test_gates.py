import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitprep import (
    MCX,
    STAGE_NAMES,
    Circuit,
    Hadamard,
    Measurement,
    PhaseK,
    RegisterLayout,
    StateVector,
    gate_qubits,
    parse_circuit,
)
from bitprep.layout import control_pattern


def test_phase_exponent_must_be_positive():
    PhaseK(0, 1)
    with pytest.raises(ValueError):
        PhaseK(0, 0)
    with pytest.raises(ValueError):
        PhaseK(0, -3)


def test_mcx_normalizes_controls_to_tuple():
    gate = MCX([(2, 1), (0, 0)], 5)
    assert gate.controls == ((0, 0), (2, 1))


def test_mcx_normalizes_controls_to_python_int_pairs():
    for controls in (
        [(np.int64(2), 1), (np.uint8(0), 0)],
        ((2, True), (0, False)),
        [[2, 1], [0, 0]],
        ((np.int32(2), np.True_), (0, np.int8(0))),
    ):
        gate = MCX(controls, 5)
        assert gate.controls == ((0, 0), (2, 1))
        assert type(gate.controls) is tuple
        assert all(type(pair) is tuple and list(map(type, pair)) == [int, int] for pair in gate.controls)


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


# ----------------------------------------------------------------------
# control patterns

LAYOUT = RegisterLayout(1, 1)  # 7 qubits; controls on 0..5, target 6
TARGET = LAYOUT.total - 1
QUBIT_TYPES = (int, np.int64, np.uint8)
BIT_TYPES = (int, bool, np.bool_, np.int8)

# each defect, as a change to a well-formed list of pairs
MALFORMED = {
    "duplicate qubit": lambda pairs: [*pairs, (pairs[0][0], 1 - pairs[0][1])],
    "bit not 0 or 1": lambda pairs: [(pairs[0][0], 2), *pairs[1:]],
    "negative qubit": lambda pairs: [(-1, 1), *pairs],
    "float qubit": lambda pairs: [(pairs[0][0] + 0.5, pairs[0][1]), *pairs[1:]],
    "float bit": lambda pairs: [(pairs[0][0], 0.5), *pairs[1:]],
    "a bare pair": lambda pairs: pairs[0],
}


def circuit_of(gate):
    """A circuit on LAYOUT whose superpose stage is ``gate`` alone."""
    stages = (("superpose", 0, 1), *((name, 1, 1) for name in STAGE_NAMES[1:]))
    return Circuit(LAYOUT, (gate,), stages, Measurement(LAYOUT.flag, LAYOUT.meter))


def entry_points(pattern):
    """Each public entry point that takes a control pattern, on ``pattern``."""
    state = StateVector.ground(LAYOUT)
    return {
        "MCX": lambda: circuit_of(MCX(pattern, TARGET)),
        "probability": lambda: state.probability(pattern),
        "postselect": lambda: state.postselect(pattern),
        "apply_projector_terms": lambda: state.apply_projector_terms([(pattern, (TARGET,))]),
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_control_pattern_is_one_pair_of_ints(data):
    qubits = data.draw(st.lists(st.integers(0, TARGET - 1), min_size=1, max_size=TARGET, unique=True))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(qubits), max_size=len(qubits)))
    typed = [
        (data.draw(st.sampled_from(QUBIT_TYPES))(q), data.draw(st.sampled_from(BIT_TYPES))(b))
        for q, b in zip(qubits, bits)
    ]
    gate = MCX(typed, TARGET)
    mask, word = sum(1 << q for q in qubits), sum(b << q for q, b in zip(qubits, bits))
    assert (gate.mask, gate.bits, gate.target) == (mask, word, TARGET)
    assert type(gate.mask) is int and type(gate.bits) is int
    assert gate.controls == tuple(sorted(zip(qubits, bits)))
    assert all(list(map(type, pair)) == [int, int] for pair in gate.controls)
    shuffled = data.draw(st.permutations(typed))
    assert MCX(shuffled, TARGET) == gate and hash(MCX(shuffled, TARGET)) == hash(gate)
    assert control_pattern(shuffled) == (mask, word)
    # the pattern built once goes through every entry point as the pairs do
    state = StateVector.ground(LAYOUT).apply(Hadamard(qubits[0]))
    assert state.probability(control_pattern(typed)) == state.probability(shuffled)

    defect = data.draw(st.sampled_from(sorted(MALFORMED)))
    malformed = MALFORMED[defect](list(zip(qubits, bits)))
    raised = set()
    for name, call in entry_points(malformed).items():
        with pytest.raises((ValueError, TypeError)) as info:
            call()
        raised.add(info.type)
    assert len(raised) == 1, (defect, raised)
    # a qubit outside the register: MCX has no register, so its circuit rejects it
    outside = [(LAYOUT.total, 1), *zip(qubits, bits)]
    for name, call in entry_points(outside).items():
        with pytest.raises(ValueError, match="outside"):
            call()


def test_gate_targets_are_python_ints():
    for gate, target in ((Hadamard(True), 1), (Hadamard(np.int64(2)), 2), (PhaseK(np.uint8(3), 2), 3),
                         (MCX((), np.int32(4)), 4)):
        assert gate.target == target and type(gate.target) is int
    assert type(PhaseK(0, np.int64(2)).k) is int
    for target in (1.0, 1.5, "1", np.True_):
        for build in (Hadamard, lambda t: PhaseK(t, 1), lambda t: MCX((), t)):
            with pytest.raises(TypeError):
                build(target)
    gates = (Hadamard(True), MCX([(np.int64(2), np.True_), (0, False)], np.int8(1)))
    circuit = Circuit(LAYOUT, gates, (("superpose", 0, 2), *((name, 2, 2) for name in STAGE_NAMES[1:])),
                      Measurement(LAYOUT.flag, LAYOUT.meter))
    assert parse_circuit(circuit.export_text()).gates == gates
    with pytest.raises(TypeError, match="not a gate"):
        circuit_of(object())
