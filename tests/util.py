"""Shared helpers for the test suite."""

import itertools

import numpy as np

from bitprep import TargetState, decompose, run_projector_path, simulate
from bitprep.statevector import _KETS

# two-component state with a quarter-turn phase split; quantizes exactly at m=2
WORKED_AMPLITUDES = np.array([-2j, -3.0]) / np.sqrt(13.0)


def worked_target() -> TargetState:
    return TargetState.from_amplitudes(WORKED_AMPLITUDES)


def worked_plan():
    return decompose(worked_target(), 2)


def random_target(rng: np.random.Generator, n: int) -> TargetState:
    mags = rng.random(1 << n)
    mags /= np.linalg.norm(mags)
    turns = rng.random(1 << n)
    return TargetState.from_polar(mags, turns)


def random_plan(rng: np.random.Generator, n: int, m: int):
    return decompose(random_target(rng, n), m)


def phase_words(m: int):
    """Every phase-register bit word of length m, as tuples."""
    return list(itertools.product((0, 1), repeat=m))


def index_of(layout, assignment) -> int:
    """Basis index of a full qubit assignment (every qubit exactly once)."""
    seen: dict[int, int] = {}
    for qubit, bit in assignment:
        if bit not in (0, 1):
            raise ValueError(f"bit for qubit {qubit} must be 0 or 1, got {bit}")
        if qubit in seen:
            raise ValueError(f"qubit {qubit} assigned twice")
        layout.bit_position(qubit)
        seen[qubit] = bit
    if len(seen) != layout.total:
        raise ValueError(
            f"assignment covers {len(seen)} of {layout.total} qubits; need all"
        )
    index = 0
    for qubit, bit in seen.items():
        index |= bit << layout.bit_position(qubit)
    return index


def amp_pattern(layout, value: int):
    """Control pattern pinning the amp register to integer ``value``."""
    if not 0 <= value < 1 << layout.m:
        raise ValueError(f"work value {value} outside [0, 2**{layout.m})")
    return tuple((q, (value >> i) & 1) for i, q in enumerate(layout.amp))


def stage_gates(circuit, name: str):
    """The gates of the circuit's stage called ``name``."""
    for stage, start, stop in circuit.stages:
        if stage == name:
            return circuit.gates[start:stop]
    raise KeyError(f"no stage named {name!r}")


def apply_all(state, gates):
    for gate in gates:
        state.apply(gate)
    return state


def compiled_stages(circuit):
    """Copies of ``simulate``'s six stage states, the last post-measurement."""
    states = []
    simulate(circuit, on_stage=lambda _name, state: states.append(state.copy()))
    return states


def projector_stages(plan):
    """Copies of the projector path's six stage states."""
    return [state.copy() for state in run_projector_path(plan)]


def measured_norm_sq(pred, state) -> float:
    """Squared norm ``state`` carries on a prediction's components."""
    if state.layout != pred.layout:
        raise ValueError("state layout does not match prediction layout")
    gathered = state.amplitudes_at(pred.components)
    return float(np.vdot(gathered, gathered).real)


def basis_index(layout, label, work, word, marks, outcome) -> int:
    """Scalar basis index of one (label, work value, phase word,
    (scratch, tag), (flag, meter)) assignment, through ``index_of``."""
    return index_of(
        layout,
        layout.system_pattern(label).pairs
        + amp_pattern(layout, work)
        + layout.phase_pattern(word).pairs
        + (
            (layout.scratch, marks[0]),
            (layout.tag, marks[1]),
            (layout.flag, outcome[0]),
            (layout.meter, outcome[1]),
        )
    )


def predicted_amplitude(pred, label, work, word, marks, outcome) -> complex:
    """A stage prediction's amplitude at one assignment; it must be
    predicted exactly once."""
    index = basis_index(pred.layout, label, work, word, marks, outcome)
    (position,) = np.flatnonzero(pred.components == index)
    return complex(pred.amplitudes[position])


def subsystem_values(layout, qubits) -> np.ndarray:
    """For every basis index, the value its bits on ``qubits`` spell,
    the first qubit most significant."""
    indices = np.arange(1 << layout.total)
    values = np.zeros_like(indices)
    for qubit in qubits:
        values = (values << 1) | ((indices >> layout.bit_position(qubit)) & 1)
    return values


def gram_top_eigenpair(state, picked):
    """Reference for ``StateVector.extract``: the residual weight
    1 - lambda_max / trace of the picked qubits' Gram matrix and its top
    eigenvector, from the full vector through ``numpy.linalg.eigh``."""
    layout = state.layout
    rest = [q for q in range(layout.total) if q not in picked]
    matrix = np.zeros((1 << len(picked), 1 << len(rest)), dtype=np.complex128)
    matrix[subsystem_values(layout, picked), subsystem_values(layout, rest)] = state.amplitudes
    gram = matrix @ matrix.conj().T
    evals, evecs = np.linalg.eigh(gram)
    return 1.0 - evals[-1] / np.trace(gram).real, evecs[:, -1]


def key_qubits(state) -> set[int]:
    """The qubits that tell a state's blocks apart, by the rule a gate's
    merge-back follows: with two or more blocks, each qubit that is a |0>
    or |1> factor in every block, but not the same one in all."""
    keys = set()
    for qubit in range(state.layout.total):
        kets = [block.factors.get(qubit) for block in state._stored]
        if all(any(k is ket for ket in _KETS) for k in kets) and any(k is not kets[0] for k in kets):
            keys.add(qubit)
    return keys


def pairwise_overlap(patterns) -> bool:
    """Reference for the projector path's orthogonality check: whether
    two of the (qubit -> bit) ``patterns`` agree on every qubit both fix,
    comparing every pair."""
    patterns = list(patterns)
    for i in range(len(patterns)):
        for j in range(i + 1, len(patterns)):
            a, b = patterns[i], patterns[j]
            if not any(q in b and b[q] != bit for q, bit in a.items()):
                return True
    return False
