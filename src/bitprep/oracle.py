"""Independent verification path for compiled circuits.

Two references are computed without reusing the compiler's gate lists:

* closed-form predictions of the branch that carries the encoding, stage
  by stage: one array of basis indices and one array of their predicted
  amplitudes, built with bit arithmetic from the plan (the remaining
  "garbage" weight is only constrained through norm accounting and
  orthogonality, never predicted term by term);
* a projector-algebra execution that applies each stage's operator
  directly to the dense vector, one (projector, bit-flip) sum at a time,
  with the opening superposition written down analytically.

Agreement of the compiled path with both references, at every stage, is
the package's core correctness argument.

Stage indices used throughout: 1 after the superpose stage, 2 after
amplitude, 3 after phase, 4 after collapse, 5 after label, 6 after the
terminal measurement.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bitplan import BitPlan
from .gates import Hadamard
from .layout import Pattern, RegisterLayout
from .statevector import StateVector

Array = np.ndarray

STAGE_COUNT = 6

_SQRT_HALF = 2.0 ** -0.5


@dataclass(frozen=True, eq=False)
class StagePrediction:
    """Predicted encoding branch at one stage.

    ``components`` holds int64 basis indices, each at most once, and
    ``amplitudes`` the complex128 amplitude predicted at each, in the
    same order.
    """

    stage: int
    layout: RegisterLayout
    components: Array
    amplitudes: Array

    def useful_norm_sq(self) -> float:
        """Squared norm the predicted branch should carry."""
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def max_deviation(self, state: StateVector) -> float:
        """Largest |simulated - predicted| over the predicted components."""
        deviation = np.abs(self._gather(state) - self.amplitudes)
        return float(deviation.max(initial=0.0))

    def _gather(self, state: StateVector) -> Array:
        if state.layout != self.layout:
            raise ValueError("state layout does not match prediction layout")
        return state.amplitudes_at(self.components)


def _index(layout: RegisterLayout, *registers: tuple[tuple[int, ...], Array | int]) -> Array:
    """Basis indices of (qubits, values) assignments, each value written
    big-endian on its qubits; qubits not named read 0."""
    index = np.int64(0)
    for qubits, values in registers:
        for i, qubit in enumerate(reversed(qubits)):
            index = index | ((values >> i) & 1) << layout.bit_position(qubit)
    return index


def predict_stage(plan: BitPlan, stage: int) -> StagePrediction:
    """Closed-form components of the encoding branch after ``stage``."""
    if stage not in range(1, STAGE_COUNT + 1):
        raise ValueError(f"stage must be 1..{STAGE_COUNT}, got {stage}")
    layout = RegisterLayout(plan.n, plan.m)
    n, m = plan.n, plan.m
    labels, words = np.arange(1 << n), np.arange(1 << m)
    base = 2.0 ** (-(n + 2 * m) / 2.0)
    rotations = np.exp(2j * np.pi * plan.phase_turns)
    # word w, read big-endian on the phase register, has accumulated w / 2**m turns
    word_factors = np.exp(2j * np.pi * (words / float(1 << m)))

    # marks are (scratch, tag) and outcome is (flag, meter), each read as two bits
    marks, outcome = 0b11, 0b00
    if stage == 1:
        grid = np.meshgrid(labels, words, words, indexing="ij")
        j, work, word = (axis.ravel() for axis in grid)
        marks = 0b00
        amplitudes = base * word_factors[word]
    elif stage <= 3:
        # work value r > 0 is tagged for label j when amp bit floor(log2 r) is set
        j, work = np.nonzero(plan.amp_bits[:, np.repeat(np.arange(m), 1 << np.arange(m))])
        work = work + 1
        if stage == 2:  # the phase register still holds its superposed factor
            j, work, word = np.repeat(j, 1 << m), np.repeat(work, 1 << m), np.tile(words, len(j))
            marks = 0b01
            amplitudes = base * word_factors[word]
        else:
            word = plan.phase_ints[j]
            amplitudes = base * rotations[j]
    else:  # one entry per label, both work registers back at 0
        j, work, word = labels, 0, 0
        outcome = 0b00 if stage == 4 else 0b11
        levels = plan.amp_ints.astype(np.float64)
        if stage == 6:
            amplitudes = levels / plan.scale * rotations
        else:
            amplitudes = 2.0 ** (-(n + 4 * m) / 2.0) * levels * rotations

    components = _index(
        layout,
        (layout.system, j),
        (layout.amp[::-1], work),  # amp[i] carries the 2**i bit
        (layout.phase, word),
        ((layout.scratch, layout.tag), marks),
        ((layout.flag, layout.meter), outcome),
    )
    return StagePrediction(stage, layout, components, amplitudes)


# ----------------------------------------------------------------------
# projector-algebra execution


def _initial_superposition(layout: RegisterLayout) -> StateVector:
    """The post-superpose state written down directly as a tensor product."""
    factors = {q: (_SQRT_HALF, _SQRT_HALF) for q in (*layout.system, *layout.amp)}
    for i, q in enumerate(layout.phase):
        factors[q] = (_SQRT_HALF, _SQRT_HALF * np.exp(2j * np.pi / (1 << (i + 1))))
    return StateVector.product(layout, factors)


def run_projector_path(plan: BitPlan) -> Iterator[StateVector]:
    """Execute all six stages without compiling control patterns to gates.

    Yields the six stage states; the last one is post-measurement.  Each
    is live: the next stage changes it in place, so copy one to keep it.
    """
    layout = RegisterLayout(plan.n, plan.m)
    labels = 1 << plan.n

    state = _initial_superposition(layout)
    yield state

    # amplitude stage: mark, select, unwind, one amplitude bit at a time
    for k in range(plan.m):
        mark_terms = [
            (layout.system_pattern(j), (layout.scratch,))
            for j in range(labels)
            if plan.amp_bits[j, k]
        ]
        select_term = (
            (
                (layout.amp[k], 1),
                *((layout.amp[i], 0) for i in range(k + 1, plan.m)),
                (layout.scratch, 1),
            ),
            (layout.tag,),
        )
        if mark_terms:
            state.apply_projector_terms(mark_terms)
        state.apply_projector_terms([select_term])
        if mark_terms:
            state.apply_projector_terms(mark_terms)
    yield state

    # phase stage: one orthogonal sum over all basis labels
    terms = []
    for j in range(labels):
        system, phase = layout.system_pattern(j), layout.phase_pattern(plan.phase_bits[j])
        terms.append((Pattern(system.mask | phase.mask, system.bits | phase.bits), (layout.scratch,)))
    state.apply_projector_terms(terms)
    yield state

    # collapse stage: plain Hadamard layer on both work registers
    for q in (*layout.amp, *layout.phase):
        state.apply(Hadamard(q))
    yield state

    # label stage: single projector term flipping flag and meter together
    zeros = tuple((q, 0) for q in (*layout.amp, *layout.phase))
    state.apply_projector_terms(
        [
            (
                zeros + ((layout.scratch, 1), (layout.tag, 1)),
                (layout.flag, layout.meter),
            )
        ]
    )
    yield state

    final, _ = state.postselect(((layout.flag, 1), (layout.meter, 1)))
    yield final


def naive_success_probability(plan: BitPlan) -> float:
    """Probability a plain measurement would keep the encoding branch:
    exactly G**2 / 2**(n + 4m)."""
    return plan.scale_sq / (1 << (plan.n + 4 * plan.m))
