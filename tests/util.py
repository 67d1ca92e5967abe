"""Shared helpers for the test suite."""

import itertools

import numpy as np

from bitprep import TargetState, decompose

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


def basis_index(layout, label, work, word, marks, outcome) -> int:
    """Scalar basis index of one (label, work value, phase word,
    (scratch, tag), (flag, meter)) assignment, through ``index_of``."""
    return layout.index_of(
        layout.system_pattern(label)
        + layout.amp_pattern(work)
        + layout.phase_pattern(word)
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
