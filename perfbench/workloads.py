"""Seeded benchmark workloads: target files and the CLI flags to run them with.

Targets follow the test suite's random family: uniform magnitudes,
normalized, and uniform phase turns.  The program sees only the written
target files; the same (workload, seed) always gives the same bytes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

BATCH_SIZE = 1000
# (n, m) cycle of the batch workloads: every seed and every stretch of the
# closed loop sees the same mix of sizes, so only the amplitudes vary.
# Widths stop at 13 so that statevector work stays under half the time.
BATCH_SIZES = tuple((n, m) for n in range(1, 5) for m in range(2, 5) if n + 2 * m + 4 <= 13)


@dataclass(frozen=True)
class Input:
    text: str                # target file contents
    flags: tuple[str, ...]   # extra CLI flags


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[np.random.Generator], list[Input]]
    listed: bool = True      # False: runnable by name, kept out of BENCHMARK.json


def target_text(rng: np.random.Generator, n: int, m: int) -> str:
    mags = rng.random(1 << n)
    mags /= np.linalg.norm(mags)
    turns = rng.random(1 << n)
    rows = (f"polar {float(g)!r} {float(t)!r}" for g, t in zip(mags, turns))
    return "\n".join((f"n {n}", f"m {m}", *rows)) + "\n"


def _fixed(n: int, m: int, count: int, flags: tuple[str, ...] = ()):
    def make(rng: np.random.Generator) -> list[Input]:
        return [Input(target_text(rng, n, m), flags) for _ in range(count)]
    return make


def _batch(peephole: bool):
    def make(rng: np.random.Generator) -> list[Input]:
        inputs = []
        for i in range(BATCH_SIZE):
            n, m = BATCH_SIZES[i % len(BATCH_SIZES)]
            flags = ("--peephole",) if peephole and (i // len(BATCH_SIZES)) % 2 else ()
            inputs.append(Input(target_text(rng, n, m), flags))
        return inputs
    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide_work",
            "n=2 m=7, width 20: Hadamard passes and few-control MCX dominate; "
            "control for extract, oracle and front-end changes",
            _fixed(2, 7, 4),
        ),
        Workload(
            "many_labels",
            "n=9 m=4, width 21: ~1200 MCX with 9+ controls and the 512x4096 "
            "Gram matmul in extract; control for oracle changes",
            _fixed(9, 4, 4),
        ),
        Workload(
            "stage_check",
            "n=5 m=5, width 19, --stage-check: predict_stage, the projector path "
            "and stage checkpoints carry the time and the peak RSS",
            _fixed(5, 5, 4, ("--stage-check",)),
        ),
        Workload(
            "small_batch",
            "1000 targets cycling n 1-4, m 2-4, widths 9-13: front-end layers (cli, "
            "bitplan, compile, export, resources) carry the time",
            _batch(peephole=False),
        ),
        Workload(
            "peephole_batch",
            "small_batch with every other target compiled with --peephole; shows "
            "the export round-trip defect, so it is kept out of BENCHMARK.json",
            _batch(peephole=True),
            listed=False,
        ),
    )
}


def make_inputs(name: str, seed: int) -> list[Input]:
    """The workload's inputs for a seed; the name salts the stream."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return WORKLOADS[name].make(rng)
