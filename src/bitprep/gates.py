"""Gate primitives the compiler emits and the simulator consumes."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from .layout import Pattern, control_pattern


@dataclass(frozen=True)
class Hadamard:
    target: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", operator.index(self.target))


@dataclass(frozen=True)
class PhaseK:
    """diag(1, exp(2*pi*i / 2**k)) on ``target``; k is a positive integer."""

    target: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", operator.index(self.target))
        object.__setattr__(self, "k", operator.index(self.k))
        if self.k < 1:
            raise ValueError(f"phase exponent must be >= 1, got k={self.k}")


@dataclass(frozen=True, init=False)
class MCX:
    """X on ``target`` where every control qubit matches its polarity.

    Controls are (qubit, polarity) pairs in any order, or a ``Pattern``;
    polarity 1 requires |1>, 0 requires |0>.  The gate holds them as the
    pattern's ``mask`` and ``bits``, so control order plays no part.  With
    no controls the gate acts as a plain X.
    """

    mask: int
    bits: int
    target: int

    def __init__(self, controls: Pattern | Iterable[tuple[int, int]], target: int) -> None:
        mask, bits = control_pattern(controls)
        target = operator.index(target)
        if target >= 0 and mask >> target & 1:
            raise ValueError(f"target {target} is also a control")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "target", target)

    @property
    def controls(self) -> tuple[tuple[int, int], ...]:
        """The (qubit, polarity) pairs, in ascending qubit order."""
        return Pattern(self.mask, self.bits).pairs


# a types.UnionType, so isinstance(gate, Gate) runs in C
Gate = Hadamard | PhaseK | MCX


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    """Every qubit the gate touches, controls first in ascending order."""
    if isinstance(gate, MCX):
        return (*[q for q, _ in gate.controls], gate.target)
    return (gate.target,)
