"""Gate primitives the compiler emits and the simulator consumes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Hadamard:
    target: int


@dataclass(frozen=True)
class PhaseK:
    """diag(1, exp(2*pi*i / 2**k)) on ``target``; k is a positive integer."""

    target: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"phase exponent must be >= 1, got k={self.k}")


@dataclass(frozen=True)
class MCX:
    """X on ``target`` where every control qubit matches its polarity.

    Controls are (qubit, polarity) pairs; polarity 1 requires |1>, 0
    requires |0>.  With no controls the gate acts as a plain X.
    """

    controls: tuple[tuple[int, int], ...]
    target: int

    def __post_init__(self) -> None:
        normalized = tuple((int(q), int(b)) for q, b in self.controls)
        object.__setattr__(self, "controls", normalized)
        seen = set()
        for qubit, polarity in normalized:
            if polarity not in (0, 1):
                raise ValueError(f"control polarity must be 0 or 1, got {polarity}")
            if qubit in seen:
                raise ValueError(f"duplicate control qubit {qubit}")
            seen.add(qubit)
        if self.target in seen:
            raise ValueError(f"target {self.target} is also a control")


Gate = Union[Hadamard, PhaseK, MCX]


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    """Every qubit the gate touches, controls first."""
    if isinstance(gate, MCX):
        return tuple(q for q, _ in gate.controls) + (gate.target,)
    return (gate.target,)
