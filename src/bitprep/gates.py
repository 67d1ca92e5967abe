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
        if _plain(self.controls, self.target):
            return
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


def _plain(controls, target: int) -> bool:
    """Whether ``controls`` is already a tuple of (int, 0 or 1) tuples on
    distinct qubits other than ``target``, which MCX keeps as given."""
    if type(controls) is not tuple:
        return False
    seen = set()
    for pair in controls:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        qubit, polarity = pair
        if type(qubit) is not int or type(polarity) is not int or polarity not in (0, 1) or qubit in seen:
            return False
        seen.add(qubit)
    return target not in seen


Gate = Union[Hadamard, PhaseK, MCX]


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    """Every qubit the gate touches, controls first."""
    if isinstance(gate, MCX):
        return (*[q for q, _ in gate.controls], gate.target)
    return (gate.target,)
