"""Register bookkeeping: which global qubit plays which role.

Basis states are indexed so that qubit 0 is the most significant bit:
over t qubits, basis index b assigns qubit q the bit (b >> (t-1-q)) & 1.
Every other module routes its bit arithmetic through this table instead
of hand-rolling shifts.

A control pattern pins some qubits to bits.  It is a :class:`Pattern`,
two ints in which bit q stands for qubit q, built and checked in one
place, :func:`control_pattern`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class Pattern(NamedTuple):
    """Bit q of ``mask`` is set where qubit q is fixed, to bit q of ``bits``."""

    mask: int
    bits: int

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (qubit, bit) pairs, in ascending qubit order."""
        mask, bits = self
        return tuple([(q, bits >> q & 1) for q in range(mask.bit_length()) if mask >> q & 1])


def control_pattern(controls: Pattern | Iterable[tuple[int, int]], width: int | None = None) -> Pattern:
    """The checked :class:`Pattern` of (qubit, bit) ``controls``, or of a
    :class:`Pattern`; with ``width``, every qubit must lie below it.  A
    qubit or bit that is not an integer (a bit may be a bool) raises
    TypeError, and every other defect ValueError."""
    if type(controls) is Pattern:
        mask, bits = controls
        if mask < 0 or bits & ~mask:
            raise ValueError(f"{controls!r} fixes bits outside its mask")
    else:
        mask = bits = 0
        for qubit, bit in controls:
            qubit = operator.index(qubit)
            # numpy's bool is no index; a float is never truncated
            bit = int(bit) if isinstance(bit, np.bool_) else operator.index(bit)
            if qubit < 0 or bit not in (0, 1):
                raise ValueError(f"pattern pair ({qubit}, {bit}) needs a qubit >= 0 and a bit 0 or 1")
            if mask & 1 << qubit:
                raise ValueError(f"qubit {qubit} appears twice in pattern")
            mask |= 1 << qubit
            bits |= bit << qubit
        controls = Pattern(mask, bits)
    if width is not None and mask >> width:
        raise ValueError(f"qubit {mask.bit_length() - 1} outside register of {width} qubits")
    return controls


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit index assignment for one preparation run.

    The full register holds, in global order:

    * ``system``: n qubits that carry the prepared state.  Big-endian,
      so ``system[0]`` is the most significant bit of the basis label j.
    * ``amp``: m work qubits used while selecting amplitude magnitudes.
      Little-endian: ``amp[i]`` carries the 2**i bit of the work value.
    * ``phase``: m work qubits that accumulate phase; ``phase[i]``
      receives a fixed rotation of 2**-(i+1) turns at the start.
    * ``scratch``: match qubit, raised while one basis label is active.
    * ``tag``: records that the active label passed a magnitude test.
    * ``flag``, ``meter``: the pair whose joint ``|11>`` outcome marks a
      successful preparation.

    Total width is n + 2m + 4.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"system register needs n >= 1, got n={self.n}")
        if self.m < 1:
            raise ValueError(f"precision needs m >= 1, got m={self.m}")

    @property
    def total(self) -> int:
        return self.n + 2 * self.m + 4

    @property
    def system(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def amp(self) -> tuple[int, ...]:
        return tuple(range(self.n, self.n + self.m))

    @property
    def phase(self) -> tuple[int, ...]:
        return tuple(range(self.n + self.m, self.n + 2 * self.m))

    @property
    def scratch(self) -> int:
        return self.n + 2 * self.m

    @property
    def tag(self) -> int:
        return self.n + 2 * self.m + 1

    @property
    def flag(self) -> int:
        return self.n + 2 * self.m + 2

    @property
    def meter(self) -> int:
        return self.n + 2 * self.m + 3

    def bit_position(self, qubit: int) -> int:
        """Bit position of ``qubit`` inside a basis index (0 = least significant)."""
        if not 0 <= qubit < self.total:
            raise ValueError(f"qubit {qubit} outside register of {self.total} qubits")
        return self.total - 1 - qubit

    def system_pattern(self, label: int) -> Pattern:
        """Control pattern pinning the system register to basis label ``label``."""
        if not 0 <= label < 1 << self.n:
            raise ValueError(f"basis label {label} outside [0, 2**{self.n})")
        # system qubit q holds bit n - 1 - q of the label: its n-bit reversal
        return Pattern((1 << self.n) - 1, int(f"{label:0{self.n}b}"[::-1], 2))

    def phase_pattern(self, bits: Sequence[int]) -> Pattern:
        """Control pattern pinning the phase register to a bit word.

        ``bits[i]`` is the required value of ``phase[i]`` (the qubit that
        carries phase weight 2**-(i+1)).
        """
        if len(bits) != self.m:
            raise ValueError(f"phase word needs {self.m} bits, got {len(bits)}")
        return control_pattern(zip(self.phase, bits))

    def register_table(self) -> tuple[tuple[str, int, int], ...]:
        """Named (first, last) qubit ranges, in global order."""
        return (
            ("sys", self.system[0], self.system[-1]),
            ("amp", self.amp[0], self.amp[-1]),
            ("phase", self.phase[0], self.phase[-1]),
            ("scratch", self.scratch, self.scratch),
            ("tag", self.tag, self.tag),
            ("flag", self.flag, self.flag),
            ("meter", self.meter, self.meter),
        )
