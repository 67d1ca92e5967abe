"""Compilation of a bit plan into the staged preparation circuit.

The circuit runs five unitary stages and one terminal measurement:

* ``superpose``: Hadamards spread the system and both work registers
  uniformly; phase work qubit i then receives a fixed rotation of
  2**-(i+1) turns.
* ``amplitude``: for each amplitude bit k, the basis labels whose plan
  bit is set briefly raise the scratch qubit; one gate conditioned on
  scratch and on the amp register's block-k pattern raises the tag
  qubit; the scratch marks are then unwound in reverse.  After the
  stage, label j is tagged on exactly a_j amp-register values.
* ``phase``: one gate per basis label raises scratch where the phase
  register spells that label's phase word, so the tagged-and-matched
  branch picks up exactly the planned phase factor.
* ``collapse``: Hadamards on both work registers concentrate the encoded
  branch onto the all-zeros work pattern.
* ``label``: two gates copy "work registers zero, scratch and tag both
  set" onto the flag and meter qubits.

Keeping only the flag=1, meter=1 branch of the terminal measurement
leaves the system register in the plan's reconstruction, exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bitplan import BitPlan
from .errors import CircuitFormatError
from .gates import MCX, Gate, Hadamard, PhaseK
from .layout import Pattern, RegisterLayout, control_pattern
from .statevector import StateVector

STAGE_NAMES = ("superpose", "amplitude", "phase", "collapse", "label")

_FORMAT_MAGIC = "bitprep-circuit 1"


@dataclass(frozen=True)
class Measurement:
    """Terminal read-out: measure ``measured`` conditioned on ``control``.

    Simulation models it as post-selection of both qubits onto |1>.
    """

    control: int
    measured: int

    def __post_init__(self) -> None:
        if self.control == self.measured:
            raise ValueError("measurement control and measured qubit must differ")

    @property
    def pattern(self) -> Pattern:
        return control_pattern(((self.control, 1), (self.measured, 1)))


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered gate list with contiguous named stage segments."""

    layout: RegisterLayout
    gates: tuple[Gate, ...]
    stages: tuple[tuple[str, int, int], ...]
    terminal: Measurement

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "stages", tuple(self.stages))
        names = tuple(name for name, _, _ in self.stages)
        if names != STAGE_NAMES:
            raise ValueError(f"stages must be {STAGE_NAMES} in order, got {names}")
        cursor = 0
        for name, start, stop in self.stages:
            if start != cursor or stop < start:
                raise ValueError(f"stage {name!r} is not contiguous at gate {cursor}")
            cursor = stop
        if cursor != len(self.gates):
            raise ValueError(f"stages cover {cursor} gates of {len(self.gates)}")
        total = self.layout.total
        for gate in self.gates:
            if not isinstance(gate, Gate):
                raise TypeError(f"not a gate: {gate!r}")
            mask = gate.mask if isinstance(gate, MCX) else 0
            if not 0 <= gate.target < total or mask >> total:
                qubit = gate.target if not 0 <= gate.target < total else mask.bit_length() - 1
                raise ValueError(f"gate {gate!r} touches qubit {qubit} outside layout")
        for qubit in (self.terminal.control, self.terminal.measured):
            if not 0 <= qubit < total:
                raise ValueError(f"terminal measurement touches qubit {qubit} outside layout")

    def export_text(self) -> str:
        """Deterministic text form; see :func:`parse_circuit`.  A gate object
        listed more than once, as a mark and its unwind are, is formatted once."""
        lines = [_FORMAT_MAGIC, f"n {self.layout.n}", f"m {self.layout.m}"]
        for name, first, last in self.layout.register_table():
            lines.append(f"reg {name} {first} {last}")
        # each qubit's "-q " and "+q " control tokens, shared by every MCX line
        tokens = [(f"-{q} ", f"+{q} ") for q in range(self.layout.total)]
        qubits: dict[int, list[int]] = {}  # the control qubits of each MCX mask
        formatted: dict[int, str] = {}
        for name, start, stop in self.stages:
            lines.append(f"stage {name}")
            for gate in self.gates[start:stop]:
                line = formatted.get(id(gate))
                if line is None:
                    line = formatted[id(gate)] = _gate_line(gate, tokens, qubits)
                lines.append(line)
        lines.append(f"CMEAS {self.terminal.control} {self.terminal.measured}")
        return "\n".join(lines) + "\n"


def _gate_line(gate: Gate, tokens: list[tuple[str, str]], qubits: dict[int, list[int]]) -> str:
    if isinstance(gate, Hadamard):
        return f"H {gate.target}"
    if isinstance(gate, PhaseK):
        return f"P {gate.k} {gate.target}"
    if isinstance(gate, MCX):
        mask, bits = gate.mask, gate.bits
        if mask not in qubits:
            qubits[mask] = [q for q in range(mask.bit_length()) if mask >> q & 1]
        return f"MCX {''.join([tokens[q][bits >> q & 1] for q in qubits[mask]])}{gate.target}"
    raise TypeError(f"not a gate: {gate!r}")


# ----------------------------------------------------------------------
# stage builders


def build_superposition(layout: RegisterLayout) -> list[Gate]:
    """Uniform spread plus the fixed per-qubit phase rotations."""
    gates: list[Gate] = [
        Hadamard(q) for q in (*layout.system, *layout.amp, *layout.phase)
    ]
    gates.extend(PhaseK(q, i + 1) for i, q in enumerate(layout.phase))
    return gates


def amplitude_triads(plan: BitPlan, layout: RegisterLayout, *, peephole: bool = False) -> list[list[Gate]]:
    """The amplitude stage as one mark/select/unwind triad per bit.

    Exposed separately so the scratch qubit can be checked to sit back
    in |0> at every triad boundary.
    """
    labels = 1 << plan.n
    # one mark gate per label with a set bit, shared by every bit it marks
    marks = {
        j: MCX(layout.system_pattern(j), layout.scratch)
        for j in np.flatnonzero(plan.amp_bits.any(axis=1)).tolist()
    }
    triads: list[list[Gate]] = []
    for k in range(plan.m):
        column = plan.amp_bits[:, k]
        if peephole and int(column.sum()) == labels:
            # every label participates, so the mark is unconditional
            mark: list[Gate] = [MCX((), layout.scratch)]
        else:
            mark = [marks[j] for j in np.flatnonzero(column).tolist()]
        select = MCX(
            (
                (layout.amp[k], 1),
                *((layout.amp[i], 0) for i in range(k + 1, plan.m)),
                (layout.scratch, 1),
            ),
            layout.tag,
        )
        triads.append(mark + [select] + mark[::-1])
    return triads


def build_amplitude_encoding(plan: BitPlan, layout: RegisterLayout, *, peephole: bool = False) -> list[Gate]:
    return [gate for triad in amplitude_triads(plan, layout, peephole=peephole) for gate in triad]


def build_phase_encoding(plan: BitPlan, layout: RegisterLayout) -> list[Gate]:
    """One scratch-raising gate per basis label, keyed on its phase word."""
    words = [tuple(word) for word in plan.phase_bits.tolist()]
    patterns = {word: layout.phase_pattern(word) for word in dict.fromkeys(words)}
    gates: list[Gate] = []
    for j, word in enumerate(words):
        system, phase = layout.system_pattern(j), patterns[word]
        gates.append(MCX(Pattern(system.mask | phase.mask, system.bits | phase.bits), layout.scratch))
    return gates


def build_basis_collapse(layout: RegisterLayout) -> list[Gate]:
    return [Hadamard(q) for q in (*layout.amp, *layout.phase)]


def build_branch_labeling(layout: RegisterLayout) -> list[Gate]:
    controls = (
        *((q, 0) for q in layout.amp),
        *((q, 0) for q in layout.phase),
        (layout.scratch, 1),
        (layout.tag, 1),
    )
    return [MCX(controls, layout.flag), MCX(controls, layout.meter)]


def compile_circuit(plan: BitPlan, *, peephole: bool = False) -> Circuit:
    """Full staged circuit for a plan.

    With ``peephole=True``, an amplitude bit shared by every basis label
    is marked by a single unconditional X instead of one gate per label.
    Off by default so gate counts stay auditable.
    """
    layout = RegisterLayout(plan.n, plan.m)
    gates: list[Gate] = []
    stages: list[tuple[str, int, int]] = []
    parts = (
        ("superpose", build_superposition(layout)),
        ("amplitude", build_amplitude_encoding(plan, layout, peephole=peephole)),
        ("phase", build_phase_encoding(plan, layout)),
        ("collapse", build_basis_collapse(layout)),
        ("label", build_branch_labeling(layout)),
    )
    for name, part in parts:
        stages.append((name, len(gates), len(gates) + len(part)))
        gates.extend(part)
    return Circuit(
        layout=layout,
        gates=tuple(gates),
        stages=tuple(stages),
        terminal=Measurement(layout.flag, layout.meter),
    )


# ----------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimRun:
    """Result of executing a circuit on the dense simulator; ``probability``
    is the squared norm the kept branch had before renormalization."""

    final: StateVector
    probability: float


def simulate(circuit: Circuit, *, on_stage: Callable[[str, StateVector], None] | None = None) -> SimRun:
    """Run every stage, then post-select.  ``on_stage(name, state)`` sees each
    stage's live state (the next stage changes it in place: copy it to keep
    it), and last ``("measure", final)``."""
    state = StateVector.ground(circuit.layout)
    for name, start, stop in circuit.stages:
        for gate in circuit.gates[start:stop]:
            state.apply(gate)
        if on_stage is not None:
            on_stage(name, state)
    final, probability = state.postselect(circuit.terminal.pattern)
    if on_stage is not None:
        on_stage("measure", final)
    return SimRun(final=final, probability=probability)


# ----------------------------------------------------------------------
# parsing


def parse_circuit(text: str) -> Circuit:
    """Parse the text form produced by :meth:`Circuit.export_text`.

    Blank lines and lines starting with ``#`` are ignored, so exported
    files can be annotated by hand and still round-trip.
    """
    header: dict[str, int] = {}
    registers: list[tuple[str, int, int]] = []
    stage_rows: list[tuple[str, list[Gate]]] = []
    terminal: Measurement | None = None
    saw_magic = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_magic:
            if line != _FORMAT_MAGIC:
                raise CircuitFormatError(
                    f"line {lineno}: expected header {_FORMAT_MAGIC!r}, got {line!r}"
                )
            saw_magic = True
            continue
        if terminal is not None:
            raise CircuitFormatError(f"line {lineno}: content after CMEAS")
        tokens = line.split()
        word = tokens[0]
        try:
            if word in ("n", "m"):
                if len(tokens) != 2 or word in header:
                    raise CircuitFormatError(
                        f"line {lineno}: malformed or repeated {word!r} declaration"
                    )
                header[word] = _parse_int(tokens[1], lineno)
            elif word == "reg":
                if len(tokens) != 4:
                    raise CircuitFormatError(f"line {lineno}: malformed register line")
                registers.append(
                    (tokens[1], _parse_int(tokens[2], lineno), _parse_int(tokens[3], lineno))
                )
            elif word == "stage":
                if len(tokens) != 2:
                    raise CircuitFormatError(f"line {lineno}: malformed stage line")
                stage_rows.append((tokens[1], []))
            elif word == "CMEAS":
                if len(tokens) != 3:
                    raise CircuitFormatError(f"line {lineno}: CMEAS needs two qubits")
                terminal = Measurement(
                    _parse_int(tokens[1], lineno), _parse_int(tokens[2], lineno)
                )
            elif word in ("H", "P", "MCX"):
                if not stage_rows:
                    raise CircuitFormatError(
                        f"line {lineno}: gate before any stage declaration"
                    )
                stage_rows[-1][1].append(_parse_gate(tokens, lineno))
            else:
                raise CircuitFormatError(f"line {lineno}: unknown directive {word!r}")
        except ValueError as exc:
            raise CircuitFormatError(f"line {lineno}: {exc}") from exc

    if not saw_magic:
        raise CircuitFormatError("empty input; missing format header")
    if "n" not in header or "m" not in header:
        raise CircuitFormatError("header must declare both n and m")
    if terminal is None:
        raise CircuitFormatError("missing terminal CMEAS line")

    # the layout and the circuit check the header, the stages and every qubit
    try:
        layout = RegisterLayout(header["n"], header["m"])
        expected_regs = list(layout.register_table())
        if registers and registers != expected_regs:
            raise CircuitFormatError(
                f"register table {registers} does not match n={layout.n}, m={layout.m}"
            )
        gates: list[Gate] = []
        stages: list[tuple[str, int, int]] = []
        for name, part in stage_rows:
            stages.append((name, len(gates), len(gates) + len(part)))
            gates.extend(part)
        return Circuit(layout=layout, gates=tuple(gates), stages=tuple(stages), terminal=terminal)
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from exc


def _parse_int(token: str, lineno: int) -> int:
    """A token of ASCII digits only: no sign, no underscore."""
    if not (token.isascii() and token.isdigit()):
        raise CircuitFormatError(f"line {lineno}: expected integer, got {token!r}")
    return int(token)


def _parse_gate(tokens: list[str], lineno: int) -> Gate:
    word = tokens[0]
    if word == "H":
        if len(tokens) != 2:
            raise CircuitFormatError(f"line {lineno}: H takes one qubit")
        return Hadamard(_parse_int(tokens[1], lineno))
    if word == "P":
        if len(tokens) != 3:
            raise CircuitFormatError(f"line {lineno}: P takes an exponent and a qubit")
        return PhaseK(_parse_int(tokens[2], lineno), _parse_int(tokens[1], lineno))
    # MCX: signed control tokens, then a plain target
    controls: list[tuple[int, int]] = []
    for token in tokens[1:-1]:
        if token.startswith("+"):
            controls.append((_parse_int(token[1:], lineno), 1))
        elif token.startswith("-"):
            controls.append((_parse_int(token[1:], lineno), 0))
        else:
            raise CircuitFormatError(
                f"line {lineno}: control token {token!r} must start with + or -"
            )
    if len(tokens) < 2:
        raise CircuitFormatError(f"line {lineno}: MCX needs a target")
    return MCX(tuple(controls), _parse_int(tokens[-1], lineno))
