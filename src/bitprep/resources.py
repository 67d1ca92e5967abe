"""Gate counts and depth estimates under a declared cost model.

The model is deliberately simple and stated up front: every single-qubit
gate costs 1, a multi-controlled X with c controls costs max(1, 2c - 1)
(an ancilla-free linear lowering), and depth is the plain sequential sum
of gate costs with no parallel packing.  Any linear-in-controls model
preserves the growth rates being checked; this one is easy to audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bitplan import BitPlan
from .encoder import Circuit
from .gates import MCX, Gate, Hadamard, PhaseK

COST_MODEL = "single-qubit gates cost 1; MCX with c controls costs max(1, 2c - 1); depth is the sequential cost sum"


def gate_cost(gate: Gate) -> int:
    if isinstance(gate, MCX):
        return max(1, 2 * gate.mask.bit_count() - 1)
    return 1


@dataclass(frozen=True)
class StageTally:
    """Gate counts of one stage; ``x`` counts MCX gates with no controls."""

    hadamard: int = 0
    phase: int = 0
    x: int = 0
    mcx: int = 0
    depth: int = 0

    @property
    def gates(self) -> int:
        return self.hadamard + self.phase + self.x + self.mcx


@dataclass(frozen=True)
class ResourceReport:
    width: int
    popcounts: tuple[int, ...]
    stages: tuple[tuple[str, StageTally], ...]
    cost_model: str = field(default=COST_MODEL)

    def stage(self, name: str) -> StageTally:
        for stage_name, tally in self.stages:
            if stage_name == name:
                return tally
        raise KeyError(f"no stage named {name!r}")

    @property
    def mcx_count(self) -> int:
        return sum(tally.mcx for _, tally in self.stages)

    @property
    def gate_count(self) -> int:
        return sum(tally.gates for _, tally in self.stages)

    @property
    def elementary_depth(self) -> int:
        return sum(tally.depth for _, tally in self.stages)

    def as_dict(self) -> dict:
        """Plain-data form for report serialization."""
        return {
            "cost_model": self.cost_model,
            "width": self.width,
            "popcounts": list(self.popcounts),
            "mcx_count": self.mcx_count,
            "gate_count": self.gate_count,
            "elementary_depth": self.elementary_depth,
            "stages": {
                name: {
                    "hadamard": tally.hadamard,
                    "phase": tally.phase,
                    "x": tally.x,
                    "mcx": tally.mcx,
                    "depth": tally.depth,
                }
                for name, tally in self.stages
            },
        }


def analyze(circuit: Circuit, plan: BitPlan) -> ResourceReport:
    """Tally the compiled circuit against its plan."""
    if (circuit.layout.n, circuit.layout.m) != (plan.n, plan.m):
        raise ValueError(
            f"circuit layout ({circuit.layout.n}, {circuit.layout.m}) does not "
            f"match plan ({plan.n}, {plan.m})"
        )
    popcounts = tuple(int(plan.amp_bits[:, k].sum()) for k in range(plan.m))
    stages = []
    for name, start, stop in circuit.stages:
        hadamard = phase = x = mcx = depth = 0
        for gate in circuit.gates[start:stop]:
            depth += gate_cost(gate)
            if isinstance(gate, Hadamard):
                hadamard += 1
            elif isinstance(gate, PhaseK):
                phase += 1
            elif not gate.mask:
                x += 1
            else:
                mcx += 1
        stages.append((name, StageTally(hadamard, phase, x, mcx, depth)))
    return ResourceReport(
        width=circuit.layout.total,
        popcounts=popcounts,
        stages=tuple(stages),
    )
