"""bitprep: measurement-assisted preparation of arbitrary pure states.

The pipeline quantizes a target state's magnitudes and phases into m-bit
binary plans, compiles the plan into a staged circuit of Hadamards,
fixed phase rotations, and multi-controlled X gates over a system
register plus work and marker qubits, simulates the circuit on a dense
statevector, and keeps the branch labeled by two marker qubits reading
|11>.  The kept branch holds the quantized state exactly; independent
closed-form predictions and a gate-free projector execution path verify
every stage.
"""

from .bitplan import (
    BitPlan,
    TargetState,
    decompose,
    fidelity,
    reconstruct,
    smallest_viable_precision,
)
from .encoder import (
    Circuit,
    Measurement,
    SimRun,
    STAGE_NAMES,
    compile_circuit,
    parse_circuit,
    simulate,
)
from .errors import (
    BitprepError,
    CapacityError,
    CircuitFormatError,
    EntanglementError,
    PrecisionError,
    TargetFileError,
    VerificationError,
)
from .gates import MCX, Gate, Hadamard, PhaseK, gate_qubits
from .layout import RegisterLayout
from .oracle import (
    StagePrediction,
    naive_success_probability,
    predict_stage,
    run_projector_path,
)
from .resources import ResourceReport, analyze
from .statevector import StateVector, align_phase

__version__ = "0.1.0"

__all__ = [
    "BitPlan",
    "BitprepError",
    "CapacityError",
    "Circuit",
    "CircuitFormatError",
    "EntanglementError",
    "Gate",
    "Hadamard",
    "MCX",
    "Measurement",
    "PhaseK",
    "PrecisionError",
    "RegisterLayout",
    "ResourceReport",
    "STAGE_NAMES",
    "SimRun",
    "StagePrediction",
    "StateVector",
    "TargetFileError",
    "TargetState",
    "VerificationError",
    "align_phase",
    "analyze",
    "compile_circuit",
    "decompose",
    "fidelity",
    "gate_qubits",
    "naive_success_probability",
    "parse_circuit",
    "predict_stage",
    "reconstruct",
    "run_projector_path",
    "simulate",
    "smallest_viable_precision",
]
