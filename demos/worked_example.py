# End-to-end walkthrough on the standard two-component target
#
#     (-2i|0> - 3|1>) / sqrt(13)
#
# with two bits of precision for both magnitudes and phases.  Everything
# the pipeline produces along the way is printed: the bit plan, the
# compiled circuit text, the per-stage branch norms, the kept-branch
# probability, and the final extracted state.

import numpy as np

from bitprep import (
    STAGE_NAMES,
    RegisterLayout,
    TargetState,
    align_phase,
    compile_circuit,
    decompose,
    fidelity,
    naive_success_probability,
    predict_stage,
    reconstruct,
    simulate,
)

target = TargetState.from_amplitudes(np.array([-2j, -3.0]) / np.sqrt(13.0))
print("target amplitudes:", target.amplitudes)
print("as magnitudes:", target.magnitudes, "and phase turns:", target.phase_turns)

# Quantize at m = 2.  The magnitudes scale exactly to the integer levels
# 2 and 3, so nothing is lost: the plan reconstructs the target exactly.
plan = decompose(target, 2)
print()
print("amplitude bits (one row per basis label):")
print(plan.amp_bits)
print("phase bits:")
print(plan.phase_bits)
print("integer levels:", plan.amp_ints, "scale G =", plan.scale)
print("fidelity(target, reconstruction) =", fidelity(target, reconstruct(plan)))

# Compile and show the whole circuit.  Nine qubits: one system qubit,
# two work registers of two qubits each, and four marker qubits.
circuit = compile_circuit(plan)
print()
print(circuit.export_text())

# Run it, checking each stage's state against its closed-form prediction
# as the stage is reached.
layout = RegisterLayout(plan.n, plan.m)
print("branch carrying the encoding, stage by stage:")


def show_stage(name, state):
    stage = (*STAGE_NAMES, "measure").index(name) + 1
    pred = predict_stage(plan, stage)
    print(
        f"  stage {stage} ({name}): predicted weight {pred.useful_norm_sq():.9f}, "
        f"worst component deviation {pred.max_deviation(state):.2e}"
    )


run = simulate(circuit, on_stage=show_stage)

print()
print("kept-branch probability:", run.probability)
print("closed form G^2 / 2^(n+4m):", naive_success_probability(plan), "= 13/512")

# The terminal measurement keeps the branch where both marker qubits
# read 1; the system register then factors out cleanly.
output = run.final.extract(layout.system)
output = align_phase(output, target.amplitudes)
print()
print("prepared state:", output)
print("fidelity against the target:", abs(np.vdot(target.amplitudes, output)) ** 2)
