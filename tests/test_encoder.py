import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from bitprep import (
    MCX,
    BitPlan,
    Circuit,
    CircuitFormatError,
    EntanglementError,
    Hadamard,
    Measurement,
    PhaseK,
    RegisterLayout,
    STAGE_NAMES,
    StateVector,
    TargetState,
    align_phase,
    analyze,
    compile_circuit,
    decompose,
    naive_success_probability,
    parse_circuit,
    reconstruct,
    simulate,
)
from bitprep import statevector
from bitprep.encoder import (
    amplitude_triads,
    build_branch_labeling,
    build_phase_encoding,
    build_superposition,
)

WORKED = util.worked_plan()
LAYOUT = RegisterLayout(WORKED.n, WORKED.m)


# ----------------------------------------------------------------------
# compiled structure, checked gate by gate for the worked plan


def test_superpose_gates():
    gates = util.stage_gates(compile_circuit(WORKED), "superpose")
    assert gates == (
        Hadamard(0),
        Hadamard(1),
        Hadamard(2),
        Hadamard(3),
        Hadamard(4),
        PhaseK(3, 1),
        PhaseK(4, 2),
    )


def test_amplitude_triads_worked():
    triads = amplitude_triads(WORKED, LAYOUT)
    # bit 0 is set only for label 1: one mark, one select, one unwind
    assert triads[0] == [
        MCX(((0, 1),), 5),
        MCX(((1, 1), (2, 0), (5, 1)), 6),
        MCX(((0, 1),), 5),
    ]
    # bit 1 is set for both labels; unwind order mirrors the marks
    assert triads[1] == [
        MCX(((0, 0),), 5),
        MCX(((0, 1),), 5),
        MCX(((2, 1), (5, 1)), 6),
        MCX(((0, 1),), 5),
        MCX(((0, 0),), 5),
    ]


def test_phase_stage_worked():
    gates = util.stage_gates(compile_circuit(WORKED), "phase")
    assert gates == (
        MCX(((0, 0), (3, 1), (4, 1)), 5),
        MCX(((0, 1), (3, 1), (4, 0)), 5),
    )


def test_collapse_and_label_stages():
    circuit = compile_circuit(WORKED)
    assert util.stage_gates(circuit, "collapse") == (
        Hadamard(1),
        Hadamard(2),
        Hadamard(3),
        Hadamard(4),
    )
    controls = ((1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (6, 1))
    assert util.stage_gates(circuit, "label") == (MCX(controls, 7), MCX(controls, 8))
    assert circuit.terminal == Measurement(7, 8)


def test_zero_phase_word_uses_all_negative_controls():
    plan = BitPlan(1, 2, np.array([[1, 0], [0, 1]]), np.zeros((2, 2), dtype=int))
    gates = build_phase_encoding(plan, LAYOUT)
    assert gates[0] == MCX(((0, 0), (3, 0), (4, 0)), 5)
    assert gates[1] == MCX(((0, 1), (3, 0), (4, 0)), 5)


def test_stage_segments_partition_the_gate_list():
    circuit = compile_circuit(WORKED)
    reassembled = []
    for name in ("superpose", "amplitude", "phase", "collapse", "label"):
        reassembled.extend(util.stage_gates(circuit, name))
    assert tuple(reassembled) == circuit.gates
    with pytest.raises(KeyError):
        util.stage_gates(circuit, "teleport")


def test_circuit_validation():
    circuit = compile_circuit(WORKED)
    with pytest.raises(ValueError, match="order"):
        Circuit(LAYOUT, circuit.gates, circuit.stages[::-1], circuit.terminal)
    with pytest.raises(ValueError, match="contiguous"):
        bad = (circuit.stages[0], (circuit.stages[1][0], 9, 15), *circuit.stages[2:])
        Circuit(LAYOUT, circuit.gates, bad, circuit.terminal)
    with pytest.raises(ValueError, match="outside"):
        Circuit(LAYOUT, (*circuit.gates[:-1], Hadamard(9)), circuit.stages, circuit.terminal)
    with pytest.raises(ValueError):
        Measurement(7, 7)


# ----------------------------------------------------------------------
# stage-by-stage physics


def test_superpose_state_is_uniform_with_fixed_phases():
    layout = RegisterLayout(1, 1)
    state = StateVector.ground(layout)
    util.apply_all(state, build_superposition(layout))
    # qubits 0..2 uniform, markers still |0>; phase qubit contributes -1
    for idx in range(1 << layout.total):
        amp = state.amplitudes[idx]
        if idx & 0b1111:  # any marker bit set (qubits 3..6)
            assert amp == 0.0
        else:
            expected = 2.0 ** -1.5
            if idx & (1 << layout.bit_position(layout.phase[0])):
                expected = -expected
            assert abs(amp - expected) < 1e-15


def test_tag_probability_matches_plan_levels():
    after_amp = util.compiled_stages(compile_circuit(WORKED))[1]
    for j in range(2):
        pattern = LAYOUT.system_pattern(j).pairs + ((LAYOUT.tag, 1),)
        expected = WORKED.amp_ints[j] * 2.0 ** -(WORKED.n + WORKED.m)
        assert abs(after_amp.probability(pattern) - expected) < 1e-12


def test_zero_amplitude_row_is_never_tagged():
    plan = decompose(TargetState.from_amplitudes([1.0, 0.0]), 1)
    assert plan.amp_ints.tolist() == [1, 0]
    layout = RegisterLayout(1, 1)
    stages = util.compiled_stages(compile_circuit(plan))
    tagged = layout.system_pattern(1).pairs + ((layout.tag, 1),)
    assert stages[1].probability(tagged) < 1e-24
    # and the kept branch puts nothing on that label
    final_sys = stages[5].extract(layout.system)
    assert abs(final_sys[1]) < 1e-12


def test_scratch_clean_at_every_triad_boundary():
    rng = np.random.default_rng(31)
    for plan in (WORKED, util.random_plan(rng, 2, 3)):
        layout = RegisterLayout(plan.n, plan.m)
        state = StateVector.ground(layout)
        util.apply_all(state, build_superposition(layout))
        for triad in amplitude_triads(plan, layout):
            util.apply_all(state, triad)
            assert abs(state.probability(((layout.scratch, 0),)) - 1.0) < 1e-12


def test_branch_labels_are_perfectly_correlated():
    labeled = util.compiled_stages(compile_circuit(WORKED))[4]
    mixed01 = labeled.probability(((LAYOUT.flag, 0), (LAYOUT.meter, 1)))
    mixed10 = labeled.probability(((LAYOUT.flag, 1), (LAYOUT.meter, 0)))
    both = labeled.probability(((LAYOUT.flag, 1), (LAYOUT.meter, 1)))
    neither = labeled.probability(((LAYOUT.flag, 0), (LAYOUT.meter, 0)))
    assert mixed01 < 1e-24 and mixed10 < 1e-24
    assert abs(both + neither - 1.0) < 1e-12


def test_kept_branch_has_pure_marker_pattern():
    run = simulate(compile_circuit(WORKED))
    rest = (
        *((q, 0) for q in LAYOUT.amp),
        *((q, 0) for q in LAYOUT.phase),
        (LAYOUT.scratch, 1),
        (LAYOUT.tag, 1),
        (LAYOUT.flag, 1),
        (LAYOUT.meter, 1),
    )
    assert abs(run.final.probability(rest) - 1.0) < 1e-12


def test_collapse_checkpoint_leaves_system_entangled():
    collapsed = util.compiled_stages(compile_circuit(WORKED))[3]
    with pytest.raises(EntanglementError):
        collapsed.extract(LAYOUT.system)


# ----------------------------------------------------------------------
# end to end


def test_worked_example_end_to_end():
    run = simulate(compile_circuit(WORKED))
    assert abs(run.probability - 13.0 / 512.0) < 1e-12
    system = align_phase(run.final.extract(LAYOUT.system), reconstruct(WORKED).amplitudes)
    assert np.allclose(system, reconstruct(WORKED).amplitudes, atol=1e-10)


def test_basis_state_target_is_exact():
    plan = decompose(TargetState.from_amplitudes([0.0, 1.0]), 1)
    run = simulate(compile_circuit(plan))
    system = run.final.extract(RegisterLayout(1, 1).system)
    assert abs(abs(system[1]) - 1.0) < 1e-12
    assert abs(system[0]) < 1e-12


WIDE = [
    util.random_plan(np.random.default_rng(27), 2, 7),
    # every level is 64: the select gates of bits 0-5 never match, so
    # those amp qubits stay factors, each numerically |0> after collapse
    decompose(TargetState.from_polar([0.5] * 4, [0.0, 0.25, 0.5, 0.75]), 7),
]
WIDE_PLANS = pytest.mark.parametrize("plan", WIDE, ids=["random", "one-level"])


@WIDE_PLANS
def test_label_stage_leaves_the_core_alone(plan):
    stages = util.compiled_stages(compile_circuit(plan))
    collapsed, labeled = stages[3]._blocks, stages[4]._blocks
    assert labeled[0].axes == collapsed[0].axes
    # the other blocks hold only the system register in their cores
    assert all(block.axes == tuple(range(plan.n)) for block in labeled[1:])


def test_on_stage_sees_each_live_stage_in_order():
    circuit = compile_circuit(util.random_plan(np.random.default_rng(8), 2, 2))
    seen = []

    def hook(name, state):
        seen.append((name, state))
        if name != "measure":
            # every gate up to the end of this stage, on a fresh state read
            # at the end of each stage, as this hook reads the live one
            fresh = StateVector.ground(circuit.layout)
            for stage, start, stop in circuit.stages:
                util.apply_all(fresh, circuit.gates[start:stop]).norm()
                if stage == name:
                    break
            assert np.array_equal(state.amplitudes, fresh.amplitudes)

    run = simulate(circuit, on_stage=hook)
    assert [name for name, _ in seen] == [*STAGE_NAMES, "measure"]
    assert all(state is seen[0][1] for _, state in seen[:5])
    assert seen[-1][1] is run.final


@WIDE_PLANS
def test_simulate_peaks_under_two_cores(plan):
    # the label stage splits off the kept branch instead of widening the
    # core, so the widest buffer is the n + 2m + 2 qubit core before it
    circuit = compile_circuit(plan)
    core_bytes = 16 << (plan.n + 2 * plan.m + 2)
    tracemalloc.start()
    try:
        simulate(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * core_bytes


@pytest.mark.parametrize(
    "plan, passes",
    [*zip(WIDE, (4, 2)), (util.random_plan(np.random.default_rng(94), 9, 4), 2)],
    ids=["random", "one-level", "n9-m4"],
)
def test_plain_simulate_transforms_no_core(plan, passes, monkeypatch):
    # the label stage reads its kept slice through the pending collapse
    # layer and post-selection drops the rest unread, so a plain run makes
    # no Walsh-Hadamard pass; a hook that reads each stage applies the
    # whole layer, one pass per run of up to 4 adjacent work axes
    calls = []
    transform = statevector._transform
    monkeypatch.setattr(statevector, "_transform", lambda *args: calls.append(args) or transform(*args))
    circuit = compile_circuit(plan)
    plain = simulate(circuit)
    assert calls == []
    read = simulate(circuit, on_stage=lambda name, state: state.norm())
    assert len(calls) == passes
    for run in (plain, read):
        assert abs(run.probability - naive_success_probability(plan)) < 1e-12


def test_plain_simulate_swaps_once_per_run(monkeypatch):
    # each run of same-target MCX gates is one swap: a mark, its select,
    # its unwind folded into the next mark; a plain run reads the kept slice
    # through the phase stage's run, so never swaps it, while a hook that
    # reads each stage swaps it once over its 2**n patterns; ``apply``
    # still sees every gate once
    rng = np.random.default_rng(94)
    plan = BitPlan(9, 4, rng.integers(0, 2, size=(512, 4)), rng.integers(0, 2, size=(512, 4)))
    circuit = compile_circuit(plan)
    layout = circuit.layout
    swaps, applied = [], []
    swap, apply = statevector._Block.swap, StateVector.apply
    monkeypatch.setattr(
        statevector._Block, "swap",
        lambda block, mask, target, patterns: swaps.append((mask, target, len(patterns)))
        or swap(block, mask, target, patterns),
    )
    monkeypatch.setattr(StateVector, "apply", lambda state, gate: applied.append(gate) or apply(state, gate))
    system = sum(1 << q for q in layout.system)
    phase = system + sum(1 << q for q in layout.phase)
    for hook, phase_swaps in ((None, []), (lambda name, state: state.norm(), [(phase, layout.scratch, 1 << plan.n)])):
        swaps.clear()
        applied.clear()
        run = simulate(circuit, on_stage=hook)
        assert applied == list(circuit.gates)
        assert [s for s in swaps if s[0] == phase] == phase_swaps
        assert [s[:2] for s in swaps].count((system, layout.scratch)) == plan.m + 1
        assert len(swaps) == 2 * plan.m + 1 + len(phase_swaps)
        assert abs(run.probability - naive_success_probability(plan)) < 1e-12


@pytest.mark.parametrize("n, m", [(2, 7), (9, 4)])
def test_plain_simulate_peaks_under_four_narrow_cores(n, m):
    # a plain run never merges the phase register, so its widest core is
    # the n + m + 2 system, amp, scratch and tag qubits
    rng = np.random.default_rng(94)
    plan = BitPlan(n, m, rng.integers(0, 2, size=(1 << n, m)), rng.integers(0, 2, size=(1 << n, m)))
    circuit = compile_circuit(plan)
    narrow_core_bytes = 16 << (n + m + 2)
    tracemalloc.start()
    try:
        run = simulate(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * narrow_core_bytes
    assert abs(run.probability - naive_success_probability(plan)) < 1e-12


@WIDE_PLANS
def test_collapse_stage_allocates_under_a_quarter_core(plan):
    # the collapse stage's Hadamards wait as one layer; a plain run reads
    # only the kept slice through it, and a full read such as this one
    # applies it in place with one slab of scratch, about an eighth of the
    # core.  The phase stage's run and its merge are paid by a read before
    # the collapse stage, as a hook that reads each stage pays them.
    circuit = compile_circuit(plan)
    core_bytes = 16 << (plan.n + 2 * plan.m + 2)
    state = StateVector.ground(circuit.layout)
    for name in ("superpose", "amplitude", "phase"):
        util.apply_all(state, util.stage_gates(circuit, name))
    state.norm()
    tracemalloc.start()
    try:
        util.apply_all(state, util.stage_gates(circuit, "collapse"))
        state.norm()  # the first read applies the pending layer
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * core_bytes


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_plans_reproduce_their_reconstruction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 4))
    plan = util.random_plan(rng, n, m)
    layout = RegisterLayout(n, m)
    run = simulate(compile_circuit(plan))
    expected = reconstruct(plan).amplitudes
    system = align_phase(run.final.extract(layout.system), expected)
    assert np.allclose(system, expected, atol=1e-10)
    formula = float((plan.amp_ints.astype(float) ** 2).sum()) / 2 ** (n + 4 * m)
    assert abs(run.probability - formula) < 1e-12


# ----------------------------------------------------------------------
# text format


def test_export_header_and_terminal():
    text = compile_circuit(WORKED).export_text()
    lines = text.splitlines()
    assert lines[0] == "bitprep-circuit 1"
    assert lines[1] == "n 1"
    assert lines[2] == "m 2"
    assert lines[3:10] == [
        "reg sys 0 0",
        "reg amp 1 2",
        "reg phase 3 4",
        "reg scratch 5 5",
        "reg tag 6 6",
        "reg flag 7 7",
        "reg meter 8 8",
    ]
    assert lines[-1] == "CMEAS 7 8"
    assert text.endswith("\n")


def test_gate_line_grammar():
    text = compile_circuit(WORKED).export_text()
    assert "H 0" in text
    assert "P 1 3" in text and "P 2 4" in text
    assert "MCX +1 -2 +5 6" in text


def test_round_trip_is_byte_identical():
    rng = np.random.default_rng(8)
    for plan in (WORKED, util.random_plan(rng, 2, 2), util.random_plan(rng, 3, 1)):
        text = compile_circuit(plan).export_text()
        assert parse_circuit(text).export_text() == text


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), peephole=st.booleans())
def test_round_trip_gives_back_gates_and_tally(seed, peephole):
    rng = np.random.default_rng(seed)
    plan = util.random_plan(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    circuit = compile_circuit(plan, peephole=peephole)
    parsed = parse_circuit(circuit.export_text())
    assert parsed.gates == circuit.gates
    assert analyze(parsed, plan).as_dict() == analyze(circuit, plan).as_dict()


def test_round_trip_resimulates_identically():
    circuit = compile_circuit(WORKED)
    parsed = parse_circuit(circuit.export_text())
    a = simulate(circuit)
    b = simulate(parsed)
    assert np.max(np.abs(a.final.amplitudes - b.final.amplitudes)) < 1e-12
    assert abs(a.probability - b.probability) < 1e-15


def test_parse_tolerates_comments_and_blanks():
    text = compile_circuit(WORKED).export_text()
    noisy = "# annotated copy\n\n" + text.replace("stage phase", "stage phase\n# scratch pickup")
    assert parse_circuit(noisy).export_text() == text


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("bitprep-circuit 1", "bitprep-circuit 9"), "header"),
        (lambda t: t.replace("n 1\n", "n 1\nn 1\n"), "repeated"),
        (lambda t: t.replace("reg sys 0 0", "reg sys 0"), "register"),
        (lambda t: t.replace("reg sys 0 0", "reg sys 4 4"), "does not match"),
        (lambda t: t.replace("stage superpose\n", ""), "before any stage"),
        (lambda t: t + "H 0\n", "after CMEAS"),
        (lambda t: t.replace("H 0", "SWAP 0 1"), "unknown directive"),
        (lambda t: t.replace("CMEAS 7 8", "CMEAS 7"), "CMEAS"),
        (lambda t: t.replace("CMEAS 7 8\n", ""), "missing terminal"),
        (lambda t: t.replace("n 1\n", ""), "declare both"),
        (lambda t: t.replace("H 0", "H zero"), "integer"),
        (lambda t: t.replace("MCX +1 -2 +5 6", "MCX +0 +1"), "expected integer"),
        (lambda t: t.replace("H 1", "H +1"), "expected integer"),
        (lambda t: t.replace("H 1", "H 0_1"), "expected integer"),
        (lambda t: t.replace("MCX +1 -2 +5 6", "MCX 1 -2 +5 6"), "start with"),
        (lambda t: t.replace("H 0", "H 0 0"), "one qubit"),
        (lambda t: "", "empty"),
        (lambda t: t.replace("H 0", "H 9"), "outside layout"),
        (lambda t: t.replace("stage collapse\n", ""), "stages must be"),
        (lambda t: t.replace("CMEAS 7 8", "CMEAS 7 80"), "outside layout"),
        (lambda t: t.replace("n 1\n", "n 0\n"), "n >= 1"),
        (lambda t: t.replace("m 2\n", "m 0\n"), "m >= 1"),
    ],
)
def test_parse_rejects_mangled_input(mangle, message):
    text = compile_circuit(WORKED).export_text()
    with pytest.raises(CircuitFormatError, match=message):
        parse_circuit(mangle(text))


# ----------------------------------------------------------------------
# peephole


def test_peephole_collapses_full_columns():
    target = TargetState.from_polar([0.5] * 4, [0.0] * 4)
    plan = decompose(target, 2)
    assert plan.amp_ints.tolist() == [2, 2, 2, 2]
    layout = RegisterLayout(2, 2)
    triads = amplitude_triads(plan, layout, peephole=True)
    # bit 1 is set everywhere: single unconditional flip either side
    assert triads[1][0] == MCX((), layout.scratch)
    assert triads[1][-1] == MCX((), layout.scratch)
    assert len(triads[1]) == 3
    # bit 0 set nowhere: bare select that can never fire
    assert len(triads[0]) == 1


def test_peephole_preserves_the_simulation():
    target = TargetState.from_polar([0.5] * 4, [0.1, 0.2, 0.3, 0.4])
    plan = decompose(target, 2)
    plain = simulate(compile_circuit(plan))
    tight = simulate(compile_circuit(plan, peephole=True))
    assert np.max(np.abs(plain.final.amplitudes - tight.final.amplitudes)) < 1e-12
    assert abs(plain.probability - tight.probability) < 1e-15


def test_peephole_export_and_parse():
    target = TargetState.from_polar([0.5] * 4, [0.0] * 4)
    plan = decompose(target, 2)
    circuit = compile_circuit(plan, peephole=True)
    text = circuit.export_text()
    assert "\nMCX 6\n" in text  # bare X on the scratch qubit
    parsed = parse_circuit(text)
    assert parsed.export_text() == text
    assert parsed.gates == circuit.gates
    assert analyze(parsed, plan).as_dict() == analyze(circuit, plan).as_dict()
    a = simulate(circuit)
    b = simulate(parsed)
    assert np.max(np.abs(a.final.amplitudes - b.final.amplitudes)) < 1e-12
