import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from bitprep import (
    MCX,
    CapacityError,
    EntanglementError,
    Hadamard,
    PhaseK,
    RegisterLayout,
    StateVector,
    align_phase,
    compile_circuit,
    reconstruct,
    simulate,
)

SMALL = RegisterLayout(1, 1)  # 7 qubits, 128 amplitudes


def random_state(rng, layout):
    vec = rng.normal(size=1 << layout.total) + 1j * rng.normal(size=1 << layout.total)
    vec /= np.linalg.norm(vec)
    return StateVector.from_amplitudes(layout, vec)


def random_gate(rng, total):
    kind = int(rng.integers(4))
    target = int(rng.integers(total))
    if kind == 0:
        return Hadamard(target)
    if kind == 1:
        return PhaseK(target, int(rng.integers(1, 7)))
    if kind == 2:
        return MCX((), target)
    others = [q for q in range(total) if q != target]
    count = int(rng.integers(0, 4))
    picked = rng.choice(others, size=count, replace=False)
    return MCX(tuple((int(q), int(rng.integers(2))) for q in picked), target)


def dense_unitary(total, gate):
    """Brute-force matrix for a gate, built independently of the simulator."""
    dim = 1 << total
    mat = np.zeros((dim, dim), dtype=np.complex128)
    half = 2.0 ** -0.5
    for basis in range(dim):
        if isinstance(gate, Hadamard):
            pos = total - 1 - gate.target
            mask = 1 << pos
            mat[basis & ~mask, basis] = half
            mat[basis | mask, basis] = half if not basis & mask else -half
        elif isinstance(gate, PhaseK):
            pos = total - 1 - gate.target
            hit = (basis >> pos) & 1
            mat[basis, basis] = np.exp(2j * np.pi / (1 << gate.k)) if hit else 1.0
        else:
            matched = all(
                ((basis >> (total - 1 - q)) & 1) == bit for q, bit in gate.controls
            )
            mask = 1 << (total - 1 - gate.target)
            mat[basis ^ mask if matched else basis, basis] = 1.0
    return mat


def inverse_sequence(gate):
    """Gates undoing ``gate``; PhaseK composes with itself 2**k - 1 times."""
    if isinstance(gate, PhaseK):
        return [gate] * ((1 << gate.k) - 1)
    return [gate]


# ----------------------------------------------------------------------
# construction


def test_ground_state_n1_m2():
    state = StateVector.ground(RegisterLayout(1, 2))
    assert state.amplitudes.shape == (2 ** 9,)
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_ground_state_n2_m2_normalized():
    state = StateVector.ground(RegisterLayout(2, 2))
    assert state.amplitudes.shape == (2 ** 10,)
    assert np.isclose(state.norm(), 1.0)


def test_ground_respects_capacity_cap():
    # width 34: the ground state is all factors, so nothing large is allocated
    assert StateVector.ground(RegisterLayout(10, 10)).norm() == 1.0
    # widths 59 and 65: numpy cannot allocate them, and none is tried
    for m in (27, 30):
        with pytest.raises(CapacityError, match="numpy"):
            StateVector.ground(RegisterLayout(1, m))


def test_from_amplitudes_checks_length():
    with pytest.raises(ValueError):
        StateVector.from_amplitudes(SMALL, np.ones(4))


def test_hadamard_everywhere_gives_uniform_amplitudes():
    layout = RegisterLayout(1, 2)
    state = StateVector.ground(layout)
    for q in range(layout.total):
        state.apply(Hadamard(q))
    assert np.allclose(state.amplitudes, 2.0 ** -4.5, atol=1e-12)


# ----------------------------------------------------------------------
# single-gate semantics


def test_hadamard_on_ground_splits_evenly():
    state = StateVector.ground(SMALL).apply(Hadamard(0))
    pos = SMALL.bit_position(0)
    assert np.isclose(state.amplitudes[0], 2 ** -0.5)
    assert np.isclose(state.amplitudes[1 << pos], 2 ** -0.5)
    assert np.count_nonzero(state.amplitudes) == 2


def test_phase_k1_negates_excited_component():
    state = StateVector.ground(SMALL).apply(MCX((), 3)).apply(PhaseK(3, 1))
    index = 1 << SMALL.bit_position(3)
    assert np.isclose(state.amplitudes[index], -1.0)


def test_phase_k2_multiplies_by_i():
    state = StateVector.ground(SMALL).apply(MCX((), 3)).apply(PhaseK(3, 2))
    index = 1 << SMALL.bit_position(3)
    assert np.isclose(state.amplitudes[index], 1j)


def test_mcx_truth_table():
    gate = MCX(((0, 1), (1, 0)), 2)
    # |100...>: controls match, target flips
    state = StateVector.ground(SMALL).apply(MCX((), 0))
    before = int(np.argmax(np.abs(state.amplitudes)))
    state.apply(gate)
    after = int(np.argmax(np.abs(state.amplitudes)))
    assert after == before | (1 << SMALL.bit_position(2))
    # |110...>: negative control unmet, state unchanged
    state = StateVector.ground(SMALL).apply(MCX((), 0)).apply(MCX((), 1))
    reference = state.amplitudes.copy()
    state.apply(gate)
    assert np.array_equal(state.amplitudes, reference)


def test_mcx_with_no_controls_acts_as_pauli_x():
    rng = np.random.default_rng(7)
    a = random_state(rng, SMALL)
    # plain X: amplitude of basis index i moves to i ^ mask
    b = a.amplitudes[np.arange(1 << SMALL.total) ^ (1 << SMALL.bit_position(4))]
    a.apply(MCX((), 4))
    assert np.allclose(a.amplitudes, b, atol=1e-15)


def test_apply_rejects_out_of_range_qubit():
    state = StateVector.ground(SMALL)
    with pytest.raises(ValueError):
        state.apply(Hadamard(SMALL.total))


# ----------------------------------------------------------------------
# gate properties against the brute-force matrix


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_apply_matches_dense_matrix(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, SMALL)
    gate = random_gate(rng, SMALL.total)
    expected = dense_unitary(SMALL.total, gate) @ state.amplitudes
    state.apply(gate)
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_gate_then_inverse_is_identity(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, SMALL)
    reference = state.amplitudes.copy()
    gate = random_gate(rng, SMALL.total)
    state.apply(gate)
    for undo in inverse_sequence(gate):
        state.apply(undo)
    assert np.max(np.abs(state.amplitudes - reference)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_gates_preserve_norm(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, SMALL)
    for _ in range(5):
        state.apply(random_gate(rng, SMALL.total))
    assert abs(state.norm() - 1.0) < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_mcx_is_linear(seed):
    rng = np.random.default_rng(seed)
    x = random_state(rng, SMALL)
    y = random_state(rng, SMALL)
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    gate = random_gate(rng, SMALL.total)
    while not isinstance(gate, MCX):
        gate = random_gate(rng, SMALL.total)
    mixed = StateVector.from_amplitudes(SMALL, a * x.amplitudes + b * y.amplitudes)
    mixed.apply(gate)
    x.apply(gate)
    y.apply(gate)
    assert np.max(np.abs(mixed.amplitudes - (a * x.amplitudes + b * y.amplitudes))) < 1e-12


# ----------------------------------------------------------------------
# projector terms


def test_projector_single_term_entangles():
    layout = SMALL
    state = StateVector.ground(layout).apply(Hadamard(0))
    state.apply_projector_terms([(((0, 1),), (layout.scratch,))])
    zero = layout.index_of([(q, 0) for q in range(layout.total)])
    one = layout.index_of(
        [(0, 1), (layout.scratch, 1)] + [(q, 0) for q in range(layout.total) if q not in (0, layout.scratch)]
    )
    assert np.isclose(state.amplitudes[zero], 2 ** -0.5)
    assert np.isclose(state.amplitudes[one], 2 ** -0.5)
    assert np.count_nonzero(state.amplitudes) == 2


def test_projector_empty_pattern_is_unconditional():
    rng = np.random.default_rng(3)
    a = random_state(rng, SMALL)
    b = a.copy()
    a.apply_projector_terms([((), (2,))])
    b.apply(MCX((), 2))
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-15)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_projector_terms_match_equivalent_mcx_sequence(seed):
    rng = np.random.default_rng(seed)
    a = random_state(rng, SMALL)
    b = a.copy()
    # three orthogonal patterns on qubits (0, 1, 2), plus distinct targets
    patterns = [((0, 0), (1, 0)), ((0, 0), (1, 1), (2, 0)), ((0, 1), (2, 1))]
    targets = [3, 4, 5]
    a.apply_projector_terms(list(zip(patterns, [(t,) for t in targets])))
    for pattern, target in zip(patterns, targets):
        b.apply(MCX(pattern, target))
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_projector_multi_target_flips_both():
    layout = SMALL
    state = StateVector.ground(layout)
    state.apply_projector_terms([(((0, 0),), (layout.flag, layout.meter))])
    expected = layout.index_of(
        [(layout.flag, 1), (layout.meter, 1)]
        + [(q, 0) for q in range(layout.total) if q not in (layout.flag, layout.meter)]
    )
    assert state.amplitudes[expected] == 1.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_projector_multi_target_matches_index_permutation(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, SMALL)
    before = state.amplitudes.copy()
    qubits = [int(q) for q in rng.choice(SMALL.total, size=5, replace=False)]
    # two orthogonal terms on a shared pattern qubit, up to two targets each
    shared, lone, extra, first, second = qubits
    terms = [
        (((shared, 0), (lone, int(rng.integers(2)))), (first, second)),
        (((shared, 1),), (extra, first) if rng.integers(2) else (lone,)),
    ]
    state.apply_projector_terms(terms)
    # explicit reference: each matching basis index i moves to i ^ mask
    indices = np.arange(1 << SMALL.total)
    expected = before.copy()
    for pattern, targets in terms:
        match = np.ones(1 << SMALL.total, dtype=bool)
        for qubit, bit in pattern:
            match &= ((indices >> SMALL.bit_position(qubit)) & 1) == bit
        flip = sum(1 << SMALL.bit_position(q) for q in targets)
        expected[indices[match] ^ flip] = before[match]
    assert np.array_equal(state.amplitudes, expected)


def test_projector_rejects_identical_patterns():
    state = StateVector.ground(SMALL)
    with pytest.raises(ValueError):
        state.apply_projector_terms([(((0, 1),), (1,)), (((0, 1),), (2,))])


def test_projector_rejects_overlapping_nonorthogonal_patterns():
    state = StateVector.ground(SMALL)
    # {q0=1} and {q1=0} both match |10...>, without sharing a qubit
    with pytest.raises(ValueError):
        state.apply_projector_terms([(((0, 1),), (2,)), (((1, 0),), (3,))])


def test_projector_rejects_empty_pattern_next_to_others():
    state = StateVector.ground(SMALL)
    with pytest.raises(ValueError):
        state.apply_projector_terms([((), (2,)), (((0, 1),), (3,))])


def test_projector_rejects_target_inside_own_pattern():
    state = StateVector.ground(SMALL)
    with pytest.raises(ValueError):
        state.apply_projector_terms([(((0, 1), (1, 0)), (1,))])


# ----------------------------------------------------------------------
# post-selection


def bell_state():
    # (|00> + |11>)/sqrt(2) on qubits 0 and 1 of the small layout
    layout = SMALL
    vec = np.zeros(1 << layout.total, dtype=complex)
    vec[layout.index_of([(q, 0) for q in range(layout.total)])] = 2 ** -0.5
    vec[layout.index_of(
        [(0, 1), (1, 1)] + [(q, 0) for q in range(layout.total) if q > 1]
    )] = 2 ** -0.5
    return StateVector.from_amplitudes(layout, vec)


def test_postselect_bell_half_probability():
    state = bell_state()
    kept, probability = state.postselect([(1, 1)])
    assert np.isclose(probability, 0.5)
    survivor = SMALL.index_of(
        [(0, 1), (1, 1)] + [(q, 0) for q in range(SMALL.total) if q > 1]
    )
    assert np.isclose(kept.amplitudes[survivor], 1.0)
    assert np.isclose(kept.norm(), 1.0)


def test_postselect_full_support_is_identity():
    rng = np.random.default_rng(11)
    state = StateVector.ground(SMALL).apply(Hadamard(2))
    kept, probability = state.postselect([(0, 0)])
    assert np.isclose(probability, 1.0)
    assert np.allclose(kept.amplitudes, state.amplitudes, atol=1e-15)


def test_postselect_no_support_fails_loudly():
    state = StateVector.ground(SMALL)
    with pytest.raises(ValueError):
        state.postselect([(0, 1)])


def test_postselect_requires_pattern():
    with pytest.raises(ValueError):
        StateVector.ground(SMALL).postselect([])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_postselect_probability_equals_direct_sum(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, SMALL)
    qubits = rng.choice(SMALL.total, size=int(rng.integers(1, 4)), replace=False)
    pattern = [(int(q), int(rng.integers(2))) for q in qubits]
    before = state.amplitudes.copy()
    kept, probability = state.postselect(pattern)
    # independent summation over basis indices
    indices = np.arange(1 << SMALL.total)
    mask = np.ones(1 << SMALL.total, dtype=bool)
    for qubit, bit in pattern:
        mask &= ((indices >> SMALL.bit_position(qubit)) & 1) == bit
    direct = float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
    assert abs(probability - direct) < 1e-12
    assert abs(state.probability(pattern) - direct) < 1e-12
    expected = np.where(mask, state.amplitudes, 0.0) / np.sqrt(direct)
    assert np.max(np.abs(kept.amplitudes - expected)) < 1e-12
    assert np.array_equal(state.amplitudes, before)


# ----------------------------------------------------------------------
# subsystem extraction


def test_extract_product_qubit():
    state = StateVector.ground(SMALL).apply(MCX((), 3))
    vec = state.extract([3])
    assert np.allclose(np.abs(vec), [0.0, 1.0], atol=1e-12)


def test_extract_respects_qubit_order():
    state = StateVector.ground(SMALL).apply(MCX((), 0))
    # qubit 0 excited: listed first it is the MSB, listed second the LSB
    lead = state.extract([0, 1])
    trail = state.extract([1, 0])
    assert np.allclose(np.abs(lead), [0, 0, 1, 0], atol=1e-12)
    assert np.allclose(np.abs(trail), [0, 1, 0, 0], atol=1e-12)


def test_extract_detects_entanglement():
    state = bell_state()
    with pytest.raises(EntanglementError):
        state.extract([0])
    # jointly the pair is unentangled from the rest
    vec = state.extract([0, 1])
    assert np.allclose(np.abs(vec), [2 ** -0.5, 0, 0, 2 ** -0.5], atol=1e-12)


def test_extract_validates_input():
    state = StateVector.ground(SMALL)
    with pytest.raises(ValueError):
        state.extract([])
    with pytest.raises(ValueError):
        state.extract([0, 0])
    with pytest.raises(ValueError):
        state.extract([SMALL.total])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    layout=st.sampled_from([RegisterLayout(1, 1), RegisterLayout(2, 1)]),
    picks=st.integers(1, 3),
    size_exp=st.floats(-9.0, -1.0),
    tol_exp=st.floats(-14.0, -2.0),
)
def test_extract_matches_gram_eigh_reference(seed, layout, picks, size_exp, tol_exp):
    # a product of the picked qubits and the rest, plus an entangling perturbation
    rng = np.random.default_rng(seed)
    picked = [int(q) for q in rng.permutation(layout.total)[:picks]]
    rest = [q for q in range(layout.total) if q not in picked]

    def unit(*shape):
        vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return vec / np.linalg.norm(vec)

    matrix = np.outer(unit(1 << picks), unit(1 << len(rest)))
    matrix += 10.0 ** size_exp * unit(1 << picks, 1 << len(rest))
    vec = matrix[util.subsystem_values(layout, picked), util.subsystem_values(layout, rest)]
    state = StateVector.from_amplitudes(layout, vec / np.linalg.norm(vec))
    tol = 10.0 ** tol_exp

    residual, top = util.gram_top_eigenpair(state, picked)
    if residual > tol:
        with pytest.raises(EntanglementError):
            state.extract(picked, tol=tol)
    else:
        extracted = state.extract(picked, tol=tol)
        assert abs(np.vdot(top, extracted)) ** 2 >= 1.0 - 1e-12


def count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_extract_falls_back_when_the_bound_fails(monkeypatch):
    # qubit 0 is |0> spread evenly over the 64 rest values, plus a faint |1>
    # on one of them: that column is the heaviest but leans towards |1>
    matrix = np.zeros((2, 64), dtype=np.complex128)
    matrix[0, :] = 1.0 / 8.0
    matrix[1, 5] = 5e-4
    vec = matrix[util.subsystem_values(SMALL, [0]), util.subsystem_values(SMALL, range(1, 7))]
    state = StateVector.from_amplitudes(SMALL, vec / np.linalg.norm(vec))
    tol = 1e-6
    weights = np.sum(np.abs(matrix) ** 2, axis=0)
    heaviest = matrix[:, np.argmax(weights)] / np.sqrt(weights.max())
    bound = 1.0 - np.sum(np.abs(heaviest.conj() @ matrix) ** 2) / weights.sum()
    residual, top = util.gram_top_eigenpair(state, [0])
    assert residual <= tol < bound

    calls = count_eigh(monkeypatch)
    extracted = state.extract([0], tol=tol)
    assert len(calls) == 1
    assert abs(np.vdot(top, extracted)) ** 2 >= 1.0 - 1e-12


def test_extract_skips_eigh_on_a_compiled_final_state(monkeypatch):
    plan = util.random_plan(np.random.default_rng(33), 3, 3)
    run = simulate(compile_circuit(plan))
    calls = count_eigh(monkeypatch)
    extracted = run.final.extract(RegisterLayout(3, 3).system)
    assert calls == []
    expected = reconstruct(plan).amplitudes
    assert abs(np.vdot(expected, extracted)) ** 2 >= 1.0 - 1e-12


# ----------------------------------------------------------------------
# factored and merged qubits


def basis_mask(layout, qubit, bit):
    indices = np.arange(1 << layout.total)
    return ((indices >> layout.bit_position(qubit)) & 1) == bit


def operations(total):
    """Gates, single-qubit post-selections and copies on a register of ``total`` qubits."""
    qubit = st.integers(0, total - 1)
    mcx = st.lists(qubit, min_size=1, max_size=4, unique=True).flatmap(
        lambda qubits: st.lists(
            st.integers(0, 1), min_size=len(qubits) - 1, max_size=len(qubits) - 1
        ).map(lambda bits: MCX(tuple(zip(qubits[1:], bits)), qubits[0]))
    )
    return st.one_of(
        st.builds(Hadamard, qubit),
        st.builds(PhaseK, qubit, st.integers(1, 6)),
        mcx,
        st.tuples(st.just("postselect"), qubit, st.integers(0, 1)),
        st.just("copy"),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_factored_and_merged_qubits_match_dense_reference(data):
    layout = data.draw(st.sampled_from([RegisterLayout(1, 1), RegisterLayout(2, 1)]))
    total = layout.total
    state = StateVector.ground(layout)
    reference = np.zeros(1 << total, dtype=np.complex128)
    reference[0] = 1.0
    snapshots = []  # (earlier state, its amplitudes when left behind)
    for op in data.draw(st.lists(operations(total), max_size=14)):
        if op == "copy":
            snapshots.append((state, state.amplitudes.copy()))
            state = state.copy()
        elif isinstance(op, tuple):
            _, qubit, bit = op
            mask = basis_mask(layout, qubit, bit)
            weight = float(np.sum(np.abs(reference[mask]) ** 2))
            # renormalizing a faint branch magnifies rounding in any kernel
            if weight < 1e-2:
                continue
            source, before = state, state.amplitudes.copy()
            state, probability = source.postselect([(qubit, bit)])
            assert abs(probability - weight) < 1e-12
            assert np.array_equal(source.amplitudes, before)
            reference = np.where(mask, reference, 0.0) / np.sqrt(weight)
        else:
            state.apply(op)
            reference = dense_unitary(total, op) @ reference
            assert abs(state.norm() - 1.0) < 1e-12
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-12
    for earlier, amplitudes in snapshots:
        assert np.array_equal(earlier.amplitudes, amplitudes)


def mixed_state():
    """Qubits 0 and 1 merged into a Bell pair; 3 in |+>, 5 in (|0> + i|1>)/sqrt(2)
    and the rest in |0>, all still factored."""
    state = StateVector.ground(SMALL).apply(Hadamard(0)).apply(MCX(((0, 1),), 1))
    return state.apply(Hadamard(3)).apply(Hadamard(5)).apply(PhaseK(5, 2))


def test_amplitudes_are_read_only():
    for state in (mixed_state(), bell_state()):
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


def test_writing_to_a_copy_leaves_the_original():
    original = mixed_state()
    before = original.amplitudes.copy()
    duplicate = original.copy()
    # one gate on a factored qubit, one on the core, one merging both
    duplicate.apply(Hadamard(3)).apply(PhaseK(0, 1)).apply(MCX(((5, 1),), 1))
    duplicate.apply_projector_terms([(((4, 0),), (6,))])
    assert np.array_equal(original.amplitudes, before)
    assert np.max(np.abs(duplicate.amplitudes - before)) > 0.1


def test_probability_on_factored_and_merged_qubits():
    state = mixed_state()
    dense = StateVector.from_amplitudes(SMALL, state.amplitudes)
    patterns = (
        [(3, 1)],
        [(4, 1)],
        [(0, 1), (1, 1)],
        [(0, 1), (1, 0)],
        [(1, 0), (3, 1), (5, 0)],
    )
    for pattern, expected in zip(patterns, (0.5, 0.0, 0.5, 0.0, 0.125)):
        assert abs(state.probability(pattern) - expected) < 1e-12
        assert abs(dense.probability(pattern) - expected) < 1e-12


def test_extract_reads_factored_qubits():
    state = mixed_state()
    half = 2 ** -0.5
    plus, rotated = np.array([half, half]), np.array([half, 1j * half])
    # a picked qubit that is still factored, alone and next to the core
    assert np.max(np.abs(align_phase(state.extract([5]), rotated) - rotated)) < 1e-12
    bell = np.array([half, 0, 0, half])
    for picked, expected in (
        ([0, 1, 3], np.kron(bell, plus)),
        ([3, 0, 1], np.kron(plus, bell)),  # the first named qubit is the MSB
        ([5, 3], np.kron(rotated, plus)),
    ):
        vec = state.extract(picked)
        assert np.max(np.abs(align_phase(vec, expected) - expected)) < 1e-12
    # half of the merged Bell pair stays entangled with the other half
    for picked in ([0], [1, 3], [5, 1]):
        with pytest.raises(EntanglementError):
            state.extract(picked)
    # extraction merges nothing into the state it reads
    assert np.array_equal(state.amplitudes, mixed_state().amplitudes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_amplitudes_at_matches_the_full_vector(data):
    layout = data.draw(st.sampled_from([RegisterLayout(1, 1), RegisterLayout(2, 1)]))
    total = layout.total
    # qubits 0 and 1 merged, 3 a factor in |+>, the rest |0> factors
    state = StateVector.ground(layout).apply(Hadamard(0)).apply(MCX(((0, 1),), 1))
    state.apply(Hadamard(3))
    for op in data.draw(st.lists(operations(total), min_size=4, max_size=12)):
        if op == "copy":
            state = state.copy()
        elif isinstance(op, tuple):
            _, qubit, bit = op
            if state.probability([(qubit, bit)]) >= 1e-2:
                state, _ = state.postselect([(qubit, bit)])
        else:
            state.apply(op)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    indices = rng.integers(0, 1 << total, size=int(rng.integers(0, 65)))
    gathered = state.amplitudes_at(indices)
    assert gathered.shape == indices.shape
    assert np.max(np.abs(gathered - state.amplitudes[indices]), initial=0.0) <= 1e-15


def test_amplitudes_at_rejects_indices_outside_the_register():
    state = mixed_state()
    for indices in ([-1], [0, 1 << SMALL.total]):
        with pytest.raises(ValueError):
            state.amplitudes_at(np.array(indices, dtype=np.int64))


def test_postselect_on_factored_and_core_qubits():
    for pattern, expected in (([(5, 1)], 0.5), ([(0, 1)], 0.5), ([(1, 0), (3, 1)], 0.25)):
        state = mixed_state()
        before = state.amplitudes.copy()
        kept, probability = state.postselect(pattern)
        assert abs(probability - expected) < 1e-12
        assert np.array_equal(state.amplitudes, before)
        mask = np.ones(1 << SMALL.total, dtype=bool)
        for qubit, bit in pattern:
            mask &= basis_mask(SMALL, qubit, bit)
        reference = np.where(mask, before, 0.0) / np.sqrt(expected)
        assert np.max(np.abs(kept.amplitudes - reference)) < 1e-12
        assert abs(kept.norm() - 1.0) < 1e-12


def test_product_matches_kron():
    half = 2 ** -0.5
    # qubit 2's factor is left unnormalized: the norm and branch weights keep it
    factors = {1: (half, half), 2: (1.0, 1.0), 4: (0.6, 0.8j), 6: (0.0, 1.0)}
    state = StateVector.product(SMALL, factors)
    expected = np.ones(1)
    for qubit in range(SMALL.total):
        expected = np.kron(expected, factors.get(qubit, (1.0, 0.0)))
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-15
    assert abs(state.norm() - np.linalg.norm(expected)) < 1e-12
    for pattern in ([(0, 0)], [(2, 1), (4, 1)], [(6, 0)]):
        mask = np.ones(1 << SMALL.total, dtype=bool)
        for qubit, bit in pattern:
            mask &= basis_mask(SMALL, qubit, bit)
        direct = float(np.sum(np.abs(expected[mask]) ** 2))
        assert abs(state.probability(pattern) - direct) < 1e-12
    for bad in ({SMALL.total: (1, 0)}, {0: (1, 0, 0)}, {0: (0, 0)}):
        with pytest.raises(ValueError):
            StateVector.product(SMALL, bad)


# ----------------------------------------------------------------------
# phase alignment


def test_align_phase_removes_global_phase():
    rng = np.random.default_rng(5)
    reference = rng.normal(size=8) + 1j * rng.normal(size=8)
    reference /= np.linalg.norm(reference)
    rotated = reference * np.exp(1j * 1.234)
    aligned = align_phase(rotated, reference)
    assert np.max(np.abs(aligned - reference)) < 1e-12


def test_align_phase_handles_zero_pivot():
    reference = np.array([1.0, 0.0])
    vector = np.array([0.0, 1.0])
    assert np.array_equal(align_phase(vector, reference), vector)
