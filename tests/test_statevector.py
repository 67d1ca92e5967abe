import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitprep import (
    MCX,
    CapacityError,
    EntanglementError,
    Hadamard,
    PhaseK,
    RegisterLayout,
    StateVector,
    align_phase,
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
    with pytest.raises(CapacityError):
        StateVector.ground(RegisterLayout(10, 10))  # 34 qubits > default 26
    with pytest.raises(CapacityError):
        StateVector.ground(RegisterLayout(1, 2), max_qubits=8)
    StateVector.ground(RegisterLayout(1, 2), max_qubits=9)


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
