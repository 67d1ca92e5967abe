import functools

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
from bitprep.statevector import _KETS, _Block

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
    zero = util.index_of(layout, [(q, 0) for q in range(layout.total)])
    one = util.index_of(
        layout,
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
    expected = util.index_of(
        layout,
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


def test_pattern_bits_may_be_bools():
    # a bool bit means 0 or 1, never a numpy mask
    state = StateVector.ground(SMALL).apply(Hadamard(0)).apply(Hadamard(1))
    flagged = state.copy().apply_projector_terms([(((0, True),), (2,))])
    plain = state.copy().apply_projector_terms([(((0, 1),), (2,))])
    assert np.array_equal(flagged.amplitudes, plain.amplitudes)
    assert state.probability([(0, np.True_), (1, False)]) == state.probability([(0, 1), (1, 0)])
    kept, _ = state.postselect([(0, True)])
    assert np.array_equal(kept.amplitudes, state.postselect([(0, 1)])[0].amplitudes)


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


OVERLAP_COVERAGE = set()  # outcomes and term-set shapes met by every example


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def check_overlap_against_pairwise_reference(data):
    # patterns on a few qubit sets, each later one maybe a copy of an
    # earlier one: a duplicate, one with a qubit dropped or added, or a near
    # miss with one bit flipped and maybe another qubit dropped or added
    total = SMALL.total
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    sets = [rng.choice(total, size=int(rng.integers(0, 4)), replace=False) for _ in range(3)]
    patterns, moves = [], set()
    for _ in range(data.draw(st.integers(1, 6))):
        move = str(rng.choice(["fresh", "duplicate", "near miss", "drop", "add"])) if patterns else "fresh"
        if move == "fresh":
            pattern = {int(q): int(rng.integers(2)) for q in sets[int(rng.integers(3))]}
        else:
            pattern = dict(patterns[int(rng.integers(len(patterns)))])
            kept = list(pattern)
            if move == "near miss" and kept:
                moves.add(move)
                pattern[kept.pop(int(rng.integers(len(kept))))] ^= 1
                move = str(rng.choice(["", "drop", "add"]))
            if move == "drop" and kept:
                del pattern[kept[int(rng.integers(len(kept)))]]
            elif move == "add" and len(pattern) < total:
                pattern[int(rng.choice([q for q in range(total) if q not in pattern]))] = int(rng.integers(2))
        patterns.append(pattern)
    terms = []
    for pattern in patterns:
        items = list(pattern.items())
        rng.shuffle(items)  # the check must not depend on the order of a pattern
        terms.append((tuple(items), ()))
    expected = util.pairwise_overlap(patterns)
    state = StateVector.ground(SMALL)
    if expected:
        with pytest.raises(ValueError, match="overlap"):
            state.apply_projector_terms(terms)
    else:
        state.apply_projector_terms(terms)
    keyed = {frozenset(pattern.items()) for pattern in patterns}
    sets = {frozenset(pattern) for pattern in patterns}
    if not expected:
        OVERLAP_COVERAGE.add("accepted")
        if len(sets) > 1:
            OVERLAP_COVERAGE.add("accepted over several qubit sets")
        if "near miss" in moves:
            OVERLAP_COVERAGE.add("near miss accepted")
    elif len(keyed) < len(patterns):
        OVERLAP_COVERAGE.add("duplicate")
    else:  # distinct patterns on one qubit set never overlap
        OVERLAP_COVERAGE.add("overlap across qubit sets")
    if patterns == [{}]:
        OVERLAP_COVERAGE.add("empty pattern alone")
    elif {} in patterns:
        OVERLAP_COVERAGE.add("empty pattern next to others")


def test_overlap_check_matches_pairwise_reference():
    OVERLAP_COVERAGE.clear()
    check_overlap_against_pairwise_reference()
    assert OVERLAP_COVERAGE >= {
        "accepted",
        "accepted over several qubit sets",
        "near miss accepted",
        "duplicate",
        "overlap across qubit sets",
        "empty pattern alone",
        "empty pattern next to others",
    }


# ----------------------------------------------------------------------
# post-selection


def bell_state():
    # (|00> + |11>)/sqrt(2) on qubits 0 and 1 of the small layout
    layout = SMALL
    vec = np.zeros(1 << layout.total, dtype=complex)
    vec[util.index_of(layout, [(q, 0) for q in range(layout.total)])] = 2 ** -0.5
    vec[util.index_of(
        layout,
        [(0, 1), (1, 1)] + [(q, 0) for q in range(layout.total) if q > 1]
    )] = 2 ** -0.5
    return StateVector.from_amplitudes(layout, vec)


def test_postselect_bell_half_probability():
    state = bell_state()
    kept, probability = state.postselect([(1, 1)])
    assert np.isclose(probability, 0.5)
    survivor = util.index_of(
        SMALL,
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
    # a qubit that is not an integer is never truncated to one
    for qubits in ([1.7], [0, 2.0], [np.float64(1.0)]):
        with pytest.raises(TypeError):
            state.extract(qubits)


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


def test_extract_skips_eigh_on_a_compiled_final_state(monkeypatch):
    plan = util.random_plan(np.random.default_rng(33), 3, 3)
    run = simulate(compile_circuit(plan))
    calls = count_eigh(monkeypatch)
    extracted = run.final.extract(RegisterLayout(3, 3).system)
    assert calls == []
    expected = reconstruct(plan).amplitudes
    assert abs(np.vdot(expected, extracted)) ** 2 >= 1.0 - 1e-12


def test_label_stage_leaves_two_blocks():
    # the second label gate's slice lies inside the slice the first one
    # recorded for zeroing, so it moves nothing: no all-zero third block
    plan = util.random_plan(np.random.default_rng(33), 3, 3)
    blocks = {}
    simulate(compile_circuit(plan), on_stage=lambda name, state: blocks.setdefault(name, len(state._stored)))
    assert blocks["label"] == 2


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


def check_every_merge_pattern(total):
    """Merge every factor into a block whose core holds any subset of
    ``total`` qubits, so core and factored axes interleave in every
    pattern: the result must be bytewise the broadcast with one axis per
    qubit.  Core entries are small Gaussian integers and factor entries
    small positive integers, so every product is exact, whatever the
    order the factors are multiplied in, and no product is a signed zero."""
    rng = np.random.default_rng(total)
    for mask in range(1 << total):
        core = tuple(q for q in range(total) if mask >> (total - 1 - q) & 1)
        factors = {q: rng.integers(1, 4, 2) + 0j for q in range(total) if q not in core}
        shape = (2,) * len(core)
        values = rng.choice([-3, -2, -1, 1, 2, 3], (2, *shape))
        block = _Block(np.asarray(values[0] + 1j * values[1]), core, dict(factors))
        axes, merged = block.merged(range(total))
        joint = functools.reduce(np.multiply.outer, factors.values(), np.ones(()))
        expected = np.multiply(
            block.core.reshape([2 if q in core else 1 for q in range(total)]),
            joint.reshape([1 if q in core else 2 for q in range(total)]),
        )
        assert axes == tuple(range(total))
        assert merged.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_factored_and_merged_qubits_match_dense_reference(data):
    layout = data.draw(st.sampled_from([RegisterLayout(1, 1), RegisterLayout(2, 1), "every merge"]))
    if layout == "every merge":  # drawn once: it draws nothing more
        check_every_merge_pattern(8)
        return
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
    # an index that is not an integer is never truncated to one
    for indices in ([32.9], [0, 1.0], np.array([True, False])):
        with pytest.raises(TypeError):
            state.amplitudes_at(indices)
    # an empty list is float64 to numpy, yet reads nothing
    assert state.amplitudes_at([]).shape == (0,)
    assert np.array_equal(state.amplitudes_at([32, 5]), state.amplitudes[[32, 5]])


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
# keyed blocks


def reference_apply(total, gate, vec):
    """A gate on a full vector by index arithmetic, built independently of
    the simulator: what ``dense_unitary(total, gate) @ vec`` gives, without
    the matrix."""
    indices = np.arange(1 << total)
    mask = 1 << (total - 1 - gate.target)
    hit = (indices & mask) != 0
    if isinstance(gate, Hadamard):
        partner = vec[indices ^ mask]
        return np.where(hit, partner - vec, vec + partner) * 2.0 ** -0.5
    if isinstance(gate, PhaseK):
        return np.where(hit, vec * np.exp(2j * np.pi / (1 << gate.k)), vec)
    matched = np.ones(1 << total, dtype=bool)
    for qubit, bit in gate.controls:
        matched &= ((indices >> (total - 1 - qubit)) & 1) == bit
    return vec[np.where(matched, indices ^ mask, indices)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reference_apply_matches_dense_unitary(seed):
    rng = np.random.default_rng(seed)
    vec = random_state(rng, SMALL).amplitudes
    gate = random_gate(rng, SMALL.total)
    expected = dense_unitary(SMALL.total, gate) @ vec
    assert np.max(np.abs(reference_apply(SMALL.total, gate, vec) - expected)) < 1e-15


def factored_everywhere(state, qubits):
    """The qubits that are a factor, not a core axis, in every block."""
    return [q for q in qubits if all(q not in block.axes for block in state._blocks)]


def block_step(rng, state, total):
    """One operation aimed at the block machinery: splits, gates on and
    controlled by key qubits, other gates, post-selection, probability
    and copies."""
    keys = sorted(util.key_qubits(state))
    kind = rng.choice(
        ["split", "split", "on key", "key control", "gate", "postselect", "probability", "copy"]
    )
    if kind == "split":
        core = sorted(state._blocks[0].axes)
        targets = factored_everywhere(state, range(total))
        if core and targets:
            controls = rng.choice(core, size=min(len(core), int(rng.integers(1, 3))), replace=False)
            pattern = tuple((int(q), int(rng.integers(2))) for q in controls)
            return MCX(pattern, int(rng.choice(targets)))
        kind = "gate"
    if kind == "on key" and keys:
        target = int(rng.choice(keys))
        control = int(rng.choice([q for q in range(total) if q != target]))
        gates = (Hadamard(target), PhaseK(target, int(rng.integers(1, 7))))
        gates += (MCX(((control, 1),), target),)
        return gates[int(rng.integers(3))]
    if kind == "key control" and keys:
        control = int(rng.choice(keys))
        target = int(rng.choice([q for q in range(total) if q != control]))
        return MCX(((control, int(rng.integers(2))),), target)
    if kind in ("postselect", "probability"):
        qubit = int(rng.choice(keys)) if keys and rng.integers(2) else int(rng.integers(total))
        return str(kind), qubit, int(rng.integers(2))
    if kind == "copy":
        return "copy"
    return random_gate(rng, total)


BLOCK_STEPS = []  # per step of every example: whether it ended with several blocks


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    layout=st.sampled_from([RegisterLayout(1, 1), RegisterLayout(2, 1)]),
)
def check_blocks_against_dense_reference(seed, layout):
    rng = np.random.default_rng(seed)
    total = layout.total
    indices = np.arange(1 << total)
    ones = [basis_mask(layout, qubit, 1) for qubit in range(total)]
    # qubits 0-2 merged into the core, 3 a factor in |+>, the rest |0> factors
    state = StateVector.ground(layout)
    for gate in (Hadamard(0), Hadamard(1), MCX(((0, 1),), 2), MCX(((1, 1),), 0), Hadamard(3)):
        state.apply(gate)
    reference = state.amplitudes.copy()
    snapshots = []  # (earlier state, its amplitudes when left behind)
    for _ in range(int(rng.integers(4, 15))):
        op = block_step(rng, state, total)
        before = state.copy()
        if op == "copy":
            snapshots.append((state, state.amplitudes.copy()))
            state = state.copy()
        elif isinstance(op, tuple):
            kind, qubit, bit = op
            mask = basis_mask(layout, qubit, bit)
            weight = float(np.sum(np.abs(reference[mask]) ** 2))
            assert abs(state.probability([(qubit, bit)]) - weight) < 1e-12
            # renormalizing a faint branch magnifies rounding in any kernel
            if kind == "probability" or weight < 1e-2:
                continue
            source, kept = state, state.amplitudes.copy()
            state, probability = source.postselect([(qubit, bit)])
            assert abs(probability - weight) < 1e-12
            snapshots.append((source, kept))
            reference = np.where(mask, reference, 0.0) / np.sqrt(weight)
        else:
            previous = reference
            state.apply(op)
            reference = reference_apply(total, op, reference)
            expected = float(np.max(np.abs(reference - previous)))
            assert abs(state.max_difference(before) - expected) < 1e-12
        BLOCK_STEPS.append(len(state._blocks) > 1)
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-12
        assert np.max(np.abs(state.amplitudes_at(indices) - reference)) < 1e-12
        assert abs(state.norm() - np.linalg.norm(reference)) < 1e-12
        # block weights add only while blocks keep disjoint support
        for key in (None, *sorted(util.key_qubits(state))):
            for qubit in range(total):
                pattern = {qubit: 1} if key is None else {key: 1, qubit: 1}
                mask = np.logical_and.reduce([ones[q] for q in pattern])
                weight = float(np.sum(np.abs(reference[mask]) ** 2))
                assert abs(state.probability(pattern.items()) - weight) < 1e-12
        dense = StateVector.from_amplitudes(layout, reference)
        assert state.max_difference(dense) < 1e-12
    for earlier, amplitudes in snapshots:
        assert np.array_equal(earlier.amplitudes, amplitudes)


def test_blocks_match_dense_reference():
    BLOCK_STEPS.clear()
    check_blocks_against_dense_reference()
    # the steps must really exercise several blocks, not only the single-block path
    assert sum(BLOCK_STEPS) >= len(BLOCK_STEPS) // 5


def test_gate_on_a_key_qubit_merges_blocks_back():
    # after the split, qubit 0 is core in one block and |1> in the other;
    # the CNOT and Hadamard then give both blocks weight on the same basis
    # states away from qubit 5, which alone keeps them apart
    state = StateVector.ground(SMALL)
    for gate in (Hadamard(0), Hadamard(1), MCX(((0, 1),), 2), MCX(((1, 1),), 0)):
        state.apply(gate)
    state.apply(MCX(((0, 1),), 5))
    assert len(state._blocks) == 2
    state.apply(MCX(((0, 1),), 2)).apply(Hadamard(0))
    dense = StateVector.from_amplitudes(SMALL, state.amplitudes)
    for gate in (Hadamard(5), PhaseK(5, 2), MCX(((1, 1),), 5)):
        blocked = state.copy().apply(gate)
        assert len(blocked._blocks) == 1
        reference = dense.copy().apply(gate)
        assert blocked.max_difference(reference) < 1e-15
        for pattern in ([(5, 1), (0, 1)], [(5, 0), (2, 1)]):
            assert abs(blocked.probability(pattern) - reference.probability(pattern)) < 1e-15


def split_pair():
    """Two states with the same two blocks: qubits 0, 1 and 6 in the core,
    an MCX onto qubit 5 splitting off the 0=1 slice, and then a phase and a
    Hadamard on core qubits of the second copy.  Qubit 2's factor is left
    unnormalized, so the comparison has to keep the factors' scale."""
    half = 2 ** -0.5
    factors = {0: (half, half), 1: (0.6, 0.8), 2: (1.5, 0.5j), 4: (0.6, 0.8j), 6: (half, -half)}
    a = StateVector.product(SMALL, factors)
    a.apply(MCX(((0, 1),), 1)).apply(MCX(((1, 1),), 6)).apply(MCX(((0, 1),), 5))
    b = a.copy().apply(PhaseK(6, 2)).apply(Hadamard(1))
    return a, b


def test_max_difference_matches_the_full_vectors(monkeypatch):
    a, b = split_pair()
    assert len(a._blocks) == len(b._blocks) == 2
    # same blocks: answered from the cores and factors alone
    expected = float(np.max(np.abs(a.amplitudes - b.amplitudes)))
    with monkeypatch.context() as patch:
        patch.setattr(StateVector, "amplitudes", property(lambda self: pytest.fail("full vector")))
        same = a.max_difference(b)
    assert abs(same - expected) <= 1e-15
    # different blocks: a merged-back copy, and a copy with a new factor
    for other in (b.copy().apply(PhaseK(5, 1)), b.copy().apply(Hadamard(3))):
        expected = float(np.max(np.abs(a.amplitudes - other.amplitudes)))
        assert abs(a.max_difference(other) - expected) <= 1e-15
        assert abs(other.max_difference(a) - expected) <= 1e-15
    assert a.max_difference(a.copy()) == 0.0
    with pytest.raises(ValueError):
        a.max_difference(StateVector.ground(RegisterLayout(2, 1)))


# ----------------------------------------------------------------------
# deferred Hadamard layer


def two_block_state(rng, layout):
    """Random factors on every qubit but the last, a CNOT chain joining
    qubits 0 to total - 2 into the core, and an MCX onto the last qubit
    splitting off a second block: the last qubit is the key, and qubit 0
    is core in the first block and a |1> factor in the second.  Returns
    the state and its amplitudes, computed without the simulator."""
    total = layout.total
    factors = {}
    for qubit in range(total - 1):
        factor = rng.normal(size=2) + 1j * rng.normal(size=2)
        factors[qubit] = factor / np.linalg.norm(factor)
    state = StateVector.product(layout, factors)
    reference = np.ones(1)
    for qubit in range(total):
        reference = np.kron(reference, factors.get(qubit, (1.0, 0.0)))
    chain = [MCX(((q, 1),), q + 1) for q in range(total - 2)]
    for gate in (*chain, MCX(((0, 1),), total - 1)):
        state.apply(gate)
        reference = reference_apply(total, gate, reference)
    assert [block.axes for block in state._blocks] == [
        tuple(range(total - 1)), tuple(range(1, total - 1))
    ]
    return state, reference


def hadamard_runs(total):
    """Runs of Hadamard targets on a state from :func:`two_block_state`:
    random ones, and runs that repeat a target, hit the key qubit, hit
    qubit 0, and cover every core axis of either block."""
    key = total - 1
    special = [[1, 2, 1], [key, 2], [2, key], [0, 3], list(range(total - 1)),
               list(range(1, total - 1)), [3, 0, 4, 0, 5, 6, 1, 2]]
    qubit = st.integers(0, total - 1)
    return st.one_of(st.sampled_from(special), st.lists(qubit, min_size=1, max_size=10))


def layer_features(state, run):
    """Which hard cases a run of Hadamard targets meets on ``state``."""
    odd = {q for q in run if run.count(q) % 2}
    blocks = state._blocks
    features = set()
    if len(odd) < len(set(run)):
        features.add("repeat")
    if set(run) & util.key_qubits(state):
        features.add("key")
    if any(
        any(q in a.axes for a in blocks) and any(q in b.factors for b in blocks) for q in run
    ):
        features.add("core in one block, factored in another")
    for block in blocks:
        hit = [q in odd for q in block.axes]
        if any(all(hit[i:i + 5]) for i in range(len(hit) - 4)):
            features.add("run of 5 adjacent axes")
            if hit[0] and hit[-1]:
                features.add("first and last axis")
    return features


READERS = ("amplitudes", "amplitudes_at", "norm", "probability", "copy", "max_difference",
           "postselect", "extract", "apply_projector_terms")
SPLIT_CASES = ("signed sum", "inside a zeroed slice", "layer applied first", "overlaps a zeroed slice",
               "Hadamard on a zeroed block", "postselect drops a pending block")
LAYER_COVERAGE = set()  # features, readers and (split case, next reader) met by every example


def pattern_of(rng, qubits):
    return tuple((int(q), int(rng.integers(2))) for q in qubits)


def apply_run(state, reference, run):
    for qubit in run:
        state.apply(Hadamard(qubit))
        reference = reference_apply(state.layout.total, Hadamard(qubit), reference)
    return reference


def spare_targets(state):
    """Qubits that are a basis ket in every block and not a key: an MCX
    onto one splits."""
    keys = util.key_qubits(state)
    return [
        q for q in range(state.layout.total)
        if q not in keys and all(block.splits((0, 0), q) for block in state._stored)
    ]


def fix_heavier(state, reference, qubit):
    """Post-select ``qubit`` onto its heavier value."""
    masks = [basis_mask(state.layout, qubit, bit) for bit in (0, 1)]
    weights = [float(np.sum(np.abs(reference[mask]) ** 2)) for mask in masks]
    bit = int(weights[1] > weights[0])
    state, probability = state.postselect([(qubit, bit)])
    assert abs(probability - weights[bit]) < 1e-12
    return state, np.where(masks[bit], reference, 0.0) / np.sqrt(weights[bit])


def free_two_targets(state, reference):
    """Post-select every key, and then the last core qubits, onto their
    heavier values, until two qubits are spare targets."""
    for key in sorted(util.key_qubits(state)):
        state, reference = fix_heavier(state, reference, key)
    while len(spare_targets(state)) < 2 and state._stored[0].axes:
        state, reference = fix_heavier(state, reference, state._stored[0].axes[-1])
    return state, reference


def rules_out(block, pattern):
    return any(block.factors.get(q) is _KETS[1 - bit] for q, bit in pattern)


def split_cases(state, gate):
    """How a split reads each block whose layer is pending."""
    cases = set()
    if not all(block.splits((gate.mask, gate.bits), gate.target) for block in state._stored):
        return cases
    for block in state._stored:
        pattern = block.resolved((gate.mask, gate.bits))
        if pattern is None or not pattern.mask or not block.layer:
            continue
        fixed = dict(pattern.pairs)
        zeroed = [dict(z.pairs) for z in block.zeroed]
        met = [z for z in zeroed if all(fixed.get(q, bit) == bit for q, bit in z.items())]
        if any(z.keys() <= fixed.keys() for z in met):
            cases.add("inside a zeroed slice")
        elif met:
            cases.add("overlaps a zeroed slice")
        elif not block.layer <= fixed.keys():
            cases.add("layer applied first")
        elif any(fixed[q] for q in block.layer):
            cases.add("signed sum")
    return cases


def split_gates(rng, block, targets):
    """Two MCX gates onto the spare ``targets``, controlled on ``block``'s
    core: the first fixes all or some of its pending qubits, maybe with
    one more core qubit, and the second repeats that pattern, drops one of
    its qubits, or fixes every pending qubit anew."""
    layer = sorted(block.layer)
    if rng.integers(2) and len(layer) > 1:
        layer = sorted(rng.choice(layer, size=int(rng.integers(1, len(layer))), replace=False))
    others = [q for q in block.axes if q not in block.layer]
    extra = [int(rng.choice(others))] if others and rng.integers(2) else []
    first = pattern_of(rng, sorted(layer + extra))
    second = rng.choice(["same", "drop one", "anew"])
    if second == "drop one" and first:
        dropped = extra[0] if extra else first[-1][0]
        second = tuple(pair for pair in first if pair[0] != dropped)
    elif second == "anew":
        second = pattern_of(rng, sorted(block.layer))
    else:
        second = first
    return [MCX(first, targets[0]), MCX(second, targets[1])]


def read_pending(reader, data, rng, state, reference, before, gates):
    """Check ``reader`` on a state whose layer may still be pending, with
    ``reference`` its amplitudes, reached by ``gates`` from ``before``;
    returns the state and reference after it."""
    layout = state.layout
    total = layout.total
    if reader == "amplitudes":
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-12
    elif reader == "amplitudes_at":
        indices = rng.integers(0, 1 << total, size=16)
        assert np.max(np.abs(state.amplitudes_at(indices) - reference[indices])) < 1e-12
    elif reader == "norm":
        assert abs(state.norm() - np.linalg.norm(reference)) < 1e-12
    elif reader in ("probability", "postselect"):
        qubits = rng.choice(total, size=int(rng.integers(1, 3)), replace=False)
        pattern = pattern_of(rng, qubits)
        mask = np.logical_and.reduce([basis_mask(layout, q, bit) for q, bit in pattern])
        weight = float(np.sum(np.abs(reference[mask]) ** 2))
        if reader == "probability":
            assert abs(state.probability(pattern) - weight) < 1e-12
        elif weight >= 1e-2:  # renormalizing a faint branch magnifies rounding
            source = state
            dropped = [block for block in state._stored if block.layer and rules_out(block, pattern)]
            state, probability = source.postselect(pattern)
            assert all(block.layer for block in dropped)
            assert abs(probability - weight) < 1e-12
            assert np.max(np.abs(source.amplitudes - reference)) < 1e-12
            reference = np.where(mask, reference, 0.0) / np.sqrt(weight)
    elif reader == "copy":
        # a layer pending on either side after the copy stays on that side
        duplicate = state.copy()
        copied = apply_run(duplicate, reference, data.draw(hadamard_runs(total)))
        reference = apply_run(state, reference, data.draw(hadamard_runs(total)))
        assert np.max(np.abs(duplicate.amplitudes - copied)) < 1e-12
    elif reader == "max_difference":
        dense = util.apply_all(StateVector.from_amplitudes(layout, before), gates)
        flushed = data.draw(st.sampled_from(["neither", "state", "dense"]))
        if flushed != "neither":
            (state if flushed == "state" else dense).norm()
        assert state.max_difference(dense) < 1e-12
        assert dense.max_difference(state) < 1e-12
    elif reader == "extract":
        picked = [int(q) for q in rng.permutation(total)[: int(rng.integers(1, total + 1))]]
        dense = StateVector.from_amplitudes(layout, reference)
        residual, top = util.gram_top_eigenpair(dense, picked)
        if residual > 1e-8:
            with pytest.raises(EntanglementError):
                state.extract(picked)
        elif residual < 1e-12:
            assert abs(np.vdot(top, state.extract(picked))) ** 2 >= 1.0 - 1e-12
    else:
        target = int(rng.integers(total))
        others = [q for q in range(total) if q != target]
        pattern = pattern_of(rng, rng.choice(others, size=int(rng.integers(0, 3)), replace=False))
        state.apply_projector_terms([(pattern, (target,))])
        reference = reference_apply(total, MCX(pattern, target), reference)
    assert np.max(np.abs(state.amplitudes - reference)) < 1e-12
    return state, reference


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def check_hadamard_layer_against_dense_reference(data):
    layout = data.draw(st.sampled_from([RegisterLayout(1, 1), RegisterLayout(2, 1)]))
    total = layout.total
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    state, reference = two_block_state(rng, layout)
    for _ in range(data.draw(st.integers(3, 8))):
        split = data.draw(st.integers(0, 2)) == 0
        if split:
            # the run stays on core qubits, and MCX gates onto spare
            # targets then split through its pending layer
            state, reference = free_two_targets(state, reference)
            split = bool(state._stored[0].axes)
        if split:
            run = data.draw(st.lists(st.sampled_from(state._stored[0].axes), min_size=1, max_size=5))
        else:
            run = data.draw(hadamard_runs(total))
        reader = data.draw(st.sampled_from(READERS))
        LAYER_COVERAGE.update(layer_features(state, run))
        LAYER_COVERAGE.add(reader)
        before, snapshot = reference, state.copy() if split else None
        reference = apply_run(state, reference, run)
        gates = [Hadamard(qubit) for qubit in run]  # from ``before`` to now
        cases = set()
        if split:
            targets = spare_targets(state)[:2]
            flipped = [(q, int(state._stored[0].factors[q] is _KETS[0])) for q in targets]
            for gate in split_gates(rng, state._stored[0], targets):
                met = split_cases(state, gate)
                kept = [block for block in state._stored if block.layer]
                state.apply(gate)
                reference = reference_apply(total, gate, reference)
                gates.append(gate)
                if met & {"signed sum", "inside a zeroed slice"}:
                    assert all(block.layer for block in kept)  # read without applying it
                cases |= met
            if rng.integers(2):  # Hadamards after the split
                more = [int(q) for q in rng.choice(state._stored[0].axes, size=2)]
                if any(block.zeroed and q in block.axes for block in state._stored for q in more):
                    cases.add("Hadamard on a zeroed block")
                reference = apply_run(state, reference, more)
                gates += [Hadamard(q) for q in more]
            # post-select nothing, the branch both gates flipped, or any branch
            keep = rng.choice(["nothing", "flipped", "any"])
            pattern = flipped if keep == "flipped" else pattern_of(rng, targets)
            mask = np.logical_and.reduce([basis_mask(layout, q, bit) for q, bit in pattern])
            weight = float(np.sum(np.abs(reference[mask]) ** 2))
            if keep != "nothing" and weight >= 1e-2:
                dropped = [block for block in state._stored if block.layer and rules_out(block, pattern)]
                state, probability = state.postselect(pattern)
                assert abs(probability - weight) < 1e-12
                assert all(block.layer for block in dropped)  # dropped without applying it
                if dropped:
                    cases.add("postselect drops a pending block")
                reference = np.where(mask, reference, 0.0) / np.sqrt(weight)
                before, snapshot, gates = reference, state, []
            # every reader after the split, each on its own replay of it
            for other in READERS if cases else ():
                if other != reader:
                    replica = util.apply_all(snapshot.copy(), gates)
                    read_pending(other, data, rng, replica, reference, before, gates)
            LAYER_COVERAGE.update((case, other) for case in cases for other in READERS)
        # the reader sees the run, and any split after it, still pending
        state, reference = read_pending(reader, data, rng, state, reference, before, gates)


def test_hadamard_layer_matches_dense_reference():
    LAYER_COVERAGE.clear()
    check_hadamard_layer_against_dense_reference()
    assert LAYER_COVERAGE >= {
        "repeat",
        "key",
        "core in one block, factored in another",
        "run of 5 adjacent axes",
        "first and last axis",
        *READERS,
        *((case, reader) for case in SPLIT_CASES for reader in READERS),
    }


# ----------------------------------------------------------------------
# deferred MCX runs


RUN_READERS = ("amplitudes", "amplitudes_at", "probability", "postselect", "copy",
               "max_difference", "extract")
RUN_BREAKS = ("Hadamard on a run qubit", "Hadamard on another qubit", "phase",
              "other target", "other controls", "split")
# run features, breaks, readers and (reader, compared exactly) met by every example
RUN_COVERAGE = set()


def core_everywhere(state):
    """Keys and qubits in the core of every block: a Hadamard or phase
    gate on one leaves every factor a basis ket."""
    keys = util.key_qubits(state)
    return [
        q for q in range(state.layout.total)
        if q in keys or all(q in block.axes for block in state._stored)
    ]


def run_patterns(rng, width, count):
    """``count`` control-bit tuples of ``width`` bits; about one in three
    repeats an earlier one."""
    patterns = []
    for _ in range(count):
        if patterns and rng.integers(3) == 0:
            patterns.append(patterns[int(rng.integers(len(patterns)))])
        else:
            patterns.append(tuple(int(b) for b in rng.integers(2, size=width)))
    return patterns


def run_break(kind, rng, state, qubits, target):
    """A gate of kind ``kind`` that ends the run onto ``target`` controlled by
    ``qubits``, or None if the state offers none."""
    core = core_everywhere(state)
    others = [q for q in core if q != target and q not in qubits]
    if kind == "Hadamard on a run qubit":
        return Hadamard(target)
    if kind == "Hadamard on another qubit":
        return Hadamard(int(rng.choice(others))) if others else None
    if kind == "phase":
        return PhaseK(int(rng.choice(core)), int(rng.integers(1, 7)))
    if kind == "other target":
        if not others:
            return None
        return MCX(tuple(zip(qubits, run_patterns(rng, len(qubits), 1)[0])), int(rng.choice(others)))
    if kind == "other controls":
        spare = [q for q in range(state.layout.total) if q != target and q not in qubits]
        changed = list(qubits[1:]) if qubits and rng.integers(2) else [*qubits, int(rng.choice(spare))]
        return MCX(tuple(zip(changed, run_patterns(rng, len(changed), 1)[0])), target)
    targets = spare_targets(state)
    controls = [q for q in state._stored[0].axes if q != target][:2]
    if not targets or not controls:
        return None
    gate = MCX(tuple(zip(controls, run_patterns(rng, len(controls), 1)[0])), targets[0])
    return gate if all(block.splits((gate.mask, gate.bits), gate.target) for block in state._stored) else None


def assert_equal(actual, expected, exact):
    if exact:
        assert np.array_equal(actual, expected)
    else:
        assert np.max(np.abs(actual - expected)) < 1e-12


def read_run(reader, rng, state, reference, exact, twin):
    """Check ``reader`` on a state that may still owe a run, with
    ``reference`` its amplitudes, exactly or to 1e-12; ``twin`` went through
    the same gates.  Returns the state and reference after it."""
    layout = state.layout
    total = layout.total
    if reader == "amplitudes":
        assert_equal(state.amplitudes, reference, exact)
    elif reader == "amplitudes_at":
        indices = rng.integers(0, 1 << total, size=16)
        assert_equal(state.amplitudes_at(indices), reference[indices], exact)
    elif reader in ("probability", "postselect"):
        qubits = rng.choice(total, size=int(rng.integers(1, 3)), replace=False)
        pattern = pattern_of(rng, qubits)
        mask = np.logical_and.reduce([basis_mask(layout, q, bit) for q, bit in pattern])
        weight = float(np.sum(np.abs(reference[mask]) ** 2))
        if reader == "probability":
            assert abs(state.probability(pattern) - weight) < 1e-12
        elif weight >= 1e-2 and len(state._stored[0].axes) > 4:  # keep a core to run on
            source = state
            state, probability = source.postselect(pattern)
            assert abs(probability - weight) < 1e-12
            assert_equal(source.amplitudes, reference, exact)
            return state, np.where(mask, reference, 0.0) / np.sqrt(weight), False
    elif reader == "copy":
        # the copy owes nothing, and a gate on it leaves the state alone
        duplicate = state.copy()
        assert_equal(duplicate.amplitudes, reference, exact)
        duplicate.apply(MCX((), int(rng.integers(total))))
    elif reader == "max_difference":
        # against a state owing the same run, and against the dense reference
        dense = StateVector.from_amplitudes(layout, reference)
        assert state.max_difference(twin) == 0.0
        for difference in (state.max_difference(dense), dense.max_difference(state)):
            assert difference == 0.0 if exact else difference < 1e-12
    else:
        picked = [int(q) for q in rng.permutation(total)[: int(rng.integers(1, total + 1))]]
        residual, top = util.gram_top_eigenpair(StateVector.from_amplitudes(layout, reference), picked)
        if residual > 1e-8:
            with pytest.raises(EntanglementError):
                state.extract(picked)
        elif residual < 1e-12:
            assert abs(np.vdot(top, state.extract(picked))) ** 2 >= 1.0 - 1e-12
    return state, reference, exact


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def check_runs_against_reference(data):
    layout = data.draw(st.sampled_from([RegisterLayout(1, 1), RegisterLayout(2, 1)]))
    total = layout.total
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # a dense state with two qubits post-selected into basis factors, so
    # that an MCX onto one of them splits
    state = random_state(rng, layout)
    for qubit in rng.choice(total, size=2, replace=False):
        state, _ = state.postselect([(int(qubit), int(rng.integers(2)))])
    for _ in range(data.draw(st.integers(2, 6))):
        # a step starts from a state that owes nothing: maybe Hadamards, a
        # run of MCX gates, maybe a gate that breaks it, the rest of the run
        # and a reader
        reference, start = state.amplitudes.copy(), state.copy()
        core = core_everywhere(state)
        target = int(rng.choice(core))
        qubits = [int(q) for q in rng.permutation([q for q in range(total) if q != target])]
        qubits = qubits[: int(rng.integers(0, 4))]
        patterns = run_patterns(rng, len(qubits), int(rng.integers(2, 7)))
        cut = int(rng.integers(1, len(patterns)))
        kind = data.draw(st.sampled_from((*RUN_BREAKS, None)))
        features = {"plain X"} if not qubits else set()
        if len(state._stored) > 1:
            features.add("several blocks")
        gates = []
        if rng.integers(3) == 0:
            gates = [Hadamard(int(q)) for q in rng.choice(core, size=min(len(core), 2), replace=False)]
            util.apply_all(state, gates)
        if any(block.layer for block in state._stored):
            features.add("starts with a pending layer")
        segments = [patterns]
        for i, bits in enumerate(patterns):
            broken = run_break(kind, rng, state, qubits, target) if i == cut and kind else None
            if broken is not None:
                features.add(kind)
                segments = [patterns[:cut], patterns[cut:]]
                gates.append(broken)
                state.apply(broken)
            gates.append(MCX(tuple(zip(qubits, bits)), target))
            state.apply(gates[-1])
        if any(segment.count(bits) % 2 == 0 for segment in segments for bits in segment):
            features.add("cancel")
        for gate in gates:
            reference = reference_apply(total, gate, reference)
        # exact unless a Hadamard ran: the other gates here move amplitudes
        # or multiply them by a phase, just as reference_apply does
        exact = not any(isinstance(gate, Hadamard) for gate in gates)
        reader = data.draw(st.sampled_from(RUN_READERS))
        twin = util.apply_all(start, gates)
        state, reference, exact = read_run(reader, rng, state, reference, exact, twin)
        assert_equal(state.amplitudes, reference, exact)
        RUN_COVERAGE.update((*features, reader, (reader, exact)))


def test_runs_match_reference():
    RUN_COVERAGE.clear()
    check_runs_against_reference()
    assert RUN_COVERAGE >= {
        "plain X",
        "several blocks",
        "starts with a pending layer",
        "cancel",
        *RUN_BREAKS,
        *RUN_READERS,
        *((reader, True) for reader in ("amplitudes", "amplitudes_at", "copy", "max_difference")),
    }


# ----------------------------------------------------------------------
# runs over owed controls, under a layer


OWED_SPLITS = ("through a run and a layer", "through a run alone", "flushes first",
               "inside a zeroed slice")
OWED_HADAMARDS = ("on an owed control", "on a core run qubit", "outside the run")
# run shapes, Hadamards, split outcomes and readers met by every example
OWED_COVERAGE = set()


def random_factor(rng):
    factor = rng.normal(size=2) + 1j * rng.normal(size=2)
    return factor / np.linalg.norm(factor)


def owing_start(rng, layout):
    """One block: a random core over ``total - 4`` or ``total - 5`` qubits
    (a product joined by a CNOT chain), two or three qubits in random
    non-ket factors and two basis kets.  Returns the state, its amplitudes
    computed without the simulator, and the three qubit lists."""
    total = layout.total
    qubits = [int(q) for q in rng.permutation(total)]
    factored = qubits[:2 + int(rng.integers(2)) * (total > 7)]
    kets, core = qubits[len(factored):len(factored) + 2], sorted(qubits[len(factored) + 2:])
    factors = {q: random_factor(rng) for q in (*core, *factored)}
    state = StateVector.product(layout, factors)
    reference = np.ones(1)
    for qubit in range(total):
        reference = np.kron(reference, factors.get(qubit, (1.0, 0.0)))
    gates = [MCX((), k) for k in kets if rng.integers(2)]
    gates += [MCX(((a, 1),), b) for a, b in zip(core, core[1:])]
    for gate in gates:
        state.apply(gate)
        reference = reference_apply(total, gate, reference)
    state.norm()  # the state owes nothing
    assert state._stored[0].axes == tuple(core)
    return state, reference, core, factored, kets


def owing_hadamards(rng, kind, block, core, factored):
    """Hadamard targets of one kind on a block that owes a run."""
    mask, target, _ = block.run
    if kind == "on an owed control":
        pool = [q for q in block.owed if q != target]
    elif kind == "on a core run qubit":
        pool = [q for q in core if mask >> q & 1 or q == target]
    else:
        pool = [q for q in (*core, *factored) if not mask >> q & 1 and q != target]
    if not pool:
        return []
    if rng.integers(2):  # every one of them, as the collapse stage does
        return pool
    return [int(q) for q in rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False)]


def owing_split(rng, block, core, target, through):
    """Controls for an MCX onto the basis ket ``target`` that split the
    block: with ``through``, they fix every layer qubit, every owed qubit
    and the run's target, and maybe one more core qubit; otherwise a random
    handful of core and owed qubits."""
    pool = [q for q in (*core, *block.owed) if q != target]
    if through:
        fixed = {*block.layer, *block.owed}
        if block.run:
            fixed.add(block.run[1])
        spare = [q for q in core if q not in fixed]
        if spare and rng.integers(2):
            fixed.add(int(rng.choice(spare)))
    else:
        fixed = set(int(q) for q in rng.choice(pool, size=int(rng.integers(1, min(len(pool), 4) + 1)), replace=False))
    return pattern_of(rng, sorted(fixed))


def owing_features(block, pattern):
    """Which parts of the read-through formula a split through a run uses."""
    mask, _, _ = block.run
    fixed = {q for q, _ in pattern}
    features = set()
    if any(mask >> q & 1 for q in block.owed if q != block.run[1]):
        features.add("run over owed controls")
    if any(q not in block.layer for q in block.owed):
        features.add("owed control outside the layer")
    core_controls = [q for q in block.axes if mask >> q & 1]
    if any(q in fixed for q in core_controls):
        features.add("core control fixed by the split")
    if any(q not in fixed for q in core_controls):
        features.add("core control left free")
    return features


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def check_owing_blocks_against_reference(data):
    layout = data.draw(st.sampled_from([RegisterLayout(1, 1), RegisterLayout(2, 1)]))
    total = layout.total
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    state, reference, core, factored, kets = owing_start(rng, layout)
    start, gates, features = state.copy(), [], set()
    # a run onto a core qubit, or now and then onto a factored one, over
    # owed controls, core controls and maybe a basis ket
    target = int(rng.choice(factored)) if rng.integers(6) == 0 else int(rng.choice(core))
    pool = [q for q in (*factored, *core, kets[1]) if q != target]
    controls = sorted(int(q) for q in rng.choice(pool, size=int(rng.integers(1, 5)), replace=False))
    patterns = run_patterns(rng, len(controls), int(rng.integers(1, 7)))
    if any(patterns.count(bits) % 2 == 0 for bits in patterns):
        features.add("cancel")
    gates += [MCX(tuple(zip(controls, bits)), target) for bits in patterns]
    util.apply_all(state, gates)
    block = state._stored[0]
    assert block.run is not None
    if target in block.owed:
        features.add("owed target")
    # Hadamards as in the collapse stage, or any kinds in any order
    collapse = st.just(["on an owed control", "outside the run"])
    for kind in data.draw(st.one_of(collapse, st.lists(st.sampled_from(OWED_HADAMARDS), max_size=3))):
        if block.run is None:
            break
        run = [Hadamard(q) for q in owing_hadamards(rng, kind, block, core, factored)]
        if run:
            features.add(kind)
            util.apply_all(state, run)
            gates += run
    # one or two splits onto the basis kets; the second one may repeat the first
    through = data.draw(st.booleans())
    pattern = owing_split(rng, block, core, kets[0], through)
    splits = [MCX(pattern, kets[0])]
    if rng.integers(2) and kets[1] not in controls:
        splits.append(MCX(pattern if rng.integers(2) else owing_split(rng, block, core, kets[1], through), kets[1]))
    for split in splits:
        owed, layered = block.run is not None, bool(block.layer)
        if owed and through:
            features |= owing_features(block, split.controls)
        blocks = len(state._stored)
        resolved = block.resolved((split.mask, split.bits))
        inside = resolved is not None and any(
            not z.mask & ~resolved.mask and not (z.bits ^ resolved.bits) & z.mask for z in block.zeroed
        )
        state.apply(split)
        gates.append(split)
        if inside:
            assert len(state._stored) == blocks  # the slice is zeroed already: nothing moves
            features.add("inside a zeroed slice")
        elif owed and block.run is not None:
            features.add("through a run and a layer" if layered else "through a run alone")
        elif owed:
            features.add("flushes first")
    for gate in gates:
        reference = reference_apply(total, gate, reference)
    reader = data.draw(st.sampled_from(RUN_READERS))
    if reader == "postselect":
        # onto the split targets, as the terminal measurement does, or any pair
        qubits = kets if rng.integers(2) else rng.choice(total, size=2, replace=False)
        pattern = pattern_of(rng, qubits)
        mask = np.logical_and.reduce([basis_mask(layout, q, bit) for q, bit in pattern])
        weight = float(np.sum(np.abs(reference[mask]) ** 2))
        if weight >= 1e-2:  # renormalizing a faint branch magnifies rounding
            owing = [b for b in state._stored if b.run is not None and rules_out(b, pattern)]
            source = state
            state, probability = source.postselect(pattern)
            assert abs(probability - weight) < 1e-12
            assert all(b.run is not None for b in owing)  # dropped without a flush
            assert np.max(np.abs(source.amplitudes - reference)) < 1e-12
            reference = np.where(mask, reference, 0.0) / np.sqrt(weight)
    else:
        twin = util.apply_all(start.copy(), gates)
        state, reference, _ = read_run(reader, rng, state, reference, False, twin)
    assert np.max(np.abs(state.amplitudes - reference)) < 1e-12
    OWED_COVERAGE.update((*features, reader))


def test_owing_blocks_match_reference():
    OWED_COVERAGE.clear()
    check_owing_blocks_against_reference()
    assert OWED_COVERAGE >= {
        "run over owed controls",
        "owed target",
        "owed control outside the layer",
        "core control fixed by the split",
        "core control left free",
        "cancel",
        *OWED_HADAMARDS,
        *OWED_SPLITS,
        *RUN_READERS,
    }


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
