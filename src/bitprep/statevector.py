"""Register state as a short sum of blocks, each a dense core times exact
single-qubit factors.

A block holds two parts.  The core is a complex128 tensor of shape
``(2,) * len(axes)`` over the merged qubits, ``axes``, in ascending qubit
order.  Every other qubit is an exact factor: a 2-vector in a dict, never
written in place, so copies can share it.  A block's amplitudes are the
tensor product of its core and its factors, the state's are the sum over
its blocks, and one addressing rule holds throughout: qubit 0 is the most
significant bit of a basis index.  In a core, qubit ``axes[i]`` is axis
i, so fixing some core qubits to bits is a basic slice, and every kernel
but the MCX run's works on such writable views without building index
arrays; single-qubit gates merge the axes on either side of the target,
``reshape(2**i, 2, -1)``.

``ground`` starts with one block: an empty core and every qubit a |0>
factor.  Hadamard and phase gates on a factored qubit update its
2-vector.  A gate or projector term touching factored qubits multiplies
all of them into the core, in one allocation, when it is applied, and
then runs on the core in place.  The basis factors |0> and |1> are two
shared read-only kets, recognised by identity.

A Hadamard on a core qubit of a block is deferred: the target toggles in
that block's pending layer, since Hadamards on distinct qubits commute
and a repeated one cancels.  The blocks are reached through one
property, which first applies each block's layer as a radix-16 fast
Walsh-Hadamard transform, in place (``_Block.flush``).  That property is
the flush point for every reader and every other gate, so none sees a
stale state.  Two paths read less and leave the layer pending: a split
whose controls fix every pending qubit reads its slice as a signed sum,
through a pending run too (see ``_Block.split``), and post-selection
and ``probability`` drop a block that one of its factors rules out
before applying its layer.

A control pattern is a (mask, bits) pair of ints, bit q for qubit q (see
``layout.Pattern``).  An MCX that does not split (see below) is deferred
too.  Its block records a pending run: the control mask, the target and
a set of control bits, in which each gate toggles its own, so a repeated
gate cancels.  Its factored controls and target are owed to the core,
not yet merged.  Later gates with the same mask and target only toggle:
every amplitude mark and unwind (an unwind and the next mark fold into
one run), every phase-stage gate and the terms of each
``apply_projector_terms`` call.  A Hadamard on a qubit outside the run
commutes with it, and a Hadamard on an owed control waits for the
merge, so both join the layer on top of the run.  So a block may owe a
run and a layer at once, and its flush pays in one fixed order: merge
the owed qubits, swap the run over the bits left (``_Block.swap``),
apply the layer, zero the recorded slices.  Any other gate, a Hadamard
on a core control or the run's target, and every read first flush.
``apply`` still takes one gate per call.  In a plain run the phase
stage's controls stay owed, so the core never holds the phase register:
the label stage's split reads its slice through the run and the layer.

Blocks come from one rule.  An MCX whose target is a basis factor in
every block, and whose controls are each a core qubit or a factor with
an exact zero entry (a basis factor, say), splits instead of merging its
target.  In each block a factored control that can never match leaves
the block untouched, and one that always matches is dropped.  With no
core control left, the target's factor flips in place; otherwise the
slice the core controls select is copied into a new block, with those
controls and the flipped target as basis factors, and recorded for
zeroing at the old block's next flush; a slice that a recorded zeroing
covers moves nothing.  Invariant: any two blocks differ on a qubit that
is |0> in one, |1> in the other and a basis factor in every block, so
blocks have disjoint support, and norms, probabilities and
post-selection weights add over blocks.  Every gate runs block by block,
with factored controls resolved as above, except one whose target tells
blocks apart, a |0> or |1> factor in every block but not the same in
all: it first sums the blocks back into one core over the union of their
axes (merge-back).

Post-selection slices each block's core, skips a block that one of its
factors rules out without reading its core or applying its layer, and
turns each fixed qubit into a basis factor, so it never fills a
full-width vector.
``amplitudes`` materialises the full vector only when asked,
``amplitudes_at`` reads chosen amplitudes without it, and
``max_difference`` compares two states block against block.  A single
StateVector must only ever be used from one thread, since reads can
apply a pending layer or run, but distinct vectors are independent.
"""

from __future__ import annotations

import math
import operator
from itertools import groupby
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, EntanglementError
from .gates import MCX, Gate, Hadamard
from .layout import Pattern, RegisterLayout, control_pattern

Array = np.ndarray

# widest register numpy can allocate: the vector's 2**(total + 4) bytes must
# fit in np.intp, which allows 58 qubits on 64-bit builds (numpy's limit of 64
# axes, one per qubit, is looser)
_WIDEST = np.iinfo(np.intp).max.bit_length() - 5

_SQRT_HALF = 2.0 ** -0.5

# unscaled +-1 Sylvester-Hadamard matrices of orders 1, 2, 4, 8 and 16: the
# Hadamard layer on a run of k adjacent core axes is _SYLVESTER[k] / 2**(k/2)
_SYLVESTER = [np.ones((1, 1))]
for _ in range(4):
    _SYLVESTER.append(np.kron(_SYLVESTER[-1], [[1.0, 1.0], [1.0, -1.0]]))

# the |0> and |1> factors, shared by every state that uses them: a factor
# is a basis ket exactly when it is one of these two objects
_BASIS = np.eye(2, dtype=np.complex128)
_BASIS.flags.writeable = False
_ZERO, _ONE = _KETS = tuple(_BASIS)


def _transform(view: Array, matrix: Array) -> None:
    """``view[a, :, b] = matrix @ view[a, :, b]`` for every a and b, in
    place, in at most 8 slabs along the longer of the outer axes."""
    outer = 0 if view.shape[0] >= view.shape[2] else 2
    step = -(-view.shape[outer] // 8)
    scratch = np.empty(view[:step].shape if outer == 0 else view[..., :step].shape)
    for start in range(0, view.shape[outer], step):
        slab = view[start:start + step] if outer == 0 else view[..., start:start + step]
        np.matmul(matrix, slab, out=scratch)
        slab[...] = scratch


def _signed_sum(tensor: Array, bits: Sequence[tuple[int, int]]) -> Array:
    """A new array: ``tensor`` summed over the axes of the (axis, bit)
    pairs ``bits``, with the 1 half of each axis whose bit is 1 negated.

    That is the entry at those bits of the unscaled Walsh-Hadamard
    transform over those axes; with no ``bits`` it is a copy.
    """
    ones = sorted((axis for axis, bit in bits if bit), reverse=True)
    for axis in ones:
        index = (slice(None),) * axis
        tensor = tensor[(*index, 0)] - tensor[(*index, 1)]
    zeros = tuple(axis - sum(one < axis for one in ones) for axis, bit in bits if not bit)
    shape = [length for axis, length in enumerate(tensor.shape) if axis not in zeros]
    return np.sum(tensor, axis=zeros, out=np.empty(shape, np.complex128))


def _overlap(patterns: Iterable[Pattern]) -> bool:
    """Whether two of the ``patterns`` match a common basis state, that
    is, agree on every qubit both fix.

    Patterns with the same mask overlap exactly when their bits are
    equal, so each such group is decided by one set.  Two groups overlap
    exactly when bits of one and bits of the other, each cut down to the
    qubits both masks fix, are equal: one set intersection per pair of
    groups.
    """
    groups: dict[int, set[int]] = {}
    for mask, bits in patterns:
        group = groups.setdefault(mask, set())
        if bits in group:
            return True
        group.add(bits)
    keyed = list(groups.items())
    for i, (mask, group) in enumerate(keyed):
        for other_mask, other in keyed[i + 1:]:
            shared = mask & other_mask
            if {bits & shared for bits in group} & {bits & shared for bits in other}:
                return True
    return False


def _same(factor: Array | None, other: Array) -> bool:
    return factor is other or (factor is not None and np.array_equal(factor, other))


class _Block:
    """One term of a state: a dense core over ``axes`` times exact factors.

    A block may owe, in this order, three things, and :meth:`flush` pays
    them in that order.  First a run of MCX gates, ``run``: (control mask,
    target, set of control bits), an X on the target wherever the
    controls spell one of the bits.  Its controls and target that are not
    core qubits wait in ``owed`` (qubit to 2-vector, out of ``factors``),
    to be merged into the core just before the run's swap.  Then a
    Hadamard on each qubit in ``layer``: a core qubit outside the run, or
    an owed control of the run.  Last, a zero on the slice of each
    :class:`Pattern` in ``zeroed``: every slice :meth:`split` moves out.
    """

    __slots__ = ("core", "axes", "factors", "layer", "zeroed", "run", "owed")

    def __init__(self, core: Array, axes: tuple[int, ...], factors: dict[int, Array]):
        self.core = core
        self.axes = axes
        self.factors = factors
        self.layer: frozenset[int] = frozenset()
        self.zeroed: list[Pattern] = []
        self.run: tuple[int, int, set[int]] | None = None
        self.owed: dict[int, Array] = {}

    def copy(self) -> "_Block":
        """A copy of a flushed block."""
        return _Block(self.core.copy(), self.axes, dict(self.factors))

    def norm(self) -> float:
        norm = math.sqrt(np.vdot(self.core, self.core).real)
        for factor in self.factors.values():
            norm *= math.sqrt(np.vdot(factor, factor).real)
        return norm

    def merged(self, qubits: Iterable[int]) -> tuple[tuple[int, ...], Array]:
        """Core axes and tensor with the factored ``qubits`` multiplied in.

        The block is left unchanged; with nothing to merge the core itself
        is returned.  The factors' joint tensor is built first, so the
        result is the only allocation of its size.
        """
        new = sorted({q for q in qubits if q in self.factors})
        if not new:
            return self.axes, self.core
        joint = self.factors[new[-1]]
        if not self.axes:  # a scalar core rides on the last factor
            joint = joint * self.core
        # growing from the last qubit keeps the large operand innermost
        for qubit in reversed(new[:-1]):
            joint = np.multiply.outer(self.factors[qubit], joint)
        if not self.axes:
            return tuple(new), joint
        axes = tuple(sorted((*self.axes, *new)))
        # one broadcast axis per run of adjacent core or factored qubits,
        # so numpy's inner loop runs longer than 2
        runs = [(in_core, len(list(run))) for in_core, run in groupby(axes, set(self.axes).__contains__)]
        out = np.empty((2,) * len(axes), np.complex128)
        np.multiply(
            self.core.reshape([1 << k if in_core else 1 for in_core, k in runs]),
            joint.reshape([1 if in_core else 1 << k for in_core, k in runs]),
            out=out.reshape([1 << k for _, k in runs]),
        )
        return axes, out

    def view(self, pattern: tuple[int, int]) -> Array:
        """Writable view of the core where its qubits match ``pattern``;
        the pattern's factored qubits play no part.

        Its axes are the unfixed core qubits in ascending order; with
        every core qubit fixed it is a 0-d view, not a copied scalar.
        """
        mask, bits = pattern
        return self.core[(*[bits >> q & 1 if mask >> q & 1 else slice(None) for q in self.axes], ...)]

    def gather(self, indices: Array, position) -> Array:
        """Amplitudes at basis ``indices``: the core entry the core qubits'
        bits select times the factor entries of the factored qubits' bits."""
        core_index = np.zeros(indices.shape, dtype=np.int64)
        for qubit in self.axes:
            core_index = (core_index << 1) | ((indices >> position(qubit)) & 1)
        values = self.core.reshape(-1)[core_index]
        for qubit, factor in self.factors.items():
            values *= factor[(indices >> position(qubit)) & 1]
        return values

    def branch(self, pattern: tuple[int, int]) -> tuple[Array, complex, float] | None:
        """The core slice of a pattern's branch, the amplitude its fixed
        factored qubits contribute, and the branch's squared norm; None,
        without reading the core or paying what the block owes, when a
        factor rules it out by :meth:`resolved`'s rule."""
        if self.resolved(pattern) is None:
            return None
        mask, bits = pattern
        self.flush()
        amplitude = 1.0
        weight = 1.0
        for qubit, factor in self.factors.items():
            if mask >> qubit & 1:
                amplitude *= complex(factor[bits >> qubit & 1])
            elif factor is not _ZERO and factor is not _ONE:  # a ket's weight is 1
                weight *= float(np.vdot(factor, factor).real)
        kept = self.view(pattern)
        weight *= abs(amplitude) ** 2 * float(np.vdot(kept, kept).real)
        return kept, amplitude, weight

    def hadamard(self, target: int) -> None:
        """A Hadamard: a factored target's 2-vector updates now, and any
        other target toggles in the pending layer, since Hadamards on
        distinct qubits commute and a repeated one cancels.

        A target outside the pending run commutes with it, and so does an
        owed control, whose Hadamard waits for the merge; a core control or
        the run's target first flushes the block, as a zeroed slice does.
        """
        factor = self.factors.get(target)
        if factor is not None:
            low, high = factor
            self.factors[target] = np.array([low + high, low - high]) * _SQRT_HALF
            return
        run = self.run
        if self.zeroed or run and (run[1] == target or run[0] >> target & 1 and target not in self.owed):
            self.flush()
        self.layer ^= {target}

    def flush(self) -> None:
        """Pay what the block owes, in place: merge the owed qubits into the
        core and swap the run, then apply the layer, then zero each
        recorded slice.

        The layer's qubits are grouped into runs of at most 4 adjacent
        axes, and each run is one fast Walsh-Hadamard pass: its +-1
        Sylvester matrix applied to the float64 view of the core (H is
        real, so real and imaginary parts transform alike), with the
        2**(-k/2) scale folded into the last pass.  A pass goes slab by
        slab over the larger of the dimensions before and after the run,
        in at most 8 slabs, so its scratch is about an eighth of the core.
        """
        if self.run:
            if self.owed:
                self.factors.update(self.owed)
                self.axes, self.core = self.merged(self.owed)
                for qubit in self.owed:
                    del self.factors[qubit]
                self.owed = {}
            self.swap(*self.run)
            self.run = None
        if self.layer:
            runs: list[list[int]] = []  # [first axis, length]
            for axis in (i for i, qubit in enumerate(self.axes) if qubit in self.layer):
                if runs and runs[-1][0] + runs[-1][1] == axis and runs[-1][1] < 4:
                    runs[-1][1] += 1
                else:
                    runs.append([axis, 1])
            scale = 2.0 ** (-0.5 * len(self.layer))
            real = self.core.reshape(-1).view(np.float64)
            for i, (first, length) in enumerate(runs):
                matrix = _SYLVESTER[length] * scale if i == len(runs) - 1 else _SYLVESTER[length]
                _transform(real.reshape(1 << first, 1 << length, -1), matrix)
            self.layer = frozenset()
        for pattern in self.zeroed:
            self.view(pattern)[...] = 0.0
        self.zeroed = []

    def phase(self, target: int, rotation: complex) -> None:
        factor = self.factors.get(target)
        if factor is not None:
            self.factors[target] = np.array([factor[0], factor[1] * rotation])
            return
        self.core.reshape(1 << self.axes.index(target), 2, -1)[:, 1, :] *= rotation

    def toggle(self, pattern: tuple[int, int], target: int) -> None:
        """MCX with controls ``pattern``, recorded in the pending run.

        A gate with the run's control mask and target, on a block that
        owes nothing after the run, toggles its control bits in the run's
        set, so a repeated one cancels.  Any other gate first flushes the
        block and starts a new run; its factored controls and target move
        to ``owed``, unmerged.
        """
        mask, bits = pattern
        run = self.run
        if run is None or run[0] != mask or run[1] != target or self.layer or self.zeroed:
            self.flush()
            new = [q for q in self.factors if mask >> q & 1 or q == target]
            self.owed = {q: self.factors.pop(q) for q in new}
            self.run = run = (mask, target, set())
        run[2].symmetric_difference_update((bits,))

    def swap(self, mask: int, target: int, patterns: Iterable[int]) -> None:
        """MCX gates with the same core control ``mask`` and core
        ``target``, one per control bits in ``patterns``, each at most
        once, so the swaps are disjoint: one swap over all of them.

        One pattern indexes the core by integers, a view; several by one
        shift-and-mask of an int64 array per control axis, a copy.
        """
        patterns = list(patterns)
        if not patterns:
            return
        bits = patterns[0] if len(patterns) == 1 else np.array(patterns, np.int64)
        index = [bits >> q & 1 if mask >> q & 1 else slice(None) for q in self.axes]
        position = self.axes.index(target)
        index[position] = 0
        low = tuple(index)
        index[position] = 1
        high = tuple(index)
        swapped = self.core[low]
        if len(patterns) == 1:
            swapped = swapped.copy()
        self.core[low] = self.core[high]
        self.core[high] = swapped

    def resolved(self, pattern: tuple[int, int]) -> Pattern | None:
        """``pattern`` less the factored controls that always match, or None
        if one never matches.  A factored control is decided when its
        factor has an exact zero entry, as a basis ket has."""
        mask, bits = pattern
        for qubit, factor in self.factors.items():
            if mask >> qubit & 1 and not (factor[0] and factor[1]):
                if not factor[bits >> qubit & 1]:
                    return None
                mask ^= 1 << qubit
        return Pattern(mask, bits & mask)

    def splits(self, pattern: tuple[int, int], target: int) -> bool:
        """Whether the target is a basis ket and every control a core
        qubit or a factor that :meth:`resolved` decides."""
        factor = self.factors.get(target)
        if factor is not _ZERO and factor is not _ONE:
            return False
        mask = pattern[0]
        return not any(mask >> q & 1 and f[0] and f[1] for q, f in self.factors.items())

    def split(self, pattern: tuple[int, int], target: int) -> "_Block | None":
        """MCX on a block that :meth:`splits`; returns the block the matched
        slice moves to, or None if nothing moved out.

        The matched slice is read through what the block owes when the
        controls fix every layer qubit, every owed qubit and the run's
        target, a core qubit: it is then the core's sum over the core
        layer qubits, signed by their bits (:func:`_signed_sum`), read
        through the run (:meth:`through_run`) and scaled by
        2**(-|layer|/2).  That costs O(core), and the block still owes all
        of it.  Any other split flushes the block first and copies the
        slice.  Either way the slice is recorded for zeroing at the next
        flush.  A slice inside a record is zero already, so nothing moves.
        """
        pattern = self.resolved(pattern)
        if pattern is None:
            return None
        flipped = _ONE if self.factors[target] is _ZERO else _ZERO
        if not pattern.mask:
            self.factors[target] = flipped
            return None
        mask, bits = pattern
        met = [zmask for zmask, zbits in self.zeroed if not (zbits ^ bits) & zmask & mask]
        if any(not zmask & ~mask for zmask in met):
            return None
        factors = dict(self.factors)
        for qubit, bit in pattern.pairs:
            factors[qubit] = _KETS[bit]
        factors[target] = flipped
        # owed qubits join the core at the flush, so they count as core axes
        axes = tuple(q for q in sorted((*self.axes, *self.owed)) if not mask >> q & 1)
        run = self.run
        if met or any(not mask >> q & 1 for q in (*self.layer, *self.owed)) or run and (
            run[1] in self.owed or not mask >> run[1] & 1
        ):
            self.flush()
            run = None
        swapped = run[1] if run else -1
        read = [q for q in self.axes if not mask >> q & 1 or q in self.layer or q == swapped]
        matched = self.view((mask & ~sum(1 << q for q in read), bits))
        core = _signed_sum(matched, [(read.index(q), bits >> q & 1) for q in read if q in self.layer])
        if run:
            core = self.through_run(core, pattern, axes)
        if self.layer:
            core *= 2.0 ** (-0.5 * len(self.layer))
        self.zeroed.append(pattern)
        return _Block(core, axes, factors)

    def through_run(self, summed: Array, pattern: Pattern, axes: tuple[int, ...]) -> Array:
        """The matched slice of a split read through the pending run, but
        for the layer's scale: :meth:`split` sums the unswapped core's
        slice over the core layer qubits into ``summed``, whose axes are
        the free core qubits ``axes`` and the run's target.

        The slice is that sum at the controls' target bit times each owed
        qubit's entry at its bit (its signed entry sum if it is a layer
        qubit), plus one correction per run tuple the controls admit: the
        swap's difference, the sum at the other target bit less that one,
        times the tuple's owed entries, signed by its bits on the layer
        qubits.  Tuples that meet the same free core controls add up
        first, so the cost is O(summed) plus O(tuples).
        """
        mask, bits = pattern
        controls, swapped, patterns = self.run
        at = (slice(None),) * sum(q < swapped for q in axes)
        kept, other = summed[(*at, bits >> swapped & 1)], summed[(*at, 1 - (bits >> swapped & 1))]
        # tuples that disagree with the controls outside the layer never meet the slice
        tuples = np.array(list(patterns), np.int64)
        tuples = tuples[(tuples ^ bits) & controls & mask & ~sum(1 << q for q in self.layer) == 0]
        scalar = 1.0
        weights = np.ones(len(tuples), np.complex128)
        for qubit, factor in self.owed.items():
            if qubit in self.layer:
                factor = factor * (1, 1 - 2 * (bits >> qubit & 1))
                scalar *= factor[0] + factor[1]
            else:
                scalar *= factor[bits >> qubit & 1]
            weights *= factor[tuples >> qubit & 1]
        position = np.zeros(len(tuples), np.int64)
        for qubit in axes:
            if controls >> qubit & 1:
                position = position << 1 | tuples >> qubit & 1
        share = np.zeros(1 << sum(controls >> q & 1 for q in axes), np.complex128)
        np.add.at(share, position, weights)
        share = share.reshape([2 if controls >> q & 1 else 1 for q in axes])
        return kept * (scalar - share) + other * share


class StateVector:
    """Amplitudes over a :class:`RegisterLayout`: a sum of disjoint blocks,
    each a dense core times qubit factors."""

    __slots__ = ("layout", "_stored")

    def __init__(self, layout: RegisterLayout, blocks: list[_Block]):
        self.layout = layout
        self._stored = blocks

    @property
    def _blocks(self) -> list[_Block]:
        """The blocks, each flushed: its pending run, layer and zeroing paid.

        Every read and write of the blocks goes through here, so none
        sees a stale state, except Hadamard and MCX gates,
        :meth:`probability` and :meth:`postselect`: they reach a core
        only through ``_Block`` methods that apply what it owes as they
        need.
        """
        for block in self._stored:
            block.flush()
        return self._stored

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def ground(cls, layout: RegisterLayout) -> "StateVector":
        """All-zeros basis state.

        Raises
        ------
        CapacityError
            If the register is wider than one numpy array can hold.
        """
        return cls.product(layout, {})

    @classmethod
    def product(
        cls,
        layout: RegisterLayout,
        factors: Mapping[int, Sequence[complex]],
    ) -> "StateVector":
        """Product state: ``factors`` maps qubits to 2-vectors, and every
        qubit not named starts in |0>.

        Raises
        ------
        CapacityError
            As :meth:`ground`: the state may later be merged up to the
            full register width.
        ValueError
            If a qubit is outside the register or a factor is not a
            non-zero 2-vector.
        """
        if layout.total > _WIDEST:
            raise CapacityError(
                f"register needs {layout.total} qubits but numpy cannot hold a dense "
                f"vector wider than {_WIDEST} qubits"
            )
        vectors = dict.fromkeys(range(layout.total), _ZERO)
        for qubit, factor in factors.items():
            if qubit not in vectors:
                raise ValueError(f"qubit {qubit} outside register of {layout.total} qubits")
            vector = np.array(factor, dtype=np.complex128)
            if vector.shape != (2,) or not vector.any():
                raise ValueError(f"factor for qubit {qubit} must be a non-zero 2-vector")
            vectors[qubit] = vector
        return cls(layout, [_Block(np.ones((), dtype=np.complex128), (), vectors)])

    @classmethod
    def from_amplitudes(cls, layout: RegisterLayout, values: Iterable[complex]) -> "StateVector":
        """Copy an explicit amplitude vector (length must be 2**total)."""
        amplitudes = np.asarray(values, dtype=np.complex128).copy()
        if amplitudes.shape != (1 << layout.total,):
            raise ValueError(
                f"amplitude vector must have length 2**{layout.total}, "
                f"got shape {amplitudes.shape}"
            )
        total = layout.total
        return cls(layout, [_Block(amplitudes.reshape((2,) * total), tuple(range(total)), {})])

    def copy(self) -> "StateVector":
        return StateVector(self.layout, [block.copy() for block in self._blocks])

    # ------------------------------------------------------------------
    # inspection

    @property
    def amplitudes(self) -> Array:
        """The full amplitude vector of length 2**total, read-only.

        Factored qubits are multiplied in on each access, at the cost of
        a full-width allocation.  Once every qubit of a single block is
        merged it is a view of the live core instead: copy it to keep a
        snapshot.  Hadamards applied after such a view was taken show in
        it only after the next read through the state.  A state of
        several blocks is first summed into one, as in :meth:`extract`,
        so it is a new vector, never a view.
        """
        block = self._joined()
        _, tensor = block.merged(block.factors)
        flat = tensor.reshape(-1)
        flat.flags.writeable = False
        return flat

    def amplitudes_at(self, indices) -> Array:
        """Amplitudes at integer basis indices, without the full vector.

        Each is the sum over blocks of the core entry its core qubits'
        bits select times the factor entries of the factored qubits' bits.

        Raises
        ------
        TypeError
            If the indices are not integers (an empty list is allowed).
        ValueError
            If an index lies outside [0, 2**total).
        """
        indices = np.asarray(indices)
        # a float index is never truncated; numpy reads [] as float64
        if indices.size and indices.dtype.kind not in "iu":
            raise TypeError(f"basis indices must be integers, got {indices.dtype}")
        indices = indices.astype(np.int64, copy=False)
        if indices.size and (indices.min() < 0 or indices.max() >= 1 << self.layout.total):
            raise ValueError(f"basis index outside [0, 2**{self.layout.total})")
        first, *rest = self._blocks
        values = first.gather(indices, self.layout.bit_position)
        for block in rest:
            values += block.gather(indices, self.layout.bit_position)
        return values

    def norm(self) -> float:
        return math.hypot(*(block.norm() for block in self._blocks))

    def probability(self, pattern: Pattern | Iterable[tuple[int, int]]) -> float:
        """Squared norm of the components matching a pattern: (qubit, bit)
        pairs or a :class:`Pattern`, checked by :func:`control_pattern`."""
        pattern = control_pattern(pattern, self.layout.total)
        branches = (block.branch(pattern) for block in self._stored)
        return sum((branch[2] for branch in branches if branch is not None), 0.0)

    def max_difference(self, other: "StateVector") -> float:
        """Largest |a - b| over all amplitudes a of this state and b of ``other``.

        When both hold the same blocks in the same order, with equal core
        axes and equal factors, block k of one differs from block k of
        the other by (core_a - core_b) times their shared factors, and
        blocks have disjoint support.  The answer is then the largest
        max |core_a - core_b| times the product of the factors' largest
        |entry|, and no full vector is built.  Otherwise it compares the
        two full vectors.
        """
        if other.layout != self.layout:
            raise ValueError("states have different layouts")
        pairs = list(zip(self._blocks, other._blocks))
        if len(self._blocks) != len(other._blocks) or not all(
            a.axes == b.axes and all(_same(b.factors[q], f) for q, f in a.factors.items())
            for a, b in pairs
        ):
            return float(np.max(np.abs(self.amplitudes - other.amplitudes)))
        worst = 0.0
        for a, b in pairs:
            difference = float(np.max(np.abs(a.core - b.core)))
            for factor in a.factors.values():
                difference *= float(np.max(np.abs(factor)))
            worst = max(worst, difference)
        return worst

    # ------------------------------------------------------------------
    # unitary updates (in place)

    def apply(self, gate: Gate) -> "StateVector":
        """Apply one gate in place and return self.

        A Hadamard on a core qubit takes effect at the next read of the
        state, together with any others pending.
        """
        if not isinstance(gate, Gate):
            raise TypeError(f"not a gate: {gate!r}")
        target = gate.target
        self._check_qubit(target)
        if isinstance(gate, MCX):
            if gate.mask >> self.layout.total:
                self._check_qubit(gate.mask.bit_length() - 1)
            self._mcx((gate.mask, gate.bits), target)
        elif isinstance(gate, Hadamard):
            for block in self._merge_back(target):
                block.hadamard(target)
        else:
            self._merge_back(target)
            rotation = np.exp(2j * np.pi / (1 << gate.k))
            for block in self._blocks:
                block.phase(target, rotation)
        return self

    def apply_projector_terms(
        self, terms: Sequence[tuple[Pattern | Sequence[tuple[int, int]], Sequence[int]]]
    ) -> "StateVector":
        """Apply a sum of (projector pattern, X targets) terms in place; a
        pattern is as in :meth:`probability`.

        Each term flips the listed target qubits on exactly the basis
        states matching its pattern; basis states matching no pattern
        pass through unchanged (the identity complement is implicit).
        Patterns must be pairwise orthogonal: every pair has to disagree
        on at least one shared qubit.  An unconditional term (empty
        pattern) is allowed only on its own.  The check is linear in the
        term count when the terms fix few distinct qubit sets (see
        ``_overlap``).

        This is the gate-free path used to cross-check compiled circuits.
        """
        cleaned: list[tuple[Pattern, tuple[int, ...]]] = []
        for pattern, targets in terms:
            required = control_pattern(pattern, self.layout.total)
            flipped = tuple(targets)
            # the targets as a pattern: distinct qubits in the register
            if control_pattern([(q, 1) for q in flipped], self.layout.total).mask & required.mask:
                raise ValueError("projector term targets a qubit fixed by its own pattern")
            cleaned.append((required, flipped))

        if _overlap(required for required, _ in cleaned):
            raise ValueError("projector patterns overlap; terms must be mutually orthogonal")

        # targets commute and sit outside the pattern: one MCX each, and
        # terms on the same qubits and target join one pending run
        for required, flipped in cleaned:
            for qubit in flipped:
                self._mcx(required, qubit)
        return self

    # ------------------------------------------------------------------
    # non-unitary

    def postselect(
        self, pattern: Pattern | Iterable[tuple[int, int]]
    ) -> tuple["StateVector", float]:
        """Project onto a pattern, as in :meth:`probability`, and renormalize.

        Returns the renormalized projection and the pre-renormalization
        squared norm (the probability a plain measurement would have
        landed on this branch).  ``self`` is left unchanged, each fixed
        qubit becomes a basis factor of the result, and blocks the
        pattern rules out are dropped.

        Raises
        ------
        ValueError
            If the pattern is empty or the projection has no support.
        """
        pattern = control_pattern(pattern, self.layout.total)
        if not pattern.mask:
            raise ValueError("post-selection pattern is empty")
        branches = [
            (block, branch)
            for block in self._stored
            if (branch := block.branch(pattern)) is not None
        ]
        probability = sum((weight for _, (_, _, weight) in branches), 0.0)
        if probability == 0.0:
            raise ValueError("post-selection pattern has no support in the state")
        blocks = []
        for block, (kept, amplitude, _) in branches:
            core = np.multiply(
                kept, amplitude / np.sqrt(probability), out=np.empty(kept.shape, np.complex128)
            )
            factors = dict(block.factors)
            for qubit, bit in pattern.pairs:
                factors[qubit] = _KETS[bit]
            blocks.append(_Block(core, tuple(q for q in block.axes if not pattern.mask >> q & 1), factors))
        return StateVector(self.layout, blocks), probability

    def extract(self, qubits: Sequence[int], tol: float = 1e-10) -> Array:
        """Read the state of a subsystem that must be unentangled.

        Parameters
        ----------
        qubits
            Ordered qubit list; the first named qubit becomes the most
            significant bit of the returned vector's index.
        tol
            Largest tolerated relative weight outside the principal
            component of the subsystem Gram matrix.

        Returns
        -------
        Normalized complex vector of length 2**len(qubits), defined up
        to a global phase.

        Notes
        -----
        A state of several blocks is first summed into one.  When the
        picked qubits are the whole core, the result is the core,
        normalised.  Otherwise, with M the picked-by-rest matrix of the
        core, the Gram matrix G = M M^H is formed and fully diagonalised:
        the residual is 1 - lambda_max / trace(G), and the result is the
        top eigenvector.

        Raises
        ------
        EntanglementError
            If the named qubits are entangled with the rest of the
            register beyond ``tol``.
        TypeError
            If a qubit is not an integer.
        """
        picked = [operator.index(q) for q in qubits]
        if not picked:
            raise ValueError("need at least one qubit to extract")
        if len(set(picked)) != len(picked):
            raise ValueError(f"duplicate qubits in {qubits!r}")
        for qubit in picked:
            self._check_qubit(qubit)

        # factored qubits outside the pick are exact product factors and
        # cannot entangle with it, so only the core takes part
        axes, tensor = self._joined().merged(picked)
        rest = [q for q in axes if q not in picked]
        order = [axes.index(q) for q in (*picked, *rest)]
        matrix = np.transpose(tensor, order).reshape(1 << len(picked), -1)
        if not rest:
            vec = matrix.reshape(-1)
            scale = np.linalg.norm(vec)
            if scale == 0.0:
                raise ValueError("cannot extract from the zero vector")
            return vec / scale

        gram = matrix @ matrix.conj().T
        trace = float(np.real(np.trace(gram)))
        if trace == 0.0:
            raise ValueError("cannot extract from the zero vector")
        evals, evecs = np.linalg.eigh(gram)
        residual = 1.0 - float(evals[-1]) / trace
        if residual > tol:
            raise EntanglementError(
                f"qubits {picked} are entangled with the rest of the register "
                f"(residual weight {residual:.3e} exceeds {tol:.1e})"
            )
        return np.asarray(evecs[:, -1], dtype=np.complex128)

    # ------------------------------------------------------------------
    # internals

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.layout.total:
            raise ValueError(
                f"qubit {qubit} outside register of {self.layout.total} qubits"
            )

    def _joined(self) -> _Block:
        """The blocks summed into one, over the union of their core axes
        and every qubit whose factor differs between them."""
        first, *rest = self._blocks
        if not rest:
            return first
        shared = {
            q: f for q, f in first.factors.items()
            if all(_same(block.factors.get(q), f) for block in rest)
        }
        core = None
        for block in self._blocks:
            axes, tensor = block.merged(block.factors.keys() - shared.keys())
            core = tensor if core is None else core + tensor
        return _Block(core, axes, shared)

    def _merge_back(self, target: int) -> list[_Block]:
        """The stored blocks, first summed into one if ``target`` tells
        them apart: a |0> or |1> factor in every block, but not the same
        one in all."""
        blocks = self._stored
        if len(blocks) > 1:
            kets = [block.factors.get(target) for block in blocks]
            if all(k is _ZERO or k is _ONE for k in kets) and any(k is not kets[0] for k in kets):
                self._stored = blocks = [self._joined()]
        return blocks

    def _mcx(self, pattern: tuple[int, int], target: int) -> None:
        """MCX with controls ``pattern``, a checked (mask, bits) pair that
        does not fix ``target``, a checked qubit."""
        blocks = self._stored
        if len(blocks) == 1:
            factor = blocks[0].factors.get(target)
            if factor is not _ZERO and factor is not _ONE:
                blocks[0].toggle(pattern, target)
                return
        else:
            blocks = self._merge_back(target)
        if not all(block.splits(pattern, target) for block in blocks):
            for block in blocks:
                resolved = block.resolved(pattern)
                if resolved is not None:
                    block.toggle(resolved, target)
            return
        for block in tuple(blocks):
            new = block.split(pattern, target)
            if new is not None:
                blocks.append(new)


def align_phase(vector: Array, reference: Array) -> Array:
    """Rotate ``vector`` by the global phase matching ``reference``.

    The phase is fixed at the reference's largest-magnitude component.
    If the vector vanishes there, no rotation can help and a copy is
    returned unchanged.
    """
    vector = np.asarray(vector, dtype=np.complex128)
    reference = np.asarray(reference, dtype=np.complex128)
    if vector.shape != reference.shape:
        raise ValueError(f"shape mismatch: {vector.shape} vs {reference.shape}")
    pivot = int(np.argmax(np.abs(reference)))
    rotation = reference[pivot] * np.conj(vector[pivot])
    magnitude = abs(rotation)
    if magnitude == 0.0:
        return vector.copy()
    return vector * (rotation / magnitude)
