"""Register state as a dense core times exact single-qubit factors.

A state is held in two parts.  The core is a complex128 tensor of shape
``(2,) * len(axes)`` over the merged qubits, ``axes``, in ascending qubit
order.  Every other qubit is an exact factor: a 2-vector in a dict, never
written in place, so copies can share it.  The full vector is the tensor
product of the core and the factors, and one addressing rule holds for
it: qubit 0 is the most significant bit of a basis index.  In the core,
qubit ``axes[i]`` is axis i, so fixing some core qubits to bits is a
basic slice, and every kernel works on such writable views without
building index arrays; single-qubit gates merge the axes on either side
of the target, ``reshape(2**i, 2, -1)``.

``ground`` starts with an empty core and every qubit a |0> factor.
Hadamard and phase gates on a factored qubit update its 2-vector.  A gate
or projector term touching factored qubits first multiplies all of them
into the core, in one allocation, and then runs on the core in place.
Post-selection slices the core and turns each fixed qubit back into a
basis factor, so it never fills a full-width vector; ``amplitudes``
materialises the full vector only when asked, and ``amplitudes_at``
reads chosen amplitudes without it.  A single StateVector must
only ever be written from one thread, but distinct vectors are
independent.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, EntanglementError
from .gates import MCX, Gate, Hadamard, PhaseK
from .layout import RegisterLayout

Array = np.ndarray

# widest register numpy can allocate: the vector's 2**(total + 4) bytes must
# fit in np.intp, which allows 58 qubits on 64-bit builds (numpy's limit of 64
# axes, one per qubit, is looser)
_WIDEST = np.iinfo(np.intp).max.bit_length() - 5

_SQRT_HALF = 2.0 ** -0.5

# largest residual bound ``extract`` answers with one power step: the step
# leaves at most about bound**3 infidelity against the top eigenvector, so
# up to 1e-5 its answer is the eigendecomposition's to within 1e-15
_POWER_STEP_BOUND = 1e-5

# rows are the |0> and |1> factors, shared by every state that uses them
_BASIS = np.eye(2, dtype=np.complex128)
_BASIS.flags.writeable = False


class StateVector:
    """Amplitudes over a :class:`RegisterLayout`: a dense core times qubit factors."""

    __slots__ = ("layout", "_core", "_axes", "_factors")

    def __init__(
        self,
        layout: RegisterLayout,
        core: Array,
        axes: tuple[int, ...],
        factors: dict[int, Array],
    ):
        self.layout = layout
        self._core = core
        self._axes = axes
        self._factors = factors

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
        vectors = dict.fromkeys(range(layout.total), _BASIS[0])
        for qubit, factor in factors.items():
            if qubit not in vectors:
                raise ValueError(f"qubit {qubit} outside register of {layout.total} qubits")
            vector = np.array(factor, dtype=np.complex128)
            if vector.shape != (2,) or not vector.any():
                raise ValueError(f"factor for qubit {qubit} must be a non-zero 2-vector")
            vectors[qubit] = vector
        return cls(layout, np.ones((), dtype=np.complex128), (), vectors)

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
        return cls(layout, amplitudes.reshape((2,) * total), tuple(range(total)), {})

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self._core.copy(), self._axes, dict(self._factors))

    # ------------------------------------------------------------------
    # inspection

    @property
    def amplitudes(self) -> Array:
        """The full amplitude vector of length 2**total, read-only.

        Factored qubits are multiplied in on each access, at the cost of
        a full-width allocation.  Once every qubit is merged it is a view
        of the live core instead: copy it to keep a snapshot.
        """
        _, tensor = self._merged(self._factors)
        flat = tensor.reshape(-1)
        flat.flags.writeable = False
        return flat

    def amplitudes_at(self, indices) -> Array:
        """Amplitudes at int64 basis indices, without the full vector.

        Each is the core entry its core qubits' bits select times the
        factor entries of the factored qubits' bits.

        Raises
        ------
        ValueError
            If an index lies outside [0, 2**total).
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= 1 << self.layout.total):
            raise ValueError(f"basis index outside [0, 2**{self.layout.total})")
        position = self.layout.bit_position
        core_index = np.zeros(indices.shape, dtype=np.int64)
        for qubit in self._axes:
            core_index = (core_index << 1) | ((indices >> position(qubit)) & 1)
        values = self._core.reshape(-1)[core_index]
        for qubit, factor in self._factors.items():
            values *= factor[(indices >> position(qubit)) & 1]
        return values

    def norm(self) -> float:
        norm = float(np.linalg.norm(self._core))
        for factor in self._factors.values():
            norm *= float(np.linalg.norm(factor))
        return norm

    def probability(self, pattern: Iterable[tuple[int, int]]) -> float:
        """Squared norm of the components matching a (qubit, bit) pattern."""
        return self._branch(self._fixed(pattern))[2]

    # ------------------------------------------------------------------
    # unitary updates (in place)

    def apply(self, gate: Gate) -> "StateVector":
        """Apply one gate in place and return self."""
        if isinstance(gate, Hadamard):
            self._hadamard(gate.target)
        elif isinstance(gate, PhaseK):
            self._phase(gate.target, gate.k)
        elif isinstance(gate, MCX):
            self._mcx(gate.controls, gate.target)
        else:
            raise TypeError(f"not a gate: {gate!r}")
        return self

    def apply_all(self, gates: Iterable[Gate]) -> "StateVector":
        for gate in gates:
            self.apply(gate)
        return self

    def apply_projector_terms(
        self, terms: Sequence[tuple[Sequence[tuple[int, int]], Sequence[int]]]
    ) -> "StateVector":
        """Apply a sum of (projector pattern, X targets) terms in place.

        Each term flips the listed target qubits on exactly the basis
        states matching its pattern; basis states matching no pattern
        pass through unchanged (the identity complement is implicit).
        Patterns must be pairwise orthogonal: every pair has to disagree
        on at least one shared qubit.  An unconditional term (empty
        pattern) is allowed only on its own.

        This is the gate-free path used to cross-check compiled circuits.
        """
        cleaned: list[tuple[dict[int, int], tuple[int, ...]]] = []
        for pattern, targets in terms:
            required = self._fixed(pattern)
            flipped = tuple(targets)
            for i, qubit in enumerate(flipped):
                self._check_qubit(qubit)
                if qubit in required:
                    raise ValueError(
                        f"projector term targets qubit {qubit} fixed by its own pattern"
                    )
                if qubit in flipped[:i]:
                    raise ValueError(f"duplicate target qubit {qubit}")
            cleaned.append((required, flipped))

        for i in range(len(cleaned)):
            for j in range(i + 1, len(cleaned)):
                a, b = cleaned[i][0], cleaned[j][0]
                if not any(q in b and b[q] != bit for q, bit in a.items()):
                    raise ValueError(
                        "projector patterns overlap; terms must be mutually orthogonal"
                    )

        # targets commute and sit outside the pattern: one swap each
        for required, flipped in cleaned:
            for qubit in flipped:
                self._mcx(tuple(required.items()), qubit)
        return self

    # ------------------------------------------------------------------
    # non-unitary

    def postselect(
        self, pattern: Iterable[tuple[int, int]]
    ) -> tuple["StateVector", float]:
        """Project onto a (qubit, bit) pattern and renormalize.

        Returns the renormalized projection and the pre-renormalization
        squared norm (the probability a plain measurement would have
        landed on this branch).  ``self`` is left unchanged, and each
        fixed qubit becomes a basis factor of the result.

        Raises
        ------
        ValueError
            If the pattern is empty or the projection has no support.
        """
        fixed = self._fixed(pattern)
        if not fixed:
            raise ValueError("post-selection pattern is empty")
        kept, amplitude, probability = self._branch(fixed)
        if probability == 0.0:
            raise ValueError("post-selection pattern has no support in the state")
        core = np.multiply(
            kept, amplitude / np.sqrt(probability), out=np.empty(kept.shape, np.complex128)
        )
        axes = tuple(q for q in self._axes if q not in fixed)
        factors = dict(self._factors)
        for qubit, bit in fixed.items():
            factors[qubit] = _BASIS[bit]
        return StateVector(self.layout, core, axes, factors), probability

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
        With M the picked-by-rest matrix of the core, the residual is
        1 - lambda_max / trace of the Gram matrix G = M M^H.  For any unit
        v, lambda_max >= |v^H M|**2, so with v the heaviest column of M,
        normalised, ``bound = 1 - |v^H M|**2 / trace`` can only sit at or
        above the residual.  When the bound is within ``tol`` (and within
        1e-5, see ``_POWER_STEP_BOUND``) the result is M (v^H M)^H = G v
        normalised: one power step, exact for a product state.  That
        costs three passes over the core (column norms, the overlap row
        and one matrix-vector product) and builds no Gram matrix.
        Otherwise G is formed and fully diagonalised, which decides
        exactly.  The fast path never accepts a state the
        eigendecomposition would reject.

        Raises
        ------
        EntanglementError
            If the named qubits are entangled with the rest of the
            register beyond ``tol``.
        """
        picked = [int(q) for q in qubits]
        if not picked:
            raise ValueError("need at least one qubit to extract")
        if len(set(picked)) != len(picked):
            raise ValueError(f"duplicate qubits in {qubits!r}")
        for qubit in picked:
            self._check_qubit(qubit)

        # factored qubits outside the pick are exact product factors and
        # cannot entangle with it, so only the core takes part
        axes, tensor = self._merged(picked)
        rest = [q for q in axes if q not in picked]
        order = [axes.index(q) for q in (*picked, *rest)]
        matrix = np.transpose(tensor, order).reshape(1 << len(picked), -1)
        if not rest:
            vec = matrix.reshape(-1)
            scale = np.linalg.norm(vec)
            if scale == 0.0:
                raise ValueError("cannot extract from the zero vector")
            return vec / scale

        weights = np.einsum("ij,ij->j", matrix.real, matrix.real)
        weights += np.einsum("ij,ij->j", matrix.imag, matrix.imag)
        trace = float(weights.sum())
        if trace == 0.0:
            raise ValueError("cannot extract from the zero vector")
        heaviest = int(np.argmax(weights))
        column = matrix[:, heaviest] / np.sqrt(weights[heaviest])
        overlap = column.conj() @ matrix
        bound = 1.0 - float(np.vdot(overlap, overlap).real) / trace
        if bound <= min(tol, _POWER_STEP_BOUND):
            vec = matrix @ overlap.conj()
            return vec / np.linalg.norm(vec)

        # the bound failed or is too loose for one power step: decide exactly
        gram = matrix @ matrix.conj().T
        trace = float(np.real(np.trace(gram)))
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

    def _fixed(self, pattern: Iterable[tuple[int, int]]) -> dict[int, int]:
        fixed: dict[int, int] = {}
        for qubit, bit in pattern:
            self._check_qubit(qubit)
            if bit not in (0, 1):
                raise ValueError(f"pattern bit for qubit {qubit} must be 0 or 1")
            if qubit in fixed:
                raise ValueError(f"qubit {qubit} appears twice in pattern")
            fixed[qubit] = bit
        return fixed

    def _merged(self, qubits: Iterable[int]) -> tuple[tuple[int, ...], Array]:
        """Core axes and tensor with the factored ``qubits`` multiplied in.

        ``self`` is left unchanged; with nothing to merge the core itself
        is returned.  The factors' joint tensor is built first, so the
        result is the only allocation of its size.
        """
        new = sorted({q for q in qubits if q in self._factors})
        if not new:
            return self._axes, self._core
        joint = self._factors[new[-1]]
        if not self._axes:  # a scalar core rides on the last factor
            joint = joint * self._core
        # growing from the last qubit keeps the large operand innermost
        for qubit in reversed(new[:-1]):
            joint = np.multiply.outer(self._factors[qubit], joint)
        if not self._axes:
            return tuple(new), joint
        axes = tuple(sorted((*self._axes, *new)))
        in_core = set(self._axes)
        core = self._core.reshape([2 if q in in_core else 1 for q in axes])
        joint = joint.reshape([1 if q in in_core else 2 for q in axes])
        return axes, np.multiply(core, joint, out=np.empty((2,) * len(axes), np.complex128))

    def _merge(self, qubits: Sequence[int]) -> None:
        """Move the factored ``qubits`` into the core."""
        if any(q in self._factors for q in qubits):
            self._axes, self._core = self._merged(qubits)
            for qubit in qubits:
                self._factors.pop(qubit, None)

    def _view(self, pattern: Iterable[tuple[int, int]]) -> Array:
        """Writable view of the core matching a (qubit, bit) pattern on core qubits.

        Its axes are the unfixed core qubits in ascending order; with
        every core qubit fixed it is a 0-d view, not a copied scalar.
        """
        index: list[int | slice] = [slice(None)] * len(self._axes)
        for qubit, bit in pattern:
            index[self._axes.index(qubit)] = bit
        return self._core[(*index, ...)]

    def _branch(self, fixed: dict[int, int]) -> tuple[Array, complex, float]:
        """The core slice of a pattern's branch, the amplitude its fixed
        factored qubits contribute, and the branch's squared norm."""
        amplitude = 1.0
        weight = 1.0
        for qubit, factor in self._factors.items():
            bit = fixed.get(qubit)
            if bit is None:
                weight *= float(np.vdot(factor, factor).real)
            else:
                amplitude *= complex(factor[bit])
        kept = self._view((q, bit) for q, bit in fixed.items() if q not in self._factors)
        weight *= abs(amplitude) ** 2 * float(np.vdot(kept, kept).real)
        return kept, amplitude, weight

    def _hadamard(self, target: int) -> None:
        self._check_qubit(target)
        factor = self._factors.get(target)
        if factor is not None:
            low, high = factor
            self._factors[target] = np.array([low + high, low - high]) * _SQRT_HALF
            return
        # the target's axis with the axes on either side merged: three axes
        # instead of a _view's one per core qubit keep small-width calls cheap
        view = self._core.reshape(1 << self._axes.index(target), 2, -1)
        low = view[:, 0, :]
        high = view[:, 1, :]
        diff = low - high
        low += high
        high[...] = diff
        view *= _SQRT_HALF

    def _phase(self, target: int, k: int) -> None:
        self._check_qubit(target)
        rotation = np.exp(2j * np.pi / (1 << k))
        factor = self._factors.get(target)
        if factor is not None:
            self._factors[target] = np.array([factor[0], factor[1] * rotation])
            return
        self._core.reshape(1 << self._axes.index(target), 2, -1)[:, 1, :] *= rotation

    def _mcx(self, controls: tuple[tuple[int, int], ...], target: int) -> None:
        qubits = (*(q for q, _ in controls), target)
        for qubit in qubits:
            self._check_qubit(qubit)
        self._merge(qubits)
        low = self._view((*controls, (target, 0)))
        high = self._view((*controls, (target, 1)))
        swapped = low.copy()
        low[...] = high
        high[...] = swapped


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
