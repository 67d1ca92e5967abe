"""Dense statevector over the full register and its primitive updates.

Amplitudes live in one contiguous complex128 array of length
2**layout.total.  One addressing rule holds throughout: qubit q is axis
q of ``amplitudes.reshape((2,) * total)``, so qubit 0 is the most
significant bit of a basis index.  Fixing some qubits to bits is a basic
slice of that tensor, and every kernel works on such writable views, so
no index arrays are built; single-qubit gates merge the axes on either
side of the target, ``reshape(2**q, 2, -1)``.  Gate and projector
application mutate the array in place and never touch more memory than
the affected subspace; post-selection returns a fresh vector.  A single
StateVector must only ever be written from one thread, but distinct
vectors are independent.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, EntanglementError
from .gates import MCX, Gate, Hadamard, PhaseK
from .layout import RegisterLayout

Array = np.ndarray

DEFAULT_MAX_QUBITS = 26

# widest register numpy can allocate: the vector's 2**(total + 4) bytes must
# fit in np.intp, which allows 58 qubits on 64-bit builds (numpy's limit of 64
# axes, one per qubit, is looser)
_WIDEST = np.iinfo(np.intp).max.bit_length() - 5

_SQRT_HALF = 2.0 ** -0.5


class StateVector:
    """Dense amplitude vector over a :class:`RegisterLayout`."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: RegisterLayout, amplitudes: Array):
        self.layout = layout
        self.amplitudes = amplitudes

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def ground(cls, layout: RegisterLayout, max_qubits: int | None = None) -> "StateVector":
        """All-zeros basis state.

        Raises
        ------
        CapacityError
            If the register needs more than 2**max_qubits amplitudes
            (default cap 2**26), or is wider than one numpy array can
            hold, whatever the cap.
        """
        cap = DEFAULT_MAX_QUBITS if max_qubits is None else int(max_qubits)
        if layout.total > cap:
            raise CapacityError(
                f"register needs {layout.total} qubits (2**{layout.total} amplitudes) "
                f"but the cap is {cap} qubits; raise the cap explicitly to proceed"
            )
        if layout.total > _WIDEST:
            raise CapacityError(
                f"register needs {layout.total} qubits but numpy cannot hold a dense "
                f"vector wider than {_WIDEST} qubits"
            )
        amplitudes = np.zeros(1 << layout.total, dtype=np.complex128)
        amplitudes[0] = 1.0
        return cls(layout, amplitudes)

    @classmethod
    def from_amplitudes(cls, layout: RegisterLayout, values: Iterable[complex]) -> "StateVector":
        """Copy an explicit amplitude vector (length must be 2**total)."""
        amplitudes = np.asarray(values, dtype=np.complex128).copy()
        if amplitudes.shape != (1 << layout.total,):
            raise ValueError(
                f"amplitude vector must have length 2**{layout.total}, "
                f"got shape {amplitudes.shape}"
            )
        return cls(layout, amplitudes)

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amplitudes.copy())

    # ------------------------------------------------------------------
    # inspection

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability(self, pattern: Iterable[tuple[int, int]]) -> float:
        """Squared norm of the components matching a (qubit, bit) pattern."""
        matched = self._view(pattern)
        return float(np.real(np.vdot(matched, matched)))

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
                self._mcx(required.items(), qubit)
        return self

    # ------------------------------------------------------------------
    # non-unitary

    def postselect(
        self, pattern: Iterable[tuple[int, int]]
    ) -> tuple["StateVector", float]:
        """Project onto a (qubit, bit) pattern and renormalize.

        Returns the renormalized projection and the pre-renormalization
        squared norm (the probability a plain measurement would have
        landed on this branch).

        Raises
        ------
        ValueError
            If the pattern is empty or the projection has no support.
        """
        pattern = tuple(pattern)
        if not pattern:
            raise ValueError("post-selection pattern is empty")
        kept = self._view(pattern)
        probability = float(np.real(np.vdot(kept, kept)))
        if probability == 0.0:
            raise ValueError("post-selection pattern has no support in the state")
        out = StateVector(self.layout, np.zeros_like(self.amplitudes))
        out._view(pattern)[...] = kept / np.sqrt(probability)
        return out, probability

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

        total = self.layout.total
        rest = [q for q in range(total) if q not in set(picked)]
        tensor = self.amplitudes.reshape((2,) * total)
        matrix = np.transpose(tensor, picked + rest).reshape(1 << len(picked), -1)
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

    def _view(self, pattern: Iterable[tuple[int, int]]) -> Array:
        """Writable view of the amplitudes matching a (qubit, bit) pattern.

        Its axes are the unfixed qubits in ascending order.
        """
        index: list[int | slice] = [slice(None)] * self.layout.total
        for qubit, bit in self._fixed(pattern).items():
            index[qubit] = bit
        return self.amplitudes.reshape((2,) * self.layout.total)[tuple(index)]

    def _hadamard(self, target: int) -> None:
        self._check_qubit(target)
        # the target's axis with the axes on either side merged: three axes
        # instead of a _view's total - 1 keep small-width calls cheap
        view = self.amplitudes.reshape(1 << target, 2, -1)
        low = view[:, 0, :]
        high = view[:, 1, :]
        diff = low - high
        low += high
        high[...] = diff
        view *= _SQRT_HALF

    def _phase(self, target: int, k: int) -> None:
        self._check_qubit(target)
        factor = np.exp(2j * np.pi / (1 << k))
        self.amplitudes.reshape(1 << target, 2, -1)[:, 1, :] *= factor

    def _mcx(self, controls: Iterable[tuple[int, int]], target: int) -> None:
        controls = tuple(controls)
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
