"""Fixed-point quantization of a target state into bit matrices.

A target with magnitudes g_j and phases t_j (in turns) is approximated at
precision m by integers

    a_j = min(round(g_j * 2**m), 2**m - 1)        amplitude levels
    p_j = round(t_j * 2**m) mod 2**m              phase levels

with round meaning half-away-from-zero; numpy's ``round`` rounds half to
even and is deliberately not used.  The bit rows of a_j drive amplitude
selection in the circuit and the bit rows of p_j drive phase
accumulation.  The state the circuit actually emits is the reconstruction

    (a_j / G) * exp(2*pi*i * p_j / 2**m),   G = sqrt(sum_j a_j**2),

so fidelity against the reconstruction must be ~1 for a correct circuit.

Against the original target the promise is m-bit precision per
component.  With eps_j = |a_j/2**m - g_j| and delta_j the circular
distance in turns between p_j/2**m and t_j (0 where g_j = 0):

1. eps_j <= 2**-(m+1) (2**-m where g_j > 1 - 2**-(m+1), the clamp) and
   delta_j <= 2**-(m+1);
2. eps_j and delta_j are non-increasing in m, because the m-bit grid,
   clamp range included, is part of the (m+1)-bit grid;
3. the infidelity of the emitted state against the target is at most
   B_m = sum_j (eps_j + 2*g_j*sin(pi*delta_j))**2, which by (2) is
   non-increasing in m.

The fidelity itself need not rise with every added bit: normalising by G
keeps only the ratios of the levels, and those can move away from the
target's ratios while each level moves closer to its own magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError

Array = np.ndarray

_NORM_TOL = 1e-9

# decompose holds 2**m itself in int64 while rounding, so m stops at 62
_MAX_PRECISION = 62


def _as_readonly(values, dtype) -> Array:
    out = np.asarray(values, dtype=dtype).copy()
    out.flags.writeable = False
    return out


def _label_count(length: int) -> int:
    """Validate a power-of-two component count and return its exponent."""
    n = int(length).bit_length() - 1
    if length < 2 or (1 << n) != length:
        raise ValueError(
            f"component count must be a power of two and at least 2, got {length}"
        )
    return n


@dataclass(frozen=True, eq=False)
class TargetState:
    """Exact normalized pure state in polar form.

    ``magnitudes`` are non-negative, ``phase_turns`` lie in [0, 1), and
    the squared magnitudes sum to 1 within 1e-9.  Use the classmethods to
    ingest unnormalized or Cartesian data.
    """

    magnitudes: Array
    phase_turns: Array

    def __post_init__(self) -> None:
        mags = _as_readonly(self.magnitudes, np.float64)
        turns = _as_readonly(self.phase_turns, np.float64)
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "phase_turns", turns)
        if mags.ndim != 1 or mags.shape != turns.shape:
            raise ValueError(
                f"magnitudes {mags.shape} and phases {turns.shape} must be "
                "one-dimensional and equally long"
            )
        _label_count(mags.size)
        if not np.all(np.isfinite(mags)) or not np.all(np.isfinite(turns)):
            raise ValueError("magnitudes and phases must be finite")
        if np.any(mags < 0.0):
            raise ValueError("magnitudes must be non-negative")
        if np.any(turns < 0.0) or np.any(turns >= 1.0):
            raise ValueError("phases must lie in [0, 1) turns")
        norm_sq = float(np.dot(mags, mags))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(
                f"squared magnitudes sum to {norm_sq!r}, not 1 within {_NORM_TOL}; "
                "pass normalize=True to ingest unnormalized data"
            )

    @classmethod
    def from_polar(cls, magnitudes, phase_turns, *, normalize: bool = False) -> "TargetState":
        """Build from magnitude and phase-in-turns arrays.

        Phases are reduced mod 1.  With ``normalize=True`` the magnitudes
        are rescaled to unit norm first.
        """
        mags = np.asarray(magnitudes, dtype=np.float64).copy()
        turns = np.asarray(phase_turns, dtype=np.float64).copy()
        if not np.all(np.isfinite(turns)):
            raise ValueError("phases must be finite")
        turns = np.mod(turns, 1.0)
        turns[turns >= 1.0] = 0.0  # mod can round up to exactly 1.0
        if normalize:
            if np.any(mags < 0.0):
                raise ValueError("magnitudes must be non-negative")
            scale = float(np.linalg.norm(mags))
            if scale == 0.0:
                raise ValueError("cannot normalize the zero vector")
            mags /= scale
        return cls(mags, turns)

    @classmethod
    def from_amplitudes(cls, amplitudes, *, normalize: bool = False) -> "TargetState":
        """Build from a complex amplitude vector."""
        amps = np.asarray(amplitudes, dtype=np.complex128)
        mags = np.abs(amps)
        turns = np.angle(amps) / (2.0 * np.pi)
        turns = np.mod(turns, 1.0)
        turns[turns >= 1.0] = 0.0
        turns[mags == 0.0] = 0.0
        return cls.from_polar(mags, turns, normalize=normalize)

    @property
    def n(self) -> int:
        return _label_count(self.magnitudes.size)

    @property
    def amplitudes(self) -> Array:
        """Complex amplitude vector."""
        return self.magnitudes * np.exp(2j * np.pi * self.phase_turns)


def fidelity(x: TargetState, y: TargetState) -> float:
    """|<x|y>|**2 of two states on the same number of qubits."""
    if x.magnitudes.size != y.magnitudes.size:
        raise ValueError(
            f"dimension mismatch: {x.magnitudes.size} vs {y.magnitudes.size}"
        )
    return float(abs(np.vdot(x.amplitudes, y.amplitudes)) ** 2)


@dataclass(frozen=True, eq=False)
class BitPlan:
    """Bit matrices driving circuit construction.

    ``amp_bits`` has shape (2**n, m); column k holds the 2**k bit of the
    amplitude level a_j.  ``phase_bits`` has the same shape; column i
    holds the bit of phase weight 2**-(i+1), so row j spells the phase
    word most-significant-first.
    """

    n: int
    m: int
    amp_bits: Array
    phase_bits: Array

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        amp = _as_readonly(self.amp_bits, np.uint8)
        phase = _as_readonly(self.phase_bits, np.uint8)
        object.__setattr__(self, "amp_bits", amp)
        object.__setattr__(self, "phase_bits", phase)
        expected = (1 << self.n, self.m)
        if amp.shape != expected or phase.shape != expected:
            raise ValueError(
                f"bit matrices must have shape {expected}, got "
                f"{amp.shape} and {phase.shape}"
            )
        if np.any(amp > 1) or np.any(phase > 1):
            raise ValueError("bit matrices must contain only 0 and 1")
        if not amp.any():
            raise ValueError("amplitude bits are all zero; the plan has no state")

    @property
    def amp_ints(self) -> Array:
        """Amplitude levels a_j (integers in [0, 2**m))."""
        weights = np.int64(1) << np.arange(self.m, dtype=np.int64)
        return self.amp_bits.astype(np.int64) @ weights

    @property
    def phase_ints(self) -> Array:
        """Phase levels p_j (integers in [0, 2**m))."""
        weights = np.int64(1) << np.arange(self.m - 1, -1, -1, dtype=np.int64)
        return self.phase_bits.astype(np.int64) @ weights

    @property
    def phase_turns(self) -> Array:
        """Quantized phases p_j / 2**m in turns."""
        return self.phase_ints / float(1 << self.m)

    @property
    def scale_sq(self) -> int:
        """G**2 = sum_j a_j**2, exact: Python integers do not wrap where int64 would."""
        return sum(a * a for a in self.amp_ints.tolist())

    @property
    def scale(self) -> float:
        """Normalization G = sqrt(sum_j a_j**2)."""
        return math.sqrt(self.scale_sq)


def smallest_viable_precision(target: TargetState) -> int:
    """Least m whose quantization keeps at least one nonzero amplitude."""
    top = float(target.magnitudes.max())
    m = 1
    while np.floor(top * (1 << m) + 0.5) < 1.0:
        m += 1
        if m > 64:
            raise ValueError("no workable precision below 2**64; target is degenerate")
    return m


def decompose(target: TargetState, m: int) -> BitPlan:
    """Quantize a target at precision m.

    Raises
    ------
    PrecisionError
        If every magnitude rounds to level 0; the message names the
        smallest precision that keeps the target alive.
    ValueError
        If m is below 1, or above 62, where the levels would overflow int64.
    """
    if m < 1:
        raise ValueError(f"precision must be >= 1, got m={m}")
    if m > _MAX_PRECISION:
        raise ValueError(
            f"precision m={m} exceeds the int64 limit: levels up to 2**m must "
            f"fit in int64, so m <= {_MAX_PRECISION}"
        )
    levels = 1 << m
    a = np.floor(target.magnitudes * levels + 0.5).astype(np.int64)
    np.minimum(a, levels - 1, out=a)
    if not a.any():
        viable = smallest_viable_precision(target)
        raise PrecisionError(
            f"every amplitude rounds to zero at m={m}; "
            f"smallest workable precision is m={viable}"
        )
    p = np.floor(target.phase_turns * levels + 0.5).astype(np.int64) % levels

    k = np.arange(m, dtype=np.int64)
    amp_bits = (a[:, None] >> k[None, :]) & 1
    phase_bits = (p[:, None] >> (m - 1 - k)[None, :]) & 1
    return BitPlan(target.n, m, amp_bits, phase_bits)


def reconstruct(plan: BitPlan) -> TargetState:
    """The exact state a correct circuit emits for this plan."""
    a = plan.amp_ints.astype(np.float64)
    return TargetState(a / plan.scale, plan.phase_turns)
