"""Fault injection: perturb one statevector kernel at a time and check that
the CLI's verification refuses the run wherever the kernel ran.

Each fault wraps the real kernel, records every call that can change the
state, and perturbs it by about 1e-3, far past every tolerance."""

import numpy as np
import pytest

import util
import bitprep.statevector as statevector_mod
from bitprep.cli import main
from bitprep.statevector import StateVector, _Block


def drop_first_pattern(real, ran):
    def swap(self, mask, target, patterns):
        patterns = list(patterns)
        ran.extend(patterns[:1])
        real(self, mask, target, patterns[1:])

    return swap


def scale_result(real, ran):
    def scaled(*args):
        ran.append(args)
        return real(*args) * (1 + 1e-3)

    return scaled


def scale_matrix(real, ran):
    def transform(view, matrix):
        ran.append(matrix)
        real(view, matrix * (1 + 1e-3))

    return transform


def scale_merged(real, ran):
    def merged(self, qubits):
        axes, tensor = real(self, qubits)
        if tensor is self.core:  # nothing merged
            return axes, tensor
        ran.append(axes)
        return axes, tensor * (1 + 1e-3)

    return merged


def leaky_zeroing(real, ran):
    def flush(self):
        zeroed = list(self.zeroed)
        real(self)
        for pattern in zeroed:
            ran.append(pattern)
            self.view(pattern)[...] += 1e-3

    return flush


def scale_probability(real, ran):
    def postselect(self, pattern):
        ran.append(pattern)
        state, probability = real(self, pattern)
        return state, probability * (1 + 1e-3)

    return postselect


FAULTS = {
    "swap": (_Block, "swap", drop_first_pattern),
    "through_run": (_Block, "through_run", scale_result),
    "_signed_sum": (statevector_mod, "_signed_sum", scale_result),
    "_transform": (statevector_mod, "_transform", scale_matrix),
    "merged": (_Block, "merged", scale_merged),
    "gather": (_Block, "gather", scale_result),
    "flush zeroing": (_Block, "flush", leaky_zeroing),
    "postselect": (StateVector, "postselect", scale_probability),
}
MODES = {"plain": [], "stage-check": ["--stage-check"]}

# pairs whose run never reaches the kernel: a plain run transforms no core
# and gathers nothing, post-selection drops the block that owes a zeroing,
# and the stage checks flush every stage, so the label split never reads
# through a pending run
UNREACHED = {
    ("through_run", "stage-check"),
    ("_transform", "plain"),
    ("gather", "plain"),
    ("flush zeroing", "plain"),
    ("flush zeroing", "stage-check"),
}


def faulty_run(tmp_path, monkeypatch, kernel, mode):
    """Exit code of a CLI run on a seed-1 (3, 3) target with ``kernel``
    perturbed, and how often the fault fired."""
    target = util.random_target(np.random.default_rng(1), 3)
    entries = "".join(
        f"polar {float(a)!r} {float(t)!r}\n" for a, t in zip(target.magnitudes, target.phase_turns)
    )
    path = tmp_path / "t.target"
    path.write_text(f"n 3\nm 3\n{entries}", encoding="utf-8")
    owner, name, fault = FAULTS[kernel]
    ran = []
    monkeypatch.setattr(owner, name, fault(getattr(owner, name), ran))
    return main([str(path), *MODES[mode]]), len(ran)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kernel", FAULTS)
def test_a_kernel_fault_fails_verification(tmp_path, capsys, monkeypatch, kernel, mode):
    code, ran = faulty_run(tmp_path, monkeypatch, kernel, mode)
    if (kernel, mode) in UNREACHED:
        assert (code, ran) == (0, 0)
    else:
        assert ran > 0
        assert code == 1
        assert "verification failed at " in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="the stage checks flush every stage, so a checked "
                   "run never takes the label read-through that a plain run uses")
def test_stage_check_catches_a_through_run_fault(tmp_path, monkeypatch):
    code, _ = faulty_run(tmp_path, monkeypatch, "through_run", "stage-check")
    assert code == 1
