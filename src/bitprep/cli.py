"""Command line entry point: quantize, compile, simulate, verify, report.

Target file grammar (one directive per line, ``#`` comments and blank
lines ignored)::

    n 1                  qubit count, required
    m 2                  precision, optional (the --m flag wins)
    unnormalized         accept input that is not unit norm
    polar 0.5547 0.75    one entry per basis label: magnitude, turns
    polar 0.8321 0.5

Entries may instead use ``cart <re> <im>``; the two styles cannot be
mixed and exactly 2**n entries are required.

Exit codes: 0 success, 1 verification failure, 2 parse or validation
error (or an input that cannot be read, or a --report or --export path
that cannot be written), 3 capacity exceeded (over the qubit cap, checked
before compiling; wider than numpy can hold; or out of memory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .bitplan import TargetState, decompose, fidelity, reconstruct
from .encoder import STAGE_NAMES, compile_circuit, simulate
from .errors import (
    CapacityError,
    EntanglementError,
    PrecisionError,
    TargetFileError,
)
from .layout import RegisterLayout
from .oracle import naive_success_probability, predict_stage, run_projector_path
from .resources import analyze

DEFAULT_MAX_QUBITS = 26

_REPORT_MAGIC = "bitprep-report 1"
_CHECK_ORDER = (*STAGE_NAMES, "measure", "probability", "disentangle", "output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitprep",
        description="Compile a target state into a preparation circuit, "
        "simulate it, and verify the outcome.",
    )
    parser.add_argument("target", help="target-state file (see module docstring)")
    parser.add_argument("--m", type=int, default=None, help="precision bits; overrides the file's m")
    parser.add_argument("--export", metavar="PATH", default=None, help="write the circuit text here")
    parser.add_argument("--report", metavar="PATH", default=None, help="write the JSON run report here")
    parser.add_argument(
        "--stage-check",
        action="store_true",
        help="also verify every stage against the gate-free execution path (slower)",
    )
    parser.add_argument(
        "--max-qubits",
        type=int,
        default=DEFAULT_MAX_QUBITS,
        metavar="K",
        help=f"memory cap as a qubit count (default {DEFAULT_MAX_QUBITS}, "
        f"i.e. 2**{DEFAULT_MAX_QUBITS} amplitudes)",
    )
    parser.add_argument(
        "--peephole",
        action="store_true",
        help="merge amplitude marks shared by every basis label into one X",
    )
    return parser


def parse_target_file(text: str) -> tuple[int, int | None, TargetState]:
    """Parse a target file into (n, optional m, state)."""
    n: int | None = None
    m: int | None = None
    normalize = False
    style: str | None = None
    entries: list[tuple[float, float]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        word = tokens[0]
        if word in ("n", "m"):
            if len(tokens) != 2:
                raise TargetFileError(f"line {lineno}: {word} takes one integer")
            try:
                value = int(tokens[1], 10)
            except ValueError:
                raise TargetFileError(
                    f"line {lineno}: expected integer, got {tokens[1]!r}"
                ) from None
            if word == "n":
                if n is not None:
                    raise TargetFileError(f"line {lineno}: n declared twice")
                n = value
            else:
                if m is not None:
                    raise TargetFileError(f"line {lineno}: m declared twice")
                m = value
        elif word == "unnormalized":
            if len(tokens) != 1:
                raise TargetFileError(f"line {lineno}: unnormalized takes no arguments")
            normalize = True
        elif word in ("cart", "polar"):
            if style is None:
                style = word
            elif style != word:
                raise TargetFileError(
                    f"line {lineno}: entry style {word!r} mixed with {style!r}"
                )
            if len(tokens) != 3:
                raise TargetFileError(f"line {lineno}: {word} takes two numbers")
            try:
                pair = (float(tokens[1]), float(tokens[2]))
            except ValueError:
                raise TargetFileError(f"line {lineno}: bad number in entry") from None
            if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
                raise TargetFileError(f"line {lineno}: entries must be finite")
            entries.append(pair)
        else:
            raise TargetFileError(f"line {lineno}: unknown directive {word!r}")

    if n is None:
        raise TargetFileError("missing n declaration")
    if n < 1:
        raise TargetFileError(f"n must be >= 1, got {n}")
    if m is not None and m < 1:
        raise TargetFileError(f"m must be >= 1, got {m}")
    # compare bit lengths first, so a huge n never builds 1 << n
    if len(entries).bit_length() != n + 1 or len(entries) != 1 << n:
        expected = 1 << n if n < 64 else f"2**{n}"
        raise TargetFileError(f"expected {expected} entries for n={n}, got {len(entries)}")

    try:
        if style == "cart":
            amplitudes = np.array([re + 1j * im for re, im in entries])
            state = TargetState.from_amplitudes(amplitudes, normalize=normalize)
        else:
            magnitudes = np.array([mag for mag, _ in entries])
            turns = np.array([turn for _, turn in entries])
            state = TargetState.from_polar(magnitudes, turns, normalize=normalize)
    except ValueError as exc:
        raise TargetFileError(str(exc)) from exc
    return n, m, state


class _StageChecker:
    """``--stage-check``'s ``on_stage`` hook: checks each stage against the projector
    path and ``predict_stage`` as it is reached; ``seconds`` sums its own time.  Not a
    closure timing itself, whose self-reference would keep the projector state alive."""

    def __init__(self, plan, checks):
        self.plan, self.checks, self.seconds = plan, checks, 0.0
        self.reference = run_projector_path(plan)

    def __call__(self, name, state):
        started = time.perf_counter()
        path_dev = state.max_difference(next(self.reference))
        predicted_dev = predict_stage(self.plan, _CHECK_ORDER.index(name) + 1).max_deviation(state)
        self.checks[name] = {
            "pass": bool(path_dev <= 1e-12 and predicted_dev <= 1e-12),
            "path_deviation": path_dev,
            "prediction_deviation": predicted_dev,
        }
        self.seconds += time.perf_counter() - started


def _verify(plan, run, reconstruction):
    """The probability, disentangle and output checks; ``run`` is None when
    post-selection found no support, which leaves no output state."""
    formula = naive_success_probability(plan)
    measured = run.probability if run is not None else 0.0
    checks = {
        "probability": {
            "pass": bool(abs(measured - formula) <= 1e-12),
            "formula": formula,
            "measured": measured,
        }
    }
    failure = "post-selection left no state"
    if run is not None:
        try:
            output = run.final.extract(run.final.layout.system)
            failure = None
        except EntanglementError as exc:
            failure = str(exc)
    if failure is not None:
        checks["disentangle"] = {"pass": False, "detail": failure}
        checks["output"] = {"pass": False, "detail": "no output state to compare"}
        return checks
    overlap = abs(np.vdot(reconstruction.amplitudes, output)) ** 2
    checks["disentangle"] = {"pass": True}
    checks["output"] = {"pass": bool(overlap >= 1.0 - 1e-10), "fidelity": float(overlap)}
    return checks


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        raw = Path(args.target).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {args.target}: {exc}", file=sys.stderr)
        return 2

    try:
        text = raw.decode("utf-8")
        n, file_m, target = parse_target_file(text)
        m = args.m if args.m is not None else file_m
        if m is None:
            raise TargetFileError("no precision given: declare m in the file or pass --m")
        if m < 1:
            raise TargetFileError(f"m must be >= 1, got {m}")
        started = time.perf_counter()
        plan = decompose(target, m)
    except (TargetFileError, PrecisionError, UnicodeDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    width = RegisterLayout(plan.n, plan.m).total
    if width > args.max_qubits:
        print(
            f"error: register needs {width} qubits (2**{width} amplitudes) but the cap "
            f"is {args.max_qubits} qubits; raise the cap explicitly to proceed",
            file=sys.stderr,
        )
        return 3

    circuit = compile_circuit(plan, peephole=args.peephole)
    report_resources = analyze(circuit, plan)
    compiled = time.perf_counter()

    checks: dict[str, dict] = {}
    try:
        checker = _StageChecker(plan, checks) if args.stage_check else None
        try:
            run = simulate(circuit, on_stage=checker)
        except ValueError as exc:  # post-selection found no support
            run = None
            checks["measure"] = {"pass": False, "detail": str(exc)}
        simulated = time.perf_counter()
        reconstruction = reconstruct(plan)
        checks.update(_verify(plan, run, reconstruction))
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    verified = time.perf_counter()
    # the stage checks ran inside simulate; their seconds count as verifying
    checked = checker.seconds if checker else 0.0
    failed = [name for name in _CHECK_ORDER if name in checks and not checks[name]["pass"]]

    report = {
        "format": _REPORT_MAGIC,
        "input": {
            "path": str(args.target),
            "sha256": hashlib.sha256(raw).hexdigest(),
        },
        "n": plan.n,
        "m": plan.m,
        "plan": {
            "amp_levels": [int(v) for v in plan.amp_ints],
            "phase_levels": [int(v) for v in plan.phase_ints],
            "phase_turns": [float(v) for v in plan.phase_turns],
            "scale": plan.scale,
        },
        "fidelity": {
            "target_vs_plan": fidelity(target, reconstruction),
            "plan_vs_output": checks["output"].get("fidelity"),
        },
        "success_probability": {
            "formula": checks["probability"]["formula"],
            "measured": checks["probability"]["measured"],
        },
        "resources": report_resources.as_dict(),
        "verification": {"passed": not failed, "checks": checks},
        "timings": {
            "compile_s": compiled - started,
            "simulate_s": simulated - compiled - checked,
            "verify_s": verified - simulated + checked,
        },
    }

    outputs = (
        (args.export, circuit.export_text),
        (args.report, lambda: json.dumps(report, indent=2, sort_keys=True) + "\n"),
    )
    for path, render in outputs:
        if path:
            try:
                Path(path).write_text(render(), encoding="utf-8", newline="\n")
            except OSError as exc:
                print(f"error: cannot write {path}: {exc}", file=sys.stderr)
                return 2

    print(f"target: n={plan.n}, m={plan.m}, {1 << plan.n} components")
    print(f"plan: levels {report['plan']['amp_levels']}, scale {plan.scale!r}")
    print(f"fidelity target|plan: {report['fidelity']['target_vs_plan']!r}")
    print(f"fidelity plan|output: {report['fidelity']['plan_vs_output']!r}")
    print(
        f"success probability: measured {checks['probability']['measured']!r} "
        f"(closed form {checks['probability']['formula']!r})"
    )
    if args.export:
        print(f"circuit written to {args.export}")
    if args.report:
        print(f"report written to {args.report}")

    if failed:
        first = failed[0]
        detail = checks[first].get("detail", "")
        suffix = f": {detail}" if detail else ""
        print(f"verification failed at {first}{suffix}", file=sys.stderr)
        return 1
    print(f"verification: ok ({len(checks)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
