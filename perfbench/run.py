#!/usr/bin/env python3
"""Benchmark of verified state preparation through the ``bitprep`` CLI.

Run from the repository root::

    python3 perfbench/run.py --workload wide_work --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One client in one process calls ``bitprep.cli.main`` in a closed loop,
each call starting after the previous one returns, for ``--seconds``
seconds, cycling through the workload's seeded target files.  Every
preparation is checked afterwards (see ``checks.py``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  The line
before it, starting ``detail``, carries input and statistics digests,
failure counts per check, ``fail_frac`` and, once a run has at least
1000 samples, ``prep_p99_s``.  README.md in this directory says why
each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_ROUNDS = 3
SETUP_TIMEOUT_S = 60
P99_MIN_SAMPLES = 1000  # ten samples beyond the 99th percentile
UNITS = {"prep_s": "s", "preps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _use_checkout_package() -> bool:
    """Put this checkout's ``src`` first on the path; False if bitprep is not there."""
    if not (SRC / "bitprep" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import bitprep

    return Path(bitprep.__file__).resolve().parent == SRC / "bitprep"


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _source_digest() -> str:
    package = SRC / "bitprep"
    files = sorted(package.rglob("*.py"))
    return _digest(
        [[str(p.relative_to(package)), hashlib.sha256(p.read_bytes()).hexdigest()] for p in files]
    )


class Runner:
    """Writes a workload's target files and runs preparations on them."""

    def __init__(self, workdir: Path, inputs, tracer=None):
        from bitprep import cli

        self.cli = cli
        self.dir = workdir
        self.inputs = inputs
        self.tracer = tracer
        self.targets = []
        for i, item in enumerate(inputs):
            path = workdir / f"t{i}.txt"
            path.write_text(item.text, encoding="utf-8")
            self.targets.append(path)
        self.records: list[tuple[int, int, Path, Path]] = []  # input, exit code, report, export
        self.cursor = 0

    def prepare(self, index: int) -> tuple[int, float]:
        """One preparation of input ``index``; returns (preparation id, seconds)."""
        prep = len(self.records)
        report, export = self.dir / f"r{prep}.json", self.dir / f"c{prep}.txt"
        argv = [str(self.targets[index]), "--report", str(report), "--export", str(export)]
        argv += self.inputs[index].flags
        if self.tracer is not None:
            self.tracer.prep = prep
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            started = time.perf_counter()
            code = self.cli.main(argv)
            took = time.perf_counter() - started
        self.records.append((index, code, report, export))
        return prep, took

    def window(self, seconds: float) -> tuple[list[int], list[float], float]:
        """Closed loop over the inputs for ``seconds``; (ids, durations, elapsed)."""
        ids, durations = [], []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            prep, took = self.prepare(self.cursor % len(self.inputs))
            self.cursor += 1
            ids.append(prep)
            durations.append(took)
        return ids, durations, time.perf_counter() - started

    def cover(self, done: list[int]) -> list[int]:
        """Prepare every input not yet prepared among ``done``; returns the new ids."""
        seen = {self.records[prep][0] for prep in done}
        return [self.prepare(i)[0] for i in range(len(self.inputs)) if i not in seen]

    def first_of_each(self, ids: list[int]) -> list[int]:
        first: dict[int, int] = {}
        for prep in ids:
            first.setdefault(self.records[prep][0], prep)
        return [first[i] for i in sorted(first)]


def check_all(runner: Runner, reference: list | None):
    """Check every preparation; returns (failures per check, failed preps, stats per input).

    ``reference`` holds the statistics an earlier run of the same program
    recorded for these inputs, or None.
    """
    from checks import check_preparation, stats_key

    failures: Counter = Counter()
    failed = 0
    stats: list = list(reference) if reference else [None] * len(runner.inputs)
    for index, code, report_path, export_path in runner.records:
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            export = export_path.read_text(encoding="utf-8")
        except (OSError, ValueError):
            report = export = None
        bad = check_preparation(code, report, export)
        try:
            key = stats_key(report)
        except (TypeError, KeyError):
            key = None
        if key is not None:
            if stats[index] is None:
                stats[index] = key
            elif stats[index] != key:
                bad.append("repeat")
        failures.update(bad)
        failed += bool(bad)
    return failures, failed, stats


def _ledger() -> dict:
    """Statistics per input that earlier runs in this checkout recorded, keyed
    by workload, seed, input digest and program source digest."""
    path = WORK / "ledger.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def setup_seconds(name: str, seed: int) -> list[float]:
    """Wall time of complete set-ups in fresh processes: interpreter start,
    imports, target generation and writing, and one warm-up preparation."""
    times = []
    for _ in range(SETUP_ROUNDS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - started)
    return times


@contextlib.contextmanager
def _workdir(name: str, seed: int):
    path = WORK / f"{name}-s{seed}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import CHECKS
    from spans import PER_LAYER, Tracer, layer_metrics, maxrss_kb
    from workloads import make_inputs

    inputs = make_inputs(name, seed)
    input_digest = _digest([[item.text, list(item.flags)] for item in inputs])
    ledger_key = f"{name}:{seed}:{input_digest}:{_source_digest()}"
    tracer = Tracer() if trace else None
    detail: dict = {"workload": name, "seed": seed, "input_digest": input_digest}

    with _workdir(name, seed) as workdir:
        runner = Runner(workdir, inputs, tracer)
        if trace:
            with tracer.installed():
                warm, _ = runner.prepare(0)
            _, plain, _ = runner.window(seconds / 2)
            with tracer.installed():
                ids, durations, elapsed = runner.window(seconds / 2)
                extra = runner.cover([warm, *ids])
        else:
            runner.prepare(0)
            ids, durations, elapsed = runner.window(seconds)
            peak_mb = maxrss_kb() / 1024.0
            extra = runner.cover(ids)
        ledger = _ledger()
        failures, failed, stats = check_all(runner, ledger.get(ledger_key))
        attempted = len(runner.records)
        if trace:
            counted = runner.first_of_each([warm, *ids, *extra])

    # after the window, so the set-up processes cannot disturb it
    setup_rounds = [] if trace else setup_seconds(name, seed)
    if ledger_key not in ledger and None not in stats:
        ledger[ledger_key] = stats
        (WORK / "ledger.json").write_text(json.dumps(ledger, sort_keys=True), encoding="utf-8")
    detail.update(
        stats_digest=_digest(stats),
        samples=len(durations),
        fail_frac=failed / attempted,
        check_failures={check: failures[check] for check in CHECKS},
        prep_p99_s=(
            statistics.quantiles(durations, n=100)[98] if len(durations) >= P99_MIN_SAMPLES else None
        ),
    )
    if trace:
        metrics = layer_metrics(tracer.spans, set(ids), counted)
        metrics["postselect.accept_prob"] = statistics.fmean(row[2] for row in stats if row)
        for check, count in detail["check_failures"].items():
            metrics[f"check.{check}.failed"] = count
        metrics["trace.prep_s"] = statistics.median(durations)
        metrics["trace.overhead_s"] = metrics["trace.prep_s"] - statistics.median(plain)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{name}-s{seed}.jsonl")
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        detail["setup_rounds_s"] = setup_rounds
        metrics = {
            "prep_s": statistics.median(durations),
            "preps_per_s": len(durations) / elapsed,
            "peak_rss_mb": peak_mb,
            "setup_s": statistics.median(setup_rounds),
        }
        units = UNITS
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        },
    }


def setup_only(name: str, seed: int) -> int:
    from workloads import make_inputs

    with _workdir(f"setup-{name}", seed) as workdir:
        runner = Runner(workdir, make_inputs(name, seed))
        runner.prepare(0)
    return runner.records[0][1]


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process and print one table."""
    from workloads import WORKLOADS

    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr}")
            continue
        detail = json.loads(lines[-2].removeprefix("detail "))
        result = json.loads(lines[-1])
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} fail_frac={detail['fail_frac']:.4f} "
            f"check_failures={detail['check_failures']}"
        )
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:>16.6g} {entry['unit']}")
        if detail["prep_p99_s"] is not None:
            print(f"  {'prep_p99_s':44s} {detail['prep_p99_s']:>16.6g} s  ({detail['samples']} samples)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not _use_checkout_package():
        print(f"error: no bitprep package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("detail " + json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
