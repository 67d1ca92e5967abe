"""Span tracing of the preparation pipeline, installed from outside the package.

``Tracer.installed()`` swaps timing wrappers in for the names
``bitprep.cli`` looks up and for the public ``StateVector``, ``Circuit``
and ``StagePrediction`` methods the pipeline calls, and restores the
originals on exit.  Each span records its name, start, end, parent span,
the preparation id and ``ru_maxrss`` at both ends; spans stay in memory
until the run writes them out.  ``layer_metrics`` turns them into the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import time
from collections import defaultdict

from bitprep import cli
from bitprep.encoder import Circuit
from bitprep.oracle import StagePrediction
from bitprep.statevector import StateVector
from checks import CHECKS

# span record fields
ID, PARENT, PREP, NAME, START, END, RSS0, RSS1, INFO = range(9)

AMPLITUDE_BYTES = 16  # complex128

STAGES = ("superpose", "amplitude", "phase", "collapse", "label")
GATE_KINDS = ("hadamard", "phase", "mcx")
GATE_SPANS = {f"statevector.{kind}": kind for kind in GATE_KINDS}
RSS_SPANS = (
    "cli.main",
    "encoder.simulate",
    "statevector.copy",
    "statevector.postselect",
    "statevector.extract",
    "oracle.run_projector_path",
    "oracle.predict_stage",
)
# spans whose mean time per preparation is reported as "<name>.s"
TIMED_SPANS = (
    "cli.parse_target_file",
    "bitplan.decompose",
    "bitplan.reconstruct",
    "bitplan.fidelity",
    "encoder.compile_circuit",
    "encoder.export_text",
    "resources.analyze",
    "encoder.simulate",
    *(f"statevector.{kind}" for kind in GATE_KINDS),
    "statevector.apply_projector_terms",
    "statevector.postselect",
    "statevector.extract",
    "oracle.predict_stage",
    "oracle.max_deviation",
    "oracle.run_projector_path",
    "oracle.naive_success_probability",
)

# (name, unit, better) for every metric layer_metrics returns, plus the
# check failure counts and tracing overhead the runner adds
PER_LAYER = (
    *((f"{name}.s", "s", "lower") for name in TIMED_SPANS),
    ("cli.main.self_s", "s", "lower"),
    *((f"simulate.{stage}.s", "s", "lower") for stage in (*STAGES, "postselect", "checkpoint")),
    ("simulate.amp_updates_per_s", "1/s", "higher"),
    ("encoder.gates", "count", "lower"),
    ("encoder.export_bytes", "bytes", "lower"),
    ("resources.depth", "count", "lower"),
    *((f"statevector.{kind}.count", "count", "lower") for kind in GATE_KINDS),
    *((f"statevector.{kind}.bytes", "bytes", "lower") for kind in GATE_KINDS),
    ("statevector.apply_projector_terms.count", "count", "lower"),
    ("statevector.extract.flops", "flop", "lower"),
    ("oracle.predict_stage.components", "count", "lower"),
    *((f"rss_rise_mb.{name}", "MB", "lower") for name in RSS_SPANS),
    ("postselect.accept_prob", "ratio", "higher"),
    *((f"check.{name}.failed", "count", "lower") for name in CHECKS),
    ("trace.prep_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

CLI_SPANS = {
    "main": "cli.main",
    "parse_target_file": "cli.parse_target_file",
    "decompose": "bitplan.decompose",
    "reconstruct": "bitplan.reconstruct",
    "fidelity": "bitplan.fidelity",
    "compile_circuit": "encoder.compile_circuit",
    "analyze": "resources.analyze",
    "simulate": "encoder.simulate",
    "naive_success_probability": "oracle.naive_success_probability",
    "run_projector_path": "oracle.run_projector_path",
    "predict_stage": "oracle.predict_stage",
}


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def touched_amplitudes(kind: str, width: int, controls: int) -> int:
    """Amplitudes one gate reads and writes in an ideal kernel."""
    if kind == "hadamard":
        return 1 << width
    if kind == "phase":
        return 1 << (width - 1)
    return 1 << (width - controls)


def _gate_span(state, gate, *_args, **_kwargs):
    kind = {"Hadamard": "hadamard", "PhaseK": "phase"}.get(type(gate).__name__, "mcx")
    return f"statevector.{kind}", (state.layout.total, len(getattr(gate, "controls", ())))


def _stages_of(circuit, *_args, **_kwargs):
    return "encoder.simulate", circuit.stages


def _extract_shape(state, qubits, *_args, **_kwargs):
    return "statevector.extract", (state.layout.total, len(qubits))


# span info taken from the result of a wrapped bitprep.cli name
_RESULT_INFO = {
    "compile_circuit": lambda circuit: len(circuit.gates),
    "analyze": lambda report: report.elementary_depth,
    "predict_stage": lambda prediction: len(prediction.components),
}


def _targets():
    """(owner, attribute, span name, info before the call, info from the result)."""
    for attr, name in CLI_SPANS.items():
        yield cli, attr, name, _stages_of if attr == "simulate" else None, _RESULT_INFO.get(attr)
    yield StateVector, "apply", None, _gate_span, None
    yield StateVector, "apply_projector_terms", "statevector.apply_projector_terms", None, None
    yield StateVector, "postselect", "statevector.postselect", None, None
    yield StateVector, "extract", None, _extract_shape, None
    yield StateVector, "copy", "statevector.copy", None, None
    yield Circuit, "export_text", "encoder.export_text", None, len
    yield StagePrediction, "max_deviation", "oracle.max_deviation", None, None


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.prep = -1          # id of the preparation now running
        self._stack: list[list] = []

    def _wrap(self, fn, name, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, info = before(*args, **kwargs) if before else (name, None)
            parent = self._stack[-1][ID] if self._stack else -1
            span = [len(self.spans), parent, self.prep, span_name, 0.0, 0.0, maxrss_kb(), 0, info]
            self.spans.append(span)
            self._stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[RSS1] = maxrss_kb()
                self._stack.pop()
            if after is not None:
                span[INFO] = after(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the block."""
        saved = []
        try:
            for owner, attr, name, before, after in _targets():
                if attr not in vars(owner):
                    continue  # renamed or removed in this version of the package
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list], timed: set[int], counted: list[int]) -> dict[str, float]:
    """Per-layer metrics from recorded spans.

    Times are means per preparation over the ``timed`` preparation ids.
    Counts are means per preparation over ``counted``, one preparation
    of each distinct input, so they repeat exactly for a seed.  RSS
    rises are the largest rise of ``ru_maxrss`` across any span of that
    name, which is non-zero only where a span set a new process peak.
    """
    children: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append(span)
    per_timed = max(1, len(timed))
    per_counted = max(1, len(counted))
    counted_set = set(counted)

    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    rss_rise: dict[str, float] = defaultdict(float)
    updates = update_seconds = main_self = 0.0

    for span in spans:
        name, took = span[NAME], span[END] - span[START]
        rss_rise[name] = max(rss_rise[name], (span[RSS1] - span[RSS0]) / 1024.0)
        if span[PREP] in timed:
            seconds[name] += took
            if name == "cli.main":
                main_self += took - sum(c[END] - c[START] for c in children[span[ID]])
            elif name == "encoder.simulate":
                gate_index = 0
                for child in children[span[ID]]:
                    child_name, child_took = child[NAME], child[END] - child[START]
                    if child_name == "statevector.copy":
                        seconds["simulate.checkpoint"] += child_took
                    elif child_name == "statevector.postselect":
                        seconds["simulate.postselect"] += child_took
                    elif child_name in GATE_SPANS:
                        stage = next(
                            (s for s, start, stop in span[INFO] if start <= gate_index < stop), None
                        )
                        seconds[f"simulate.{stage}"] += child_took
                        width, controls = child[INFO]
                        updates += touched_amplitudes(GATE_SPANS[child_name], width, controls)
                        update_seconds += child_took
                        gate_index += 1
        if span[PREP] in counted_set:
            if name in GATE_SPANS:
                width, controls = span[INFO]
                counts[f"{name}.count"] += 1
                counts[f"{name}.bytes"] += (
                    2 * AMPLITUDE_BYTES * touched_amplitudes(GATE_SPANS[name], width, controls)
                )
            elif name == "statevector.apply_projector_terms":
                counts[f"{name}.count"] += 1
            elif name == "statevector.extract":
                width, picked = span[INFO]
                counts["statevector.extract.flops"] += 8 * (1 << (2 * picked)) * (1 << (width - picked))
            elif name == "oracle.predict_stage":
                counts["oracle.predict_stage.components"] += span[INFO]
            elif name == "encoder.compile_circuit":
                counts["encoder.gates"] += span[INFO]
            elif name == "encoder.export_text":
                counts["encoder.export_bytes"] += span[INFO]
            elif name == "resources.analyze":
                counts["resources.depth"] += span[INFO]

    metrics = {f"{name}.s": seconds[name] / per_timed for name in TIMED_SPANS}
    metrics["cli.main.self_s"] = main_self / per_timed
    for stage in (*STAGES, "postselect", "checkpoint"):
        metrics[f"simulate.{stage}.s"] = seconds[f"simulate.{stage}"] / per_timed
    metrics["simulate.amp_updates_per_s"] = updates / update_seconds if update_seconds else 0.0
    for name in (
        "encoder.gates", "encoder.export_bytes", "resources.depth",
        *(f"statevector.{kind}.{what}" for kind in GATE_KINDS for what in ("count", "bytes")),
        "statevector.apply_projector_terms.count", "statevector.extract.flops",
        "oracle.predict_stage.components",
    ):
        metrics[name] = counts[name] / per_counted
    for name in RSS_SPANS:
        metrics[f"rss_rise_mb.{name}"] = rss_rise[name]
    return metrics
