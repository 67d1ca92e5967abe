"""Correctness checks the benchmark applies to every preparation.

A preparation fails a check when:

* ``exit``: the CLI exit code is not 0 or the report lacks
  ``verification.passed``;
* ``probability``: the report's measured probability differs from
  G**2 / 2**(n + 4m), recomputed here from the report's ``amp_levels``,
  by more than 1e-12;
* ``roundtrip``: ``analyze(parse_circuit(export), plan)`` differs from
  the report's ``resources``;
* ``repeat``: its gate count, depth or accept probability differs from
  an earlier preparation of the same input under the same program.

Missing or malformed outputs fail the check that needs them.
"""

from __future__ import annotations

import numpy as np

from bitprep.bitplan import BitPlan
from bitprep.encoder import parse_circuit
from bitprep.errors import BitprepError
from bitprep.resources import analyze

CHECKS = ("exit", "probability", "roundtrip", "repeat")

PROBABILITY_TOL = 1e-12

# what missing or malformed outputs raise while being checked
_BAD_OUTPUT = (TypeError, KeyError, ValueError, AttributeError, BitprepError)


def plan_from_report(report: dict) -> BitPlan:
    """Rebuild the bit plan from the report's integer levels."""
    n, m = int(report["n"]), int(report["m"])
    amp = np.array(report["plan"]["amp_levels"], dtype=np.int64)
    phase = np.array(report["plan"]["phase_levels"], dtype=np.int64)
    k = np.arange(m, dtype=np.int64)
    return BitPlan(n, m, (amp[:, None] >> k) & 1, (phase[:, None] >> (m - 1 - k)) & 1)


def expected_probability(report: dict) -> float:
    g_sq = sum(int(a) ** 2 for a in report["plan"]["amp_levels"])
    return g_sq / (1 << (int(report["n"]) + 4 * int(report["m"])))


def stats_key(report: dict) -> list:
    """The simulated statistics that must repeat exactly for one input."""
    resources = report["resources"]
    return [
        resources["gate_count"],
        resources["elementary_depth"],
        report["success_probability"]["measured"],
    ]


def check_preparation(exit_code: int, report: dict | None, export_text: str | None) -> list[str]:
    """Names of the checks (other than ``repeat``) this preparation fails."""
    failed = []
    try:
        passed = report["verification"]["passed"] is True
    except _BAD_OUTPUT:
        passed = False
    if exit_code != 0 or not passed:
        failed.append("exit")
    try:
        measured = float(report["success_probability"]["measured"])
        if not abs(measured - expected_probability(report)) <= PROBABILITY_TOL:
            failed.append("probability")
    except _BAD_OUTPUT:
        failed.append("probability")
    try:
        reread = analyze(parse_circuit(export_text), plan_from_report(report))
        if reread.as_dict() != report["resources"]:
            failed.append("roundtrip")
    except _BAD_OUTPUT:
        failed.append("roundtrip")
    return failed
