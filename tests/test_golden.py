"""Golden table: exact compiled output on a fixed grid of plans.

Each row pins what the compiler emits for one (n, m, seed, peephole)
input: the gate count, the elementary depth, the integer G**2 = sum of
squared amplitude levels, and the sha256 of ``export_text()``.  A seed
of None stands for the uniform superposition, whose plans have full
amplitude columns, so the peephole's unconditional X is pinned too.

Float amplitudes are not digested: kernel changes may reorder
floating-point work.  Instead every row simulates the circuit and checks
the accept probability against G**2 / 2**(n + 4m) within 1e-12 and the
output against ``reconstruct`` within 1e-10, the tolerances of the CLI.
"""

import hashlib

import numpy as np
import pytest

import util
from bitprep import (
    TargetState,
    align_phase,
    analyze,
    compile_circuit,
    decompose,
    reconstruct,
    simulate,
)

# (n, m, seed, peephole, gate count, elementary depth, G**2, sha256 of export_text())
GOLDEN = [
    (1, 1, 0, False, 15, 33, 2, "3ec9eb16cb41cb3d3931ba76193321e6a379c4a9994a7bbdfbb4dcc54a58bc3f"),
    (1, 3, 1, False, 31, 83, 65, "12fe9f5ef25106b60e6a88703d28e19bbc88e9d7c4b3ef3d69290036bfd6afdc"),
    (1, 5, 2, True, 43, 137, 1017, "571f477836876795a846493c659b24d628046a71d2475d9b4a1301811d400142"),
    (2, 1, 3, False, 18, 56, 2, "4c3c8a6934f7c7363559f90969e054e7e0382e4cdf207347bfd18098fc8f1b35"),
    (2, 2, 4, True, 30, 100, 19, "77a7aedf10fd8960097ea34ab7cd6a62391c295550650cf44eb58fb4f69ca89b"),
    (2, 4, 5, False, 46, 170, 252, "adca499a1953d3f312ce3efa817aa4c1774086d19ed6f8440d4ba58f25f6dbd3"),
    (3, 2, 6, False, 41, 195, 17, "7d6e663d1ea7ae81898f5b1a5f0b548491fb3129a15b1b59432a543ee96dd8af"),
    (3, 3, 7, True, 49, 241, 68, "7d92c7d98cd423db8a8adffe7c7f964cfd162cd70f15e8321a889bf45833e252"),
    (4, 1, 8, True, 36, 226, 4, "df2516a8cc6e81c075b6d687524e8ce95136c18536ba24aad37fea8f0b90cc86"),
    (4, 3, 9, False, 76, 524, 68, "ba03fd57df87e2fcabd2e3ebab77da347cabe3c74bf19303f4565db3dab6e5f0"),
    (4, 4, 15, False, 90, 634, 247, "d05acd37990d784aac0601a2968532878f44fc0af1dda1639f81a5b201987928"),
    (5, 2, 10, False, 87, 785, 18, "b3a2d9eaf01840b454b0e0c4857ead3b34122ba1c6425681d9b6d42040428ff7"),
    (6, 2, 11, False, 132, 1534, 24, "ed389a2f3467e55f09c636ed66caac73e82527d0f0bfeed7a82cad52952f83a2"),
    (6, 3, 12, True, 178, 2122, 65, "08070257b5542a4bf1a44be0327a85c8081f3a1cae7ef5ee94b03a879036e6ca"),
    (7, 2, 13, False, 189, 2743, 20, "bb20da4e834d5c17ccb2472cfeaa7e81347425ddb8bec69efce3fc1578370837"),
    (1, 4, 14, True, 37, 109, 261, "bf7ea9ed861a7d9c0b36a7b11b1738abd719d9105d0a7e991794496f9bd96ed8"),
    (1, 2, None, True, 21, 55, 18, "0292943a00192630ee9a2da2f6a39d31ad19aca3fa507fb27a05d6618023120c"),
    (2, 2, None, False, 28, 94, 16, "6d167f6bd0adeccb7142ae95b256e93ae042f0db47a8ca0c19e83059aa098111"),
    (2, 2, None, True, 22, 72, 16, "b68c94a9f2e17b5ca7a1bb396c24b507336dea03ef468c9803a4917c5755cad6"),
    (3, 1, None, True, 21, 83, 8, "2cb9a0426f3ee6c6118b359ea12d3afefcacfcdd9a92ef3da252f00e7a2dab98"),
]


def golden_plan(n, m, seed):
    if seed is None:
        target = TargetState.from_polar([2.0 ** (-n / 2)] * (1 << n), [0.0] * (1 << n))
    else:
        target = util.random_target(np.random.default_rng(seed), n)
    return decompose(target, m)


@pytest.mark.parametrize("n, m, seed, peephole, gates, depth, scale_sq, digest", GOLDEN)
def test_golden_row(n, m, seed, peephole, gates, depth, scale_sq, digest):
    plan = golden_plan(n, m, seed)
    circuit = compile_circuit(plan, peephole=peephole)
    report = analyze(circuit, plan)
    assert circuit.layout.total <= 16
    assert report.gate_count == gates
    assert report.elementary_depth == depth
    assert int((plan.amp_ints.astype(np.int64) ** 2).sum()) == scale_sq
    assert hashlib.sha256(circuit.export_text().encode()).hexdigest() == digest

    run = simulate(circuit)
    assert abs(run.probability - scale_sq / 2 ** (n + 4 * m)) <= 1e-12
    output = run.final.extract(circuit.layout.system)
    expected = reconstruct(plan).amplitudes
    assert np.max(np.abs(align_phase(output, expected) - expected)) <= 1e-10
