import pytest

import util
from bitprep import RegisterLayout


def test_register_sizes_and_order():
    layout = RegisterLayout(3, 2)
    assert layout.total == 3 + 2 * 2 + 4
    flat = [*layout.system, *layout.amp, *layout.phase,
            layout.scratch, layout.tag, layout.flag, layout.meter]
    assert flat == list(range(layout.total))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (4, 2)])
def test_total_formula(n, m):
    assert RegisterLayout(n, m).total == n + 2 * m + 4


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        RegisterLayout(0, 1)
    with pytest.raises(ValueError):
        RegisterLayout(1, 0)


def test_system_pattern_is_big_endian():
    layout = RegisterLayout(3, 1)
    # label 4 = binary 100: most significant bit on system[0]
    assert layout.system_pattern(4).pairs == ((0, 1), (1, 0), (2, 0))
    assert layout.system_pattern(1).pairs == ((0, 0), (1, 0), (2, 1))


def test_amp_pattern_is_little_endian():
    layout = RegisterLayout(1, 3)
    # value 4 = binary 100: bit 2**2 sits on amp[2]
    assert util.amp_pattern(layout, 4) == ((layout.amp[0], 0), (layout.amp[1], 0), (layout.amp[2], 1))
    assert util.amp_pattern(layout, 1) == ((layout.amp[0], 1), (layout.amp[1], 0), (layout.amp[2], 0))


def test_phase_pattern_tracks_word_order():
    layout = RegisterLayout(1, 2)
    assert layout.phase_pattern([1, 0]).pairs == ((layout.phase[0], 1), (layout.phase[1], 0))
    with pytest.raises(ValueError):
        layout.phase_pattern([1])
    with pytest.raises(ValueError):
        layout.phase_pattern([1, 2])


def test_pattern_bounds_checked():
    layout = RegisterLayout(2, 2)
    with pytest.raises(ValueError):
        layout.system_pattern(4)
    with pytest.raises(ValueError):
        util.amp_pattern(layout, -1)
    with pytest.raises(ValueError):
        layout.bit_position(layout.total)


def test_bit_position_msb_first():
    layout = RegisterLayout(1, 1)
    assert layout.bit_position(0) == layout.total - 1
    assert layout.bit_position(layout.total - 1) == 0


def test_index_of_full_assignment():
    layout = RegisterLayout(1, 2)
    assignment = (
        layout.system_pattern(1).pairs
        + util.amp_pattern(layout, 2)
        + layout.phase_pattern([1, 1]).pairs
        + ((layout.scratch, 0), (layout.tag, 1), (layout.flag, 0), (layout.meter, 0))
    )
    # qubits 0..8 bits: 1 01 11 0 1 0 0  (amp value 2 -> amp[1] set)
    assert util.index_of(layout, assignment) == 0b101110100


def test_index_of_rejects_partial_or_duplicate():
    layout = RegisterLayout(1, 1)
    with pytest.raises(ValueError):
        util.index_of(layout, [(0, 1)])
    full = [(q, 0) for q in range(layout.total)]
    with pytest.raises(ValueError):
        util.index_of(layout, full + [(0, 0)])
    with pytest.raises(ValueError):
        util.index_of(layout, [(q, 2) for q in range(layout.total)])


def test_register_table_covers_everything():
    layout = RegisterLayout(2, 3)
    covered = []
    for _, first, last in layout.register_table():
        covered.extend(range(first, last + 1))
    assert covered == list(range(layout.total))
