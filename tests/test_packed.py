"""The packed-slot layout, its guard read, and the one slot bound."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qident import appell, overpartitions, packed, partitions, verify


def stream(n):
    *_, last = appell.r_terms(2, n + 2, n)
    return appell.unpack(last).coeffs, overpartitions.overpartition_parts(n)


def knapsack(n, allowed):
    parts = partitions.packed_parts(n, allowed)
    return [partitions._packed_knapsack(n, parts)], (parts,)


# each packed route's counts up to q^n, and the parts its width is taken over
ROUTES = {
    "stream": stream,
    "b-knapsack": lambda n: knapsack(n, partitions.b_parts(n, 2, 0)),
    "schur-knapsack": lambda n: knapsack(n, partitions.schur_parts(n)),
}


@pytest.mark.parametrize("n", [0, 1, 60, 200, 1000])
@pytest.mark.parametrize("route", ROUTES)
def test_largest_coefficient_below_the_guard_bits(route, n):
    rows, parts = ROUTES[route](n)
    width = packed.slot_width(n, *parts)
    assert width % 8 == 0
    assert max(max(row) for row in rows).bit_length() <= width - packed.GUARD_BITS


@pytest.mark.parametrize("width", [8, 16, 72])
def test_first_slot_at_the_edges(width):
    # two rows of unsigned slots that differ in one slot alone, at the top,
    # in the middle or at the bottom, by 1 in its lowest bit or as 0 against
    # 2^{w-3} - 1, the largest count a slot holds: that slot is returned,
    # whichever row is the larger
    lim = 1 << (width - packed.GUARD_BITS)
    for low, high in ((0, 1), (lim - 2, lim - 1), (0, lim - 1)):
        for at in range(3):
            a, b = [lim - 1, 1, 0], [lim - 1, 1, 0]
            a[at], b[at] = low, high
            a, b = packed.pack_row(a, width), packed.pack_row(b, width)
            assert packed.first_slot(a, b, width, 3) == at
            assert packed.first_slot(b, a, width, 3) == at


@pytest.mark.parametrize("width", [8, 16, 72])
def test_guard_mask_at_the_edges(width):
    # the stream's one read: a row of counts below 2^{w-3} shares no bit with
    # the mask, and one slot at 2^{w-3} does, at the top, in the middle and
    # at the bottom
    lim = 1 << (width - packed.GUARD_BITS)
    guard = packed.guard_mask(width, 3)
    for at in range(3):
        row = [0, 1, lim - 1]
        row[at] = lim - 1
        assert not packed.pack_row(row, width) & guard, row
        row[at] = lim
        assert packed.pack_row(row, width) & guard, row


# slots at the extremes, 0 and 2^w - 1, no slots, one slot, and a widening
# by no byte; each slot keeps its value and place, under zero bytes
@given(st.sampled_from([8, 16, 24, 72]), st.integers(0, 3),
       st.lists(st.integers(0, 2**72 - 1), max_size=20))
@example(8, 0, [])
@example(8, 1, [255])
@example(16, 2, [0, 65535, 0, 1])
@settings(max_examples=100, deadline=None)
def test_widen_round_trip(width, more, values):
    values = [v % (1 << width) for v in values]
    new = width + 8 * more
    widened = packed.widen(packed.pack_row(values, width), width, new, len(values))
    assert widened == packed.pack_row(values, new)
    assert packed.read_slots(widened, new, len(values)) == values


def test_one_suite_pass_fits_the_width_cache():
    # a route and its note ask for the same widths, pass after pass: a
    # second verify_all(5) in the same process works none of them out again
    verify.verify_all(5)
    misses = packed.slot_width.cache_info().misses
    verify.verify_all(5)
    assert packed.slot_width.cache_info().misses == misses
