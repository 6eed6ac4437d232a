"""The packed-slot layout, its guard read, and the one slot bound."""

import pytest

from qident import appell, packed, partitions


def stream(n):
    *_, last = appell.r_terms(2, n + 2, n)
    return appell.unpack(last).coeffs, appell.product_parts(1, n)


def knapsack(n, allowed):
    parts = partitions.packed_parts(n, allowed)
    return [partitions._packed_knapsack(n, parts)], (parts,)


# each packed route's counts up to q^n, and the parts its width is taken over
ROUTES = {
    "stream": stream,
    "theorem-product": lambda n: (
        appell.theorem_product(2, n).coeffs, appell.product_parts(2, n)),
    "congruence-product": lambda n: (
        [appell.congruence_product_series(2, 0, n).coeffs], appell.congruence_parts(2, 0, n)),
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
def test_guard_read_at_the_edges(width):
    # a row inside [-2^{w-3}, 2^{w-3}) in every slot passes, and one slot
    # one past either end trips, at the top, in the middle and at the bottom
    lim = 1 << (width - packed.GUARD_BITS)
    for edge in (lim - 1, -lim, 0):
        for at in range(3):
            row = [0, 1, lim - 1]
            row[at] = edge
            assert not packed.overflowed(packed.pack_row(row, width), width, 3), row
            assert packed.read_slots(packed.pack_row(row, width), width, 3, signed=True) == row
    for past in (lim, -lim - 1):
        for at in range(3):
            row = [0, 1, -lim]
            row[at] = past
            assert packed.overflowed(packed.pack_row(row, width), width, 3), row


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
