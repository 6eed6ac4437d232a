"""Packed slots: many counts held in one integer (Kronecker substitution).

A packed row c_0..c_N is sum_s c_s 2^{w (N - s)}: c_0 in the top slot, so a
shift by s slots is a right shift by w s bits and the slots shifted past
c_N fall off the bottom.  Five routes pack: the R_j stream, the closed
product (appell.closed_product_F_coefficients, in the stream's width), the
transfer-matrix sweep (partitions.sweep), the knapsack's large parts and
the corollary's product (appell.congruence_product_series), whose
numerator is read back through read_slots at twice its width, one
two-slot column a chunk.  All hold counts, so every slot is unsigned; w
is whole bytes, with GUARD_BITS clear bits above slot_width's bound,
which guard_mask reads.  The stream, the closed product and the sweep
hold a series in a as a PackedTerm, one packed row per a-degree.  Each
route keeps its own arithmetic on the packed integers, so compared routes
share only this format, no kernel.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

# the bits kept clear above every value a packed slot may reach
GUARD_BITS = 3


class SlotOverflowError(ArithmeticError):
    """Raised when a packed slot reaches its guard bits: the slot width is
    too narrow, and the packed value can no longer be trusted."""


def whole_bytes(bits: int) -> int:
    """bits plus the guard bits, rounded up to whole bytes."""
    return -(-(bits + GUARD_BITS) // 8) * 8


@lru_cache(maxsize=64)
def slot_width(n: int, plain, distinct=()) -> int:
    """The bits of one slot for the coefficients up to q^n of
    F(q) = prod_{p in plain} 1/(1 - q^p) * prod_{p in distinct} (1 + q^p)
    (repeats allowed, each a range or a tuple), and for any value at most
    one of them.  A route and its report's note ask for the same width, so
    it is cached, with room for the 33 widths one verify_all(5) asks for.

    F has non-negative coefficients, so each one up to q^n is at most
    F(x)/x^n for every 0 < x < 1 (Flajolet and Sedgewick, Analytic
    Combinatorics, Prop. VIII.1).  At x = e^{-t}, t = pi/sqrt(6 max(n, 1)),
    p(n)'s saddle point, that is 2^b with b = (n t - sum_plain
    ln(1 - e^{-p t}) + sum_distinct ln(1 + e^{-p t})) / ln 2, so at most
    floor(b) + 1 bits; one more bit covers the float rounding.
    """
    t = math.pi / math.sqrt(6 * max(n, 1))
    b = (n * t - sum(math.log1p(-math.exp(-p * t)) for p in plain)
         + sum(math.log1p(math.exp(-p * t)) for p in distinct)) / math.log(2)
    return whole_bytes(math.floor(b) + 2)


def slot_note(what: str, n: int, *parts) -> str:
    """What slot_width(n, *parts) rests on, for a report's note on the counts
    what names; parts as the route passes them, so its width is cached."""
    plain, distinct = (*parts, ())[:2]
    f = f"prod 1/(1 - x^p) over {len(plain)} parts p" + (
        f" times prod (1 + x^p) over {len(distinct)} distinct parts p" if distinct else "")
    width = slot_width(n, *parts)
    return (f"{what} packed in {width}-bit slots: each coefficient up to q^{n} is at most"
            f" F(x)/x^{n} < 2^{width - GUARD_BITS} at x = e^(-pi/sqrt(6*{max(n, 1)})),"
            f" F(x) = {f}")


@lru_cache(maxsize=16)
def _repeated(top: int, width: int, slots: int) -> int:
    """The byte top at the head of each of `slots` slots of `width` bits."""
    return int.from_bytes((bytes([top]) + bytes(width // 8 - 1)) * slots, "big")


def guard_mask(width: int, slots: int) -> int:
    """The top GUARD_BITS of each of `slots` slots of `width` bits."""
    return _repeated(0xFF << (8 - GUARD_BITS) & 0xFF, width, slots)


class PackedTerm(NamedTuple):
    """A series in a and q with a-row m packed: rows[m] =
    sum_n c_{m,n} 2^{width (q_order - n)}, n <= q_order, so q^0 is the top
    slot.  A coefficient counts objects, so every slot is unsigned, below
    2^{width - GUARD_BITS}, and a shift by q^s is a bare right shift.  A
    named tuple: the sweep builds one per state and value."""

    rows: tuple
    width: int
    q_order: int


def read_rows(term: PackedTerm) -> list:
    """The slot values of each of term's rows, q^0 first, as lists."""
    n1 = term.q_order + 1
    return [read_slots(row, term.width, n1) if row else [0] * n1 for row in term.rows]


def pack_row(values, width: int) -> int:
    """values packed one to a slot, the first on top, each in [0, 2^width)."""
    size = width // 8
    return int.from_bytes(b"".join(c.to_bytes(size, "big") for c in values), "big")


def read_slots(x: int, width: int, slots: int) -> list:
    """The `slots` slot values of the row x, top first."""
    size, read = width // 8, int.from_bytes
    b = x.to_bytes(size * slots, "big")
    return [read(b[i : i + size], "big") for i in range(0, size * slots, size)]


def first_slot(a: int, b: int, width: int, slots: int) -> int:
    """The top slot where two different rows of `slots` unsigned slots
    differ: that of the highest bit of a ^ b, exact since no slot carries
    into the next, so the first differing q-degree."""
    return slots - 1 - ((a ^ b).bit_length() - 1) // width
