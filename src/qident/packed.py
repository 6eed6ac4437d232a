"""Packed slots: many counts held in one integer (Kronecker substitution).

A packed row c_0..c_N is sum_s c_s 2^{w (N - s)}: c_0 in the top slot, so a
shift by s slots is a right shift by w s bits and the slots shifted past
c_N fall off the bottom.  Six routes pack: the R_j stream, the closed
product (appell.closed_product_F_coefficients, in the stream's width), the
transfer-matrix sweep (partitions.sweep), the knapsack's large parts, the
check of each product side against Euler's product (appell.euler_check,
which packs a counted table with pack_row, or widens the stream's last
term, and builds the product's numerator in the same slots), and the
corollary's expanded product (appell.congruence_product_series), whose
numerator is read back through read_slots at twice its width, one
two-slot column a chunk.  The counts are unsigned in every slot; only
the check's differences are signed, and it packs a table's negative
entries apart.  w is whole bytes, with GUARD_BITS clear bits above
slot_width's bound, which guard_mask reads; the check reads its
numerator against a narrower bound, the top bits of its wider slots.
slot_width takes its x at the parts' own saddle point, estimated from
their counts (saddle).  The knapsack and the expanded product's
numerator run narrower than their final counts need while their partial
counts allow it, then widen each slot (widen).  The stream, the closed
product, the sweep and the numerator hold a series in a as a PackedTerm,
one packed row per a-degree.  Each route keeps its own arithmetic on the
packed integers, so compared routes share only this format, no kernel.
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


def _dilog(u: float) -> float:
    """Li2(u) = sum_k u^k / k^2 for 0 <= u <= 1, through Euler's reflection
    Li2(u) + Li2(1 - u) = pi^2/6 - ln(u) ln(1 - u) above 1/2."""
    if u > 0.5:
        return math.pi ** 2 / 6 - math.log(u) * math.log1p(-u) - _dilog(1 - u)
    total = 0.0
    for k in range(19, 0, -1):  # Horner's rule, to within 2^-20 / 400
        total = (total + 1 / (k * k)) * u
    return total


def saddle(n: int, plain, distinct=()) -> float:
    """t, with x = e^{-t} near the minimum of F(x)/x^n for slot_width's F,
    estimated from the parts' counts and, for a plain range, its start,
    with no pass over the parts.

    Were the plain parts spread over (low, n] and the distinct ones over
    (0, n], each as densely as their counts say, ln(F(x)/x^n) would be
    about n t + rho Li2(e^{-low t})/t + |distinct| pi^2/(12 n t), rho the
    plain parts' density: each sum of ln(1 -+ e^{-p t}) taken as its
    integral.  At low = 0, Li2(1) = pi^2/6, and the minimum is at
    t = pi sqrt(|plain|/6 + |distinct|/12) / n, p(n)'s saddle point for
    1..n plain; otherwise t is the best of a 13-point grid t_0 2^{-j/4},
    j = 0..12, since the parts above low pull the minimum below t_0."""
    n = max(n, 1)
    t0 = math.pi * math.sqrt(len(plain) / 6 + len(distinct) / 12) / n
    low = plain.start - 1 if isinstance(plain, range) and plain.step == 1 else 0
    if not 0 < low < n:
        return t0
    rho, spread = len(plain) / (n - low), len(distinct) * math.pi ** 2 / (12 * n)
    return min((t0 * 2 ** (-j / 4) for j in range(13)),
               key=lambda t: n * t + (rho * _dilog(math.exp(-low * t)) + spread / t) / t)


@lru_cache(maxsize=128)
def slot_width(n: int, plain, distinct=()) -> int:
    """The bits of one slot for the coefficients up to q^n of
    F(q) = prod_{p in plain} 1/(1 - q^p) * prod_{p in distinct} (1 + q^p)
    (repeats allowed, each a range or a tuple), and for any value at most
    one of them.  A route and its report's note ask for the same width, so
    it is cached, with room for the widths of one verify_all(5) pass and of
    the knapsack's stages at a few n.

    F has non-negative coefficients, so each one up to q^n is at most
    F(x)/x^n for every 0 < x < 1 (Flajolet and Sedgewick, Analytic
    Combinatorics, Prop. VIII.1).  At x = e^{-t}, t = saddle(n, plain,
    distinct), that is 2^b with b = (n t - sum_plain ln(1 - e^{-p t})
    + sum_distinct ln(1 + e^{-p t})) / ln 2, so at most floor(b) + 1 bits;
    one more bit covers the float rounding.
    """
    t = saddle(n, plain, distinct)
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
            f" F(x)/x^{n} < 2^{width - GUARD_BITS} at x = e^(-{saddle(n, *parts):.6f}),"
            f" F(x) = {f}")


@lru_cache(maxsize=16)
def _repeated(head: bytes, width: int, slots: int) -> int:
    """The bytes head at the top of each of `slots` slots of `width` bits."""
    return int.from_bytes((head + bytes(width // 8 - len(head))) * slots, "big")


def guard_mask(width: int, slots: int, bits: int | None = None) -> int:
    """The top `bits` bits (GUARD_BITS by default) of each of `slots` slots
    of `width` bits."""
    full, part = divmod(GUARD_BITS if bits is None else bits, 8)
    return _repeated(b"\xff" * full + bytes([0xFF << (8 - part) & 0xFF] if part else []),
                     width, slots)


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


def widen(x: int, width: int, new_width: int, slots: int) -> int:
    """The row x of `slots` unsigned slots of `width` bits, each moved to a
    slot of new_width bits under new_width - width zero bits: one byte
    slice per byte of the old slot, no pass over the slots."""
    size, new = width // 8, new_width // 8
    old, out = x.to_bytes(size * slots, "big"), bytearray(new * slots)
    for j in range(size):
        out[new - size + j :: new] = old[j :: size]
    return int.from_bytes(out, "big")


def first_slot(a: int, b: int, width: int, slots: int) -> int:
    """The top slot where two different rows of `slots` unsigned slots
    differ: that of the highest bit of a ^ b, exact since no slot carries
    into the next, so the first differing q-degree."""
    return slots - 1 - ((a ^ b).bit_length() - 1) // width
