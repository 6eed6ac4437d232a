"""Exact truncated power series in q, optionally with a marker variable a.

All coefficients are exact Python integers; there is no floating point
anywhere.  A series is truncated at a fixed order: a ``QSeries`` of order N
stores the coefficients of q^0 .. q^N, and a ``BivariateSeries`` stores the
(a_order+1) x (q_order+1) matrix of coefficients of a^m q^n.  Arithmetic on
series of different orders silently truncates to the minimum order, so
callers that care about a given order should construct all operands at that
order.

Values are immutable after construction and every operation is a pure
function, so series may be shared freely across threads and processes.

Operations work on whole coefficient rows where they can: a multiplication
by a binomial 1 +- a^s q^e is one slice add or subtract per a-row, and
division by a unit (inversion is division of 1) sums over the nonzero
coefficients only, so dividing by the sparse Euler product (q; q)_inf is
the pentagonal recurrence.  Euler's product itself is not multiplied out:
by the pentagonal number theorem its only nonzero coefficients are +-1 at
the generalized pentagonal numbers, and euler_product writes just those.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

# The convolution kernel.  bivar_mul is the one multiply loop; conv_trunc,
# the product of two q-series, is its one-row case.  QSeries and
# BivariateSeries look both names up in this module's globals at call time,
# so rebinding series.conv_trunc or series.bivar_mul reaches every product.


def conv_trunc(c1, c2, order):
    """Cauchy product of two coefficient lists, truncated at `order`: the
    one-row case of bivar_mul."""
    return _bivar_mul([c1], [c2], 0, order)[0]


def bivar_mul(rows1, rows2, a_order, q_order):
    """Product of two (a, q) coefficient matrices, truncated at both orders.

    rows*[m][n] is the coefficient of a^m q^n; input row counts may be
    smaller than a_order + 1.
    """
    r1 = len(rows1)
    r2 = len(rows2)
    out = []
    for m in range(a_order + 1):
        acc = [0] * (q_order + 1)
        for i in range(min(m, r1 - 1) + 1):
            j = m - i
            if j >= r2:
                continue
            row_i = rows1[i]
            row_j = rows2[j]
            for p, a in enumerate(row_i):
                if a == 0 or p > q_order:
                    continue
                top = min(len(row_j), q_order - p + 1)
                for s in range(top):
                    b = row_j[s]
                    if b:
                        acc[p + s] += a * b
        out.append(acc)
    return out


# bound once, so a rebinding of series.bivar_mul sees only the products that
# call it by that name, and a q-series product counts as conv_trunc alone
_bivar_mul = bivar_mul


def _divide(row, unit) -> list:
    """row divided by the q-series unit, truncated at the row's length:
    t[d] = eps * (row[d] - sum_{i>=1} unit[i] t[d - i]), with eps = unit[0]
    = +-1 and the sum over the nonzero unit[i] only, grouped by value, so
    dividing by the sparse Euler product (q; q)_inf is the pentagonal
    recurrence with one multiply per group, +1 and -1, and none per term.
    unit must reach the row's order."""
    eps = unit[0]
    if eps not in (1, -1):
        raise ValueError(f"constant term {eps} is not a unit in the integers")
    groups = {}
    for i, ci in enumerate(unit):
        if ci and i:
            groups.setdefault(ci, []).append(i)
    groups = list(groups.items())
    t = [0] * len(row)
    for d, s in enumerate(row):
        for ci, offsets in groups:
            part = 0
            for i in offsets:
                if i > d:
                    break
                part += t[d - i]
            s -= ci * part
        t[d] = eps * s
    return t


def _termwise(op, rows1, rows2) -> tuple:
    """op applied term by term to two coefficient matrices; zip stops at the
    shorter row and the shorter list of rows, so a sum or difference is
    truncated at the smaller order in both variables."""
    return tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(rows1, rows2))


def _shifted(items: tuple, exp: int, zero=0) -> tuple:
    """items moved up exp places at the same length: zero fills the front
    and items moved past the end fall off."""
    kept = items[: max(0, len(items) - exp)]
    return (zero,) * (len(items) - len(kept)) + tuple(kept)


@dataclass(frozen=True)
class QSeries:
    """A truncated formal power series in q with integer coefficients."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        """Coefficient of q^n; raises IndexError beyond the truncation order."""
        if n < 0:
            return 0
        return self.coeffs[n]

    def __add__(self, other: "QSeries") -> "QSeries":
        return QSeries(_termwise(add, [self.coeffs], [other.coeffs])[0])

    def __sub__(self, other: "QSeries") -> "QSeries":
        return QSeries(_termwise(sub, [self.coeffs], [other.coeffs])[0])

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries(tuple(c * other for c in self.coeffs))
        if isinstance(other, QSeries):
            order = min(self.order, other.order)
            return QSeries(tuple(conv_trunc(list(self.coeffs), list(other.coeffs), order)))
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, exp: int) -> "QSeries":
        """Multiply by q^exp (exp >= 0); terms past the order fall off."""
        if exp < 0:
            raise ValueError("shift exponent must be non-negative")
        return QSeries(_shifted(self.coeffs, exp))

    def invert_unit(self) -> "QSeries":
        """Multiplicative inverse up to the truncation order.

        The constant term must be +1 or -1 (a unit in the integers).  It is
        1 divided by the series (_divide), so a sparse series such as
        (q; q)_inf (the pentagonal recurrence) costs one term per nonzero
        coefficient below d.
        """
        one = [1] + [0] * self.order
        return QSeries(tuple(_divide(one, self.coeffs)))


@dataclass(frozen=True)
class Monomial:
    """A signed monomial ±a^{a_exp} q^{q_exp}, used to describe Pochhammer factors."""

    a_exp: int
    q_exp: int
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.a_exp < 0:
            raise ValueError("a_exp must be non-negative")


@dataclass(frozen=True)
class BivariateSeries:
    """A truncated series in q whose coefficients are polynomials in a.

    ``coeffs[m][n]`` is the coefficient of a^m q^n.
    """

    coeffs: tuple  # (a_order+1) rows of (q_order+1) ints

    @property
    def a_order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def q_order(self) -> int:
        return len(self.coeffs[0]) - 1

    @classmethod
    def one(cls, a_order: int, q_order: int) -> "BivariateSeries":
        return cls.from_dict({(0, 0): 1}, a_order, q_order)

    @classmethod
    def from_dict(cls, entries: dict, a_order: int, q_order: int) -> "BivariateSeries":
        rows = [[0] * (q_order + 1) for _ in range(a_order + 1)]
        for (m, n), c in entries.items():
            if m < 0 or n < 0:
                raise ValueError("exponents must be non-negative")
            if m <= a_order and n <= q_order:
                rows[m][n] += c
        return cls(tuple(tuple(r) for r in rows))

    def coefficient(self, m: int, n: int) -> int:
        if m < 0 or n < 0:
            return 0
        return self.coeffs[m][n]

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        return BivariateSeries(_termwise(add, self.coeffs, other.coeffs))

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        return BivariateSeries(_termwise(sub, self.coeffs, other.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return BivariateSeries(tuple(tuple(c * other for c in row) for row in self.coeffs))
        if isinstance(other, QSeries):
            return self.mul_qseries(other)
        if isinstance(other, BivariateSeries):
            a = min(self.a_order, other.a_order)
            q = min(self.q_order, other.q_order)
            rows = bivar_mul([list(r) for r in self.coeffs], [list(r) for r in other.coeffs], a, q)
            return BivariateSeries(tuple(tuple(r) for r in rows))
        return NotImplemented

    __rmul__ = __mul__

    def mul_qseries(self, s: QSeries) -> "BivariateSeries":
        """Multiply by a pure q-series without padding it to full a-order."""
        q = min(self.q_order, s.order)
        rows = bivar_mul([list(r) for r in self.coeffs], [list(s.coeffs)], self.a_order, q)
        return BivariateSeries(tuple(tuple(r) for r in rows))

    def mul_binomial(self, factor: Monomial) -> "BivariateSeries":
        """Multiply by 1 + sign * a^{a_exp} q^{q_exp}: each a-row gains the row
        a_exp below it, shifted by q_exp, in one add (or subtract) of slices."""
        e = factor.q_exp
        if e < 0:
            raise ValueError("binomial q-exponent must be non-negative")
        op = add if factor.sign > 0 else sub
        rows = list(self.coeffs)
        for m in range(factor.a_exp, self.a_order + 1):
            row = self.coeffs[m]
            rows[m] = row[:e] + tuple(map(op, row[e:], self.coeffs[m - factor.a_exp]))
        return BivariateSeries(tuple(rows))

    def shift(self, a_exp: int, q_exp: int) -> "BivariateSeries":
        """Multiply by a^{a_exp} q^{q_exp}; terms past either order fall off."""
        if a_exp < 0 or q_exp < 0:
            raise ValueError("shift exponents must be non-negative")
        rows = tuple(_shifted(row, q_exp) for row in self.coeffs)
        return BivariateSeries(_shifted(rows, a_exp, (0,) * (self.q_order + 1)))

    def first_difference(self, other: "BivariateSeries") -> tuple | None:
        """The first (a-degree, q-degree) where the two series differ, a-degree
        first, or None if they are equal.  Series of different orders raise
        ValueError, so unequal shapes never compare as equal."""
        if (self.a_order, self.q_order) != (other.a_order, other.q_order):
            raise ValueError(
                f"cannot compare a series of orders ({self.a_order}, {self.q_order}) "
                f"with one of orders ({other.a_order}, {other.q_order})"
            )
        for m, (row, other_row) in enumerate(zip(self.coeffs, other.coeffs)):
            if row != other_row:
                return m, next(n for n, (c, d) in enumerate(zip(row, other_row)) if c != d)
        return None

    def to_qseries(self) -> QSeries:
        """Project to a QSeries; every a-degree above 0 must vanish."""
        for m in range(1, self.a_order + 1):
            if any(self.coeffs[m]):
                raise ValueError(f"series has a nonzero coefficient at a-degree {m}")
        return QSeries(self.coeffs[0])

    def set_a(self, value: int) -> QSeries:
        """Evaluate the marker variable a at an integer (e.g. a=1)."""
        n1 = self.q_order + 1
        out = [0] * n1
        for m, row in enumerate(self.coeffs):
            w = value**m
            for n in range(n1):
                if row[n]:
                    out[n] += w * row[n]
        return QSeries(tuple(out))


def pochhammer_inf(factor: Monomial, step_q: int, q_order: int, a_order: int = 0) -> BivariateSeries:
    """The infinite product prod_{j>=0} (1 + sign * a^{a_exp} q^{q_exp + j*step_q}).

    Truncation is exact: factors whose q-exponent exceeds `q_order` are
    congruent to 1 at this order and are simply skipped.  Requires
    factor.q_exp >= 1 so that only finitely many factors matter.
    """
    if factor.q_exp < 1:
        raise ValueError("pochhammer factor must have q-exponent >= 1")
    if step_q < 1:
        raise ValueError("step_q must be positive")
    out = BivariateSeries.one(a_order, q_order)
    e = factor.q_exp
    while e <= q_order:
        out = out.mul_binomial(Monomial(factor.a_exp, e, factor.sign))
        e += step_q
    return out


def euler_product(q_order: int) -> QSeries:
    """(q;q)_inf truncated at q_order, read off Euler's pentagonal number
    theorem: (-1)^m at q^{m(3m-1)/2} and q^{m(3m+1)/2} for each m >= 0, and
    0 elsewhere, so O(sqrt(q_order)) terms are written and no binomial is
    multiplied out."""
    coeffs = [0] * (q_order + 1)
    m = 0
    while m * (3 * m - 1) // 2 <= q_order:
        for e in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if e <= q_order:
                coeffs[e] = (-1) ** m
        m += 1
    return QSeries(tuple(coeffs))


def specialize(s: BivariateSeries, t: int, e: int, out_order: int | None = None) -> QSeries:
    """Map (a, q) -> (q^e, q^t): a^m q^n contributes at q^{t*n + m*e}.

    `e` may be negative provided no nonzero term lands at a negative
    exponent; this keeps the i=0 specialization out of Laurent-series
    territory.  Terms landing beyond `out_order` (default: t times the
    input q-order) are dropped, consistent with truncation.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    if out_order is None:
        out_order = t * s.q_order
    if out_order < 0:
        raise ValueError("out_order must be non-negative")
    out = [0] * (out_order + 1)
    for m, row in enumerate(s.coeffs):
        off = m * e
        for n, c in enumerate(row):
            if c == 0:
                continue
            d = t * n + off
            if d < 0:
                raise ValueError(
                    f"term a^{m} q^{n} would land at negative exponent {d}"
                )
            if d <= out_order:
                out[d] += c
    return QSeries(tuple(out))
