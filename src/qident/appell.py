"""The generating-function machinery behind the overpartition identity.

R_j(a, q) counts the D_k objects with parts <= j and no overlined value in
j-k+2..j.  The paper's combinatorial step is that they obey the recursion

    R_j = R_{j-1} / (1 - q^j)  +  a q^{j-k+1} R_{j-k} / (1 - q^j),

the termwise content of the functional equation
(1 - x) F = (1 + a x^k q) F(x -> xq) for F = sum_j R_j x^j.  This module
never solves that recursion.  R_j is counted once, as the D_k sweep's
state-k snapshot after value j (overpartitions.dk_sweep; build_R keeps
them), and the recursion is checked on those counts.  The module also
expands the closed product solution for F, and takes the formal
coefficientwise limit R_infty, which must reproduce the infinite product
(-aq; q^k)_inf / (q; q)_inf.  It expands that product and the
corollary family's (-q^{2i+1}; q^{2k})_inf / (q^2; q^2)_inf one way
(_expanded): the finite numerator prod (1 + a q^e) (product_numerator),
packed in its own slots, each row then divided by Euler's product by the
pentagonal recurrence (series._divide).  Those expansions are the coeffs
output and the frozen tables' oracles.  The verifiers check each product
side the other way round, with euler_check: the counted table times
Euler's product, a few dozen shifts of one packed integer an a-row,
against the same numerator, packed, so no coefficient of the product is
formed.

The functional equation and the limit are checked one j at a time
(functional_equation_step reads R_j, R_{j-1}, R_{j-k}; limit_step reads
R_j, R_{j-1}), so a caller can check them as the sweep's snapshots
arrive; check_functional_equation and appell_limit run the same steps
over an RSequence's terms as they are.

The terms are the sweep's packed states (packed.PackedTerm), in the width
of the D_k counts' bound, the module below's overpartition_parts: a-row m
of R_j is one integer of unsigned counts, q^0 on top, so a row add is one
integer add and a shift by q^s a bare right shift.  unpack turns a term
into a BivariateSeries, as appell_limit returns its limit and as the
machinery's stages read a differing term.

Euler's two identities give R_j in closed form: its a^d row is
q^{d + k d(d-1)/2} / ((q^k; q^k)_d (q; q)_{j-kd}).  The closed product
counts each row from that form on packed rows in the sweep's width, so a
caller compares its terms with R_j as integers; it runs its own divisions
and shares no arithmetic with the sweep.  The limit checks the bound the
closed form implies: the coefficient of q^e is fixed once j >= e + k - 1.
Checked between neighbours, that is R_j = R_{j-1} below q^{j-k+1}; the
windows grow with j, so the agreements chain forward to R_{j_max}.
pj_series sums P_j on the last k terms.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, takewhile

from . import packed
from .overpartitions import dk_sweep, overpartition_parts
from .packed import PackedTerm
from .partitions import check_params
from .series import BivariateSeries, QSeries, _divide, euler_product


class StabilizationError(ValueError):
    """Raised when a formal limit cannot be certified at the given depth."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness  # (a_degree, q_degree) or None


def least_weight(k: int, m: int, lo: int = 1) -> int:
    """The least weight of m overlined parts pairwise >= k apart, all >= lo:
    lo + (lo + k) + ... + (lo + (m-1)k) = m*lo + k*m*(m-1)/2.

    By Euler's expansion of (-aq; q^k)_inf, whose a^m row is
    q^{m + k m(m-1)/2} / (q^k; q^k)_m, row m of every R_j and of the
    theorem's product is zero below least_weight(k, m); product_numerator's
    row m starts at least_weight(d, m, f) for the parts f, f + d, ....
    """
    return m * lo + k * m * (m - 1) // 2


def max_overline_count(k: int, q_order: int) -> int:
    """Largest m whose least weight, least_weight(k, m), fits in q_order.

    a-degrees above this bound carry only zero coefficients below the
    truncation order.
    """
    m = 0
    while least_weight(k, m + 1) <= q_order:
        m += 1
    return m


def unpack(term: PackedTerm) -> BivariateSeries:
    """The BivariateSeries whose a-rows term packs."""
    return BivariateSeries(tuple(map(tuple, packed.read_rows(term))))


@dataclass
class RSequence:
    """terms[j] = R_j(a, q) for j = 0..j_max, at a shared truncation, each
    the D_k sweep's state-k PackedTerm."""

    k: int
    q_order: int
    a_order: int
    terms: list

    @property
    def j_max(self) -> int:
        return len(self.terms) - 1


def build_R(k: int, j_max: int, q_order: int) -> RSequence:
    """R_0..R_{j_max}: the D_k sweep's state-k snapshots after the values
    0..j_max (overpartitions.dk_sweep), at q-order q_order, with a-rows
    0..max_overline_count(k, q_order): every row above is zero below the
    truncation.  State k after value j counts the D_k objects with parts
    <= j and no overlined value in j-k+2..j, which is R_j; no recursion is
    solved, so the checks below test the recursion on the counted objects.
    The parameters are checked at the call, before any work.
    """
    check_params(k, j_max=j_max, q_order=q_order)
    a_order = max_overline_count(k, q_order)
    return RSequence(k, q_order, a_order, [states[k] for states in dk_sweep(q_order, k, a_order, j_max)])


def functional_equation_step(k: int, j: int, term, prev, low) -> tuple | None:
    """Verify R_j - R_{j-1} = q^j R_j + a q^{j-k+1} R_{j-k} at one j >= 1.

    term, prev and low are the PackedTerms R_j, R_{j-1} and R_{j-k} (None
    when j < k).  Each a-row of R_j is compared with the same row of
    R_{j-1} + q^j R_j + a q^{j-k+1} R_{j-k}: the shifts drop the slots past
    q^{q_order}, and the difference of four values below 2^{w-3} is zero
    exactly when every slot is.  Only on a mismatch is that sum formed, as
    row - residue, three values below 2^{w-3} a slot, so no slot carries
    and the first slot it differs from R_j in is read off the two rows.
    Returns the first failing (a-degree, q-degree), a-degree before
    q-degree, or None.
    """
    width, slots = term.width, term.q_order + 1
    lows = (0, *low.rows) if low is not None else (0,) * len(term.rows)
    for m, (row, before, under) in enumerate(zip(term.rows, prev.rows, lows)):
        residue = row - before - (row >> width * j)
        if under:  # a q^{j-k+1} R_{j-k}
            residue -= under >> width * (j - k + 1)
        if residue:
            return m, packed.first_slot(row, row - residue, width, slots)
    return None


def check_functional_equation(rs: RSequence) -> tuple | None:
    """functional_equation_step at each 1 <= j <= j_max: the x^j coefficient
    of (1-x)F = (1 + a x^k q) F(x -> xq).  Returns the first failing
    (j, a-degree, q-degree), or None when every equation holds.
    """
    k, terms = rs.k, rs.terms
    for j in range(1, rs.j_max + 1):
        low = terms[j - k] if j >= k else None
        diff = functional_equation_step(k, j, terms[j], terms[j - 1], low)
        if diff is not None:
            return (j, *diff)
    return None


def closed_product_F_coefficients(k: int, j_top: int, q_order: int) -> Iterator:
    """Yield the x^0..x^{j_top} coefficients of
    prod_{t>=0} (1 + a x^k q^{tk+1}) / (1 - x q^t) as PackedTerms, in the D_k
    sweep's width: slot_width for overpartition_parts(q_order).

    Euler's two identities expand the product: the a^d row of the x^j
    coefficient is q^{d + k d(d-1)/2} / ((q^k; q^k)_d (q; q)_{j-kd}), zero
    when kd > j, for d <= max_overline_count(k, q_order).  Row d starts at
    j = kd as q^{least_weight(k, d)} divided by (1 - q^{kt}), t = 1..d, and
    each later j divides it by (1 - q^{j-kd}), since row(j, d) =
    row(j-1, d) / (1 - q^{j-kd}).  Each division runs doubling steps
    row += q^s row, s = p, 2p, 4p, ... <= q_order, written here and run by
    no other route, so the only code it shares with the sweep it must
    equal is the packed format and the a-order bound.

    Every value formed is at most the matching coefficient of the x^j term,
    which is R_j's, so the sweep's width bounds it.  The guard bits are
    read once per j, after its divisions; a slot holding one raises
    SlotOverflowError naming j and the width.  Given up: a carry could
    clear a guard bit before the read were the width wrong by GUARD_BITS
    bits or more, though a term so corrupted would still have to equal
    the sweep's for the stage to pass.  The parameters are checked at the call,
    before the first term.
    """
    check_params(k, j_top=j_top, q_order=q_order)
    return _closed_product_terms(k, j_top, q_order)


def _closed_product_terms(k: int, j_top: int, q_order: int) -> Iterator:
    d_max = max_overline_count(k, q_order)
    width = packed.slot_width(q_order, *overpartition_parts(q_order))
    guard = packed.guard_mask(width, q_order + 1)

    def divided(row, p):  # row / (1 - q^p), the slots past q^{q_order} dropped
        s = p
        while s <= q_order:
            row += row >> width * s
            s += s
        return row

    rows = [0] * (d_max + 1)
    for j in range(j_top + 1):
        for d in range(min(-(-j // k), d_max + 1)):  # the rows started before j
            rows[d] = divided(rows[d], j - k * d)
        d, r = divmod(j, k)
        if r == 0 and d <= d_max:
            row = 1 << width * (q_order - least_weight(k, d))
            for t in range(1, d + 1):
                row = divided(row, k * t)
            rows[d] = row
        if any(row & guard for row in rows):
            raise packed.SlotOverflowError(
                f"slot overflow: the closed product's x^{j} coefficient reached the guard bits"
                f" of its {width}-bit slots at q_order={q_order}")
        yield PackedTerm(tuple(rows), width, q_order)


def require_depth(k: int, j_max: int, q_order: int) -> None:
    """Refuse a limit that cannot be certified: the settling check at j_max
    covers every q^e below q_order + 1 only when j_max >= q_order + k."""
    if j_max < q_order + k:
        raise StabilizationError(f"not stabilized: j_max={j_max} < q_order+k={q_order + k}")


def limit_step(k: int, j: int, term, prev) -> PackedTerm:
    """One step of the settling check at j >= k: the PackedTerm R_j = term
    must equal R_{j-1} = prev below q^{j-k+1}.  Returns R_j, the limit so far.

    By the closed form the coefficient of q^e is fixed for j >= e + k - 1, so
    a difference below q^{j-k+1} is a settled coefficient that changed; it
    raises with its (a-degree, q-degree), the lowest of each.  Shifting out
    the slots from q^{j-k+1} up leaves the slots compared.
    """
    width = term.width
    slots = min(j - k + 1, term.q_order + 1)
    cut = width * (term.q_order + 1 - slots)
    for m, (row, before) in enumerate(zip(term.rows, prev.rows)):
        kept, kept_before = row >> cut, before >> cut
        if kept != kept_before:
            e = packed.first_slot(kept, kept_before, width, slots)
            raise StabilizationError(
                f"not stabilized: coefficient of a^{m} q^{e} changes between"
                f" j={j - 1} and j={j}, though it settles by j={e + k - 1}",
                witness=(m, e),
            )
    return term


def appell_limit(rs: RSequence) -> BivariateSeries:
    """The formal evaluation of lim_{x->1} (1-x) F(a,x,q): R_{j_max}, certified.

    limit_step at each k <= j <= j_max, on the packed terms: R_j agrees with
    R_{j-1} below q^{j-k+1}.  As that window grows with j, the agreements
    chain forward: they hold exactly when each R_j agrees with R_{j_max}
    below q^{j-k+2}, the closed form's settling bound.  require_depth makes
    the last step cover every q^e; the first changed coefficient raises with
    its (a-degree, q-degree).
    """
    require_depth(rs.k, rs.j_max, rs.q_order)
    for j in range(rs.k, rs.j_max + 1):
        limit_step(rs.k, j, rs.terms[j], rs.terms[j - 1])
    return unpack(rs.terms[-1])


def theorem_product(k: int, q_order: int, a_order: int | None = None) -> BivariateSeries:
    """The product side (-aq; q^k)_inf / (q; q)_inf of the overpartition
    identity, a-rows 0..a_order (by default max_overline_count(k, q_order),
    past which every row is zero): _expanded on the parts e = 1 mod k.  The
    coeffs output and the frozen tables' oracle, which no verifier runs
    (euler_check multiplies instead)."""
    check_params(k, q_order=q_order, a_order=a_order)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    rows = _expanded(range(1, q_order + 1, k), 1, q_order, a_order, f"the D_{k} product's numerator")
    return BivariateSeries(tuple(map(tuple, rows)))


def pj_series(k: int, terms, j: int) -> PackedTerm:
    """P_j built independently as a sum over the largest overline position,
    from R_j's terms: terms[-1] is R_j and terms[-1 - t] is R_{j-t}.

    An admissible configuration with parts <= j either has no overline above
    j-k+1 (counted by R_j), or its largest overline b lies in
    {j-k+2, ..., j}; removing that overline forbids plain parts in [b, j]
    and overlines above b-k, leaving exactly the configurations of R_{b-1}.
    Hence P_j = R_j + sum_b a q^b R_{b-1}, which reads only the last k
    terms: row m is R_j's row m plus row m - 1 of each R_{b-1} shifted right
    by q^b, dropping the slots past q^{q_order}.  P_j counts D_k objects, so
    its slots stay under the sweep's bound.
    """
    term = terms[-1]
    rows = list(term.rows)
    for b in range(max(1, j - k + 2), j + 1):
        bits = term.width * b
        for m, low in enumerate(terms[b - j - 2].rows[:-1], 1):  # R_{b-1}
            rows[m] += low >> bits
    return PackedTerm(tuple(rows), term.width, term.q_order)


def congruence_product_series(k: int, i: int, q_order: int) -> QSeries:
    """The product (-q^{2i+1}; q^{2k})_inf / (q^2; q^2)_inf of the corollary
    family, _expanded's one row at a = 1 on the parts e = 2i+1 mod 2k: a
    route to B_{i,k} sharing no algorithm with count_B_table's knapsack.
    The coeffs output and the frozen tables' oracle, which no verifier runs
    (euler_check multiplies instead)."""
    check_params(k, i, q_order=q_order)
    (row,) = _expanded(range(2 * i + 1, q_order + 1, 2 * k), 2, q_order, None,
                       f"the B_{{{i},{k}}} product's numerator")
    return QSeries(tuple(row))


def product_numerator(parts: range, q_order: int, width: int, a_order: int | None = None) -> PackedTerm:
    """prod (1 + a q^e) over the parts e = f, f + d, f + 2d, ... <= q_order
    (the range parts), up to q^{q_order} in width-bit slots, q^0 on top:
    its a-rows 0..a_order, or with a_order None its one row at a = 1.

    By Euler's expansion of (-a q^f; q^d)_inf (Andrews, The Theory of
    Partitions, ch. 2), its a^m row is q^{L_m} / (q^d; q^d)_m, L_m =
    f + (f + d) + ... + (f + (m-1)d) the least weight of m parts, so row m
    is row m - 1 times q^{f + (m-1)d}, divided by (1 - q^{dm}) in doubling
    steps row += q^s row, s = dm, 2dm, 4dm, ..., each dropping the slots
    past q^{q_order}.  At a = 1 the rows are summed from the top down, in
    Horner's form 1 + q^f/(1 - q^d) (1 + q^{f+d}/(1 - q^{2d}) (1 + ...)):
    the sum from row m up is held in the slots up to q^{q_order - L_m}, so
    read in the slots of row m - 1, up to q^{q_order - L_{m-1}}, it is
    already times q^{f + (m-1)d}, and the inner sums stay short.  Every
    value formed is at most one of the product's coefficients.  No slot is
    read; numerator_bound reads them against the caller's bound.
    """
    n, f, d = q_order, parts.start, parts.step

    def divided(row, p, top):  # row / (1 - q^p), in the slots up to q^top
        while p <= top:
            row += row >> width * p
            p += p
        return row

    if a_order is not None:
        rows = [1 << width * n]
        for m in range(1, a_order + 1):
            rows.append(divided(rows[-1] >> width * (f + (m - 1) * d), d * m, n))
        return PackedTerm(tuple(rows), width, n)
    # q_order - L_m, the top slot of row m's sum, for each L_m <= q_order
    tops = list(takewhile(lambda top: top >= 0, (n - least_weight(d, m, f) for m in count())))
    row = 0
    for m in range(len(tops) - 1, 0, -1):
        row = divided(row + (1 << width * tops[m]), d * m, tops[m])
    return PackedTerm((row + (1 << width * n),), width, n)


def numerator_bound(numerator: PackedTerm, own: int, what: str) -> None:
    """Read every slot of numerator, however wide, to be below
    2^{own - GUARD_BITS}, the bound of the own-bit slots packed.slot_width
    gives it; a slot at or past it raises SlotOverflowError naming `what`
    and the own width.  Given up, as in the closed product: a carry could
    clear the bits read before the read were the bound wrong by as many
    bits as are read, GUARD_BITS in own-bit slots and more in wider ones."""
    width, slots = numerator.width, numerator.q_order + 1
    high = packed.guard_mask(width, slots, width - own + packed.GUARD_BITS)
    if any(row & high or row >> width * slots for row in numerator.rows):
        raise packed.SlotOverflowError(
            f"slot overflow: {what} reached the guard bits of its {own}-bit slots"
            f" at q_order={numerator.q_order}")


def _expanded(parts: range, t: int, q_order: int, a_order: int | None, what: str) -> list:
    """prod (1 + a q^e) / (q^t; q^t)_inf over the range parts, up to
    q^{q_order}, as lists, q^0 first: its a-rows 0..a_order, or with a_order
    None its one row at a = 1.

    The numerator is euler_check's, product_numerator, here in its own
    packed.slot_width slots and read against that bound (numerator_bound, a
    trip raising SlotOverflowError naming `what`).  Each of its rows is then
    divided by Euler's product, placed on every t-th exponent, by the
    pentagonal recurrence (series._divide) on plain integers, so only the
    numerator is held in slots.
    """
    own = packed.slot_width(q_order, (), parts)
    numerator = product_numerator(parts, q_order, own, a_order)
    numerator_bound(numerator, own, what)
    euler = [0] * (q_order + 1)
    euler[::t] = euler_product(q_order // t).coeffs
    return [_divide(row, euler) for row in packed.read_rows(numerator)]


def _packed_signs(row, width: int) -> tuple:
    """The integers row = c_0..c_N as two packed rows (P, M), q^0 on top:
    P packs the positive c_s, M the magnitudes of the negative ones (0 when
    there are none), so each shifts slot by slot."""
    if min(row) >= 0:
        return packed.pack_row(row, width), 0
    return (packed.pack_row([max(c, 0) for c in row], width),
            packed.pack_row([max(-c, 0) for c in row], width))


def euler_check(table, t: int, parts: range, what: str, a_order: int | None = None) -> tuple:
    """Check table (q^t; q^t)_inf = prod (1 + a q^e) over the range parts,
    one packed integer an a-row: the product side numerator /
    (q^t; q^t)_inf of each identity, with none of its coefficients formed.

    table is the counted rows, q^0 first, as lists (negative entries too,
    packed by _packed_signs) or as a PackedTerm, whose guard read holds its
    slots below 2^{width - GUARD_BITS}; the numerator is
    product_numerator's rows 0..a_order, or its one row at a = 1 with
    a_order None.  By Euler's pentagonal theorem (Andrews, The Theory of
    Partitions, ch. 1) (q^t; q^t)_inf is +-1 at q^{tg}, g a generalized
    pentagonal number, and 0 elsewhere, so a row times it is the sum of
    +-(row >> W t g) over the c terms with t g <= N = the table's q-order,
    grouped by sign (c is the sum of the coefficients' sizes, should one be
    other than +-1).

    W is worked out from the data.  b is the larger of the table's largest
    bit length and the numerator's bound, own - GUARD_BITS for own its
    packed.slot_width, and W is b + bit_length(c) + 2, in whole bytes.  The
    numerator is built in W-bit slots, not widened, and every slot is read
    against that bound (numerator_bound), a trip raising SlotOverflowError
    that names `what`; so W rests on what the table holds and what the read
    finds, and a slot_width too narrow trips the read rather than narrowing
    W.  Each coefficient of row (q^t; q^t)_inf - numerator is
    then below (c + 1) 2^b <= 2^{W-2} in size, so the slots below the first
    nonzero one cannot cancel it: the integers are equal exactly when the
    coefficient lists are, and the first nonzero slot, found from the
    difference's bit length, is read by rounding.  It is the first n where
    the row and the product differ, and as (q^t; q^t)_inf starts with 1,
    its value there, delta, is the table's count less the product's
    coefficient.

    Returns (W, cells): a cell (m, n, count, coefficient) for each a-row m
    that differs, in a-row order, with its first n, the table's count and
    the product's coefficient there.
    """
    if isinstance(table, PackedTerm):
        n, bits = table.q_order, table.width - packed.GUARD_BITS
    else:
        n, bits = len(table[0]) - 1, max(max(map(abs, row)) for row in table).bit_length()
    own = packed.slot_width(n, (), parts)
    euler = euler_product(n // t).coeffs
    terms = sum(map(abs, euler))
    width = -(-(max(bits, own - packed.GUARD_BITS) + terms.bit_length() + 2) // 8) * 8
    groups = {}  # the shift of each nonzero coefficient's term, grouped by its value
    for g, c in enumerate(euler):
        if c:
            groups.setdefault(c, []).append(width * t * g)
    numerator = product_numerator(parts, n, width, a_order)
    numerator_bound(numerator, own, what)
    if isinstance(table, PackedTerm):
        rows = [(packed.widen(row, table.width, width, n + 1), 0) for row in table.rows]
    else:
        rows = [_packed_signs(row, width) for row in table]

    def times(row):  # row (q^t; q^t)_inf
        return sum(c * sum(row >> bits for bits in shifts) for c, shifts in groups.items())

    cells, mask = [], (1 << width) - 1
    for m, ((row, negative), wanted) in enumerate(zip(rows, numerator.rows)):
        diff = times(row) - wanted
        if negative:
            diff -= times(negative)
        if diff:
            x = diff.bit_length() // width * width  # the first differing slot's shift
            delta = (diff + (1 << x >> 1)) >> x  # its value, the slots below rounded off
            counted = (row >> x & mask) - (negative >> x & mask)
            cells.append((m, n - x // width, counted, counted - delta))
    return width, cells
