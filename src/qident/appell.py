"""The generating-function machinery behind the overpartition identity.

This module builds, as executable objects, the sequence R_j(a, q) of
bounded-part generating functions via its recursion

    R_j = R_{j-1} / (1 - q^j)  +  a q^{j-k+1} R_{j-k} / (1 - q^j),

checks the termwise content of the functional equation
(1 - x) F = (1 + a x^k q) F(x -> xq) for F = sum_j R_j x^j, expands the
closed product solution for F, and takes the formal coefficientwise limit
R_infty, which must reproduce the infinite product
(-aq; q^k)_inf / (q; q)_inf.  It also expands the corollary family's
product (-q^{2i+1}; q^{2k})_inf / (q^2; q^2)_inf: its finite numerator
(product_numerator) in the slots its own coefficients need, widened to
the product's, then both parity classes divided by Euler's product at
once, so that route shares no algorithm with the B-side knapsack.  Each
expanded product runs the pentagonal recurrence (series._divide) once:
theorem_product on the one plain row 1/(q; q)_inf, the corollary's
product on its packed numerator read back in two-slot columns.  Those
expansions are the coeffs output and the frozen tables' oracles.  The
verifiers check each product side the other way round, with euler_check:
the counted table times Euler's product, a few dozen shifts of one packed
integer an a-row, against the numerator prod (1 + a q^e), packed, so no
coefficient of the product is formed.  The R_j stream and the closed
product are packed too, in one width.

The recursion is a stream: r_terms yields R_0, R_1, ... and keeps only the
last k terms, and build_R keeps every term it yields.  The functional
equation and the limit are checked one j at a time (functional_equation_step
reads R_j, R_{j-1}, R_{j-k}; limit_step reads R_j, R_{j-1}), so a caller
can check them as the terms arrive; check_functional_equation and
appell_limit run the same steps over an RSequence's terms as they are.

The stream's terms are packed (packed.PackedTerm, as the D_k sweep's
states are), in the width of the D_k counts' bound, the module below's
overpartition_parts: a-row m of R_j is one integer of unsigned counts,
q^0 on top, so a row add is one integer add and a shift by q^s a bare
right shift.  unpack turns a term into a BivariateSeries, as appell_limit
returns its limit and as the machinery's stages read a differing term.

Euler's two identities give R_j in closed form: its a^d row is
q^{d + k d(d-1)/2} / ((q^k; q^k)_d (q; q)_{j-kd}).  The closed product
counts each row from that form on packed rows in the stream's width, so a
caller compares its terms with R_j as integers; it runs its own divisions
and shares no arithmetic with r_terms.  The limit checks the bound the
closed form implies: the coefficient of q^e is fixed once j >= e + k - 1.
Checked between neighbours, that is R_j = R_{j-1} below q^{j-k+1}; the
windows grow with j, so the agreements chain forward to R_{j_max}.
pj_series sums P_j on the stream's last k terms.

theorem_product skips what must be zero: by Euler's expansion of
(-aq; q^k)_inf, row m is zero below the least weight of m overlined parts,
least_weight(k, m) = m + k m(m-1)/2, so each row's adds start there; the
frozen tables catch a start one too late.  The packed rows need no such
start: a row's zero slots below its least weight are its leading zeros.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, takewhile
from operator import add

from . import packed
from .overpartitions import overpartition_parts
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
    theorem's product is zero below least_weight(k, m).
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
    the stream's PackedTerm."""

    k: int
    q_order: int
    a_order: int
    terms: list

    @property
    def j_max(self) -> int:
        return len(self.terms) - 1


def r_terms(k: int, j_max: int, q_order: int) -> Iterator:
    """Yield R_0..R_{j_max} from the recursion as PackedTerms, R_0 = 1 (with
    R_j = 0 for -k < j < 0), with a-rows 0..max_overline_count(k, q_order):
    every row above is zero below the truncation.

    Each term starts from R_{j-1}'s rows; row m gains row m - 1 of R_{j-k}
    shifted by q^{j-k+1}, then is divided by (1 - q^j) in doubling steps
    P += q^s P, s = j, 2j, 4j, ... while s <= q_order, the partial products
    of 1/(1 - q^j) = (1 + q^j)(1 + q^{2j})(1 + q^{4j})...  Each shift drops
    the slots past q^{q_order}.

    Every value formed while building R_j is at most the matching
    coefficient of R_j, a count of D_k objects of weight <= q_order (the add
    step forms (1 - q^j) R_j, each doubling step a partial sum of R_j's
    series), so under packed.slot_width's bound for
    overpartition_parts(q_order) no slot reaches its guard bits.  They are
    read once per term, after the doubling steps, as in _packed_knapsack; a
    slot holding one raises SlotOverflowError naming j and the lowest a-row
    holding one.  Given up, as there: were the width wrong by GUARD_BITS
    bits or more, a carry could clear a guard bit before the read, though a
    stream so corrupted would still have to agree with routes sharing none
    of its arithmetic for any stage to pass.  Only the
    last k terms are kept; the parameters are checked at the call, before
    the first term.
    """
    check_params(k, j_max=j_max, q_order=q_order)
    return _r_terms(k, j_max, q_order)


def _r_terms(k: int, j_max: int, q_order: int) -> Iterator:
    a_order = max_overline_count(k, q_order)
    width = packed.slot_width(q_order, *overpartition_parts(q_order))
    guard = packed.guard_mask(width, q_order + 1)

    one = PackedTerm((1 << width * q_order,) + (0,) * a_order, width, q_order)
    window = deque([one], maxlen=k)  # R_{j-k}..R_{j-1}
    yield window[0]
    for j in range(1, j_max + 1):
        rows = list(window[-1].rows)
        s = j - k + 1
        if j >= k and s <= q_order:
            # row m gains row m - 1 shifted by q^s; the slots past q^{q_order} fall off
            bits = width * s
            for m, low in enumerate(window[0].rows[:a_order], 1):
                if low:
                    rows[m] += low >> bits
        # the doubling steps' shifts: q^s for s = j, 2j, 4j, ... <= q_order
        steps = [width * j << t for t in range((q_order // j).bit_length())]
        for m, row in enumerate(rows):
            if row:
                for bits in steps:
                    row += row >> bits
                rows[m] = row
        for m, row in enumerate(rows):
            if row & guard:
                raise packed.SlotOverflowError(
                    f"slot overflow: the a^{m} row of R_{j} reached the guard bits of its"
                    f" {width}-bit slots at q_order={q_order}")
        window.append(PackedTerm(tuple(rows), width, q_order))
        yield window[-1]


def build_R(k: int, j_max: int, q_order: int) -> RSequence:
    """R_0..R_{j_max} from r_terms, all kept as they are yielded."""
    return RSequence(k, q_order, max_overline_count(k, q_order), list(r_terms(k, j_max, q_order)))


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
    prod_{t>=0} (1 + a x^k q^{tk+1}) / (1 - x q^t) as PackedTerms, in the R_j
    stream's width: slot_width for overpartition_parts(q_order).

    Euler's two identities expand the product: the a^d row of the x^j
    coefficient is q^{d + k d(d-1)/2} / ((q^k; q^k)_d (q; q)_{j-kd}), zero
    when kd > j, for d <= max_overline_count(k, q_order).  Row d starts at
    j = kd as q^{least_weight(k, d)} divided by (1 - q^{kt}), t = 1..d, and
    each later j divides it by (1 - q^{j-kd}), since row(j, d) =
    row(j-1, d) / (1 - q^{j-kd}).  Each division runs doubling steps
    row += q^s row, s = p, 2p, 4p, ... <= q_order, written here and run by
    no other route, so the only code it shares with the stream it must
    equal is the packed format and the a-order bound.

    Every value formed is at most the matching coefficient of the x^j term,
    which is R_j's, so the stream's width bounds it.  The guard bits are
    read once per j, after its divisions; a slot holding one raises
    SlotOverflowError naming j and the width.  Given up, as in r_terms: a
    carry could clear a guard bit before the read were the width wrong by
    GUARD_BITS bits or more.  The parameters are checked at the call,
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
    """The product side (-aq; q^k)_inf / (q; q)_inf of the overpartition identity.

    Row 0 starts as 1/(q; q)_inf, 1 divided by Euler's product by the
    pentagonal recurrence (_divide), the one division, so 1/(q; q)_inf
    is never convolved.  The numerator prod (1 + a q^e), e = 1, 1 + k, ...,
    then multiplies into the a-rows in place, largest e first.  With lo
    the last e taken, row m - 1 is zero below least_weight(k, m - 1, lo),
    so a factor adds row m - 1, shifted by e, to row m only from there.
    Rows are updated from the top a-degree down, so each reads its
    neighbour before the factor."""
    check_params(k, q_order=q_order, a_order=a_order)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    n1 = q_order + 1
    rows = [_divide([1] + [0] * q_order, euler_product(q_order).coeffs)]
    rows += [[0] * n1 for _ in range(a_order)]
    lo = n1
    for e in reversed(range(1, n1, k)):
        for m in range(a_order, 0, -1):
            s = least_weight(k, m - 1, lo)
            if e + s < n1:
                rows[m][e + s :] = map(add, rows[m][e + s :], rows[m - 1][s : n1 - e])
        lo = e
    return BivariateSeries(tuple(map(tuple, rows)))


def pj_series(k: int, terms, j: int) -> PackedTerm:
    """P_j built independently as a sum over the largest overline position,
    from the stream's terms: terms[-1] is R_j and terms[-1 - t] is R_{j-t}.

    An admissible configuration with parts <= j either has no overline above
    j-k+1 (counted by R_j), or its largest overline b lies in
    {j-k+2, ..., j}; removing that overline forbids plain parts in [b, j]
    and overlines above b-k, leaving exactly the configurations of R_{b-1}.
    Hence P_j = R_j + sum_b a q^b R_{b-1}, which reads only the last k
    terms: row m is R_j's row m plus row m - 1 of each R_{b-1} shifted right
    by q^b, dropping the slots past q^{q_order}.  P_j counts D_k objects, so
    its slots stay under the stream's bound.
    """
    term = terms[-1]
    rows = list(term.rows)
    for b in range(max(1, j - k + 2), j + 1):
        bits = term.width * b
        for m, low in enumerate(terms[b - j - 2].rows[:-1], 1):  # R_{b-1}
            rows[m] += low >> bits
    return PackedTerm(tuple(rows), term.width, term.q_order)


def congruence_product_series(k: int, i: int, q_order: int) -> QSeries:
    """The product (-q^{2i+1}; q^{2k})_inf / (q^2; q^2)_inf of the corollary family.

    Expanded from the product itself, sharing no algorithm with the allowed
    parts that count_B_table's knapsack sums over, so the two are
    independent routes to B_{i,k}: the coeffs output and the frozen
    tables' oracle, which no verifier runs (euler_check multiplies instead).
    The finite numerator prod (1 + q^e) is product_numerator's one row at
    a = 1.  It runs in its own slots, packed.slot_width's bound on
    prod (1 + q^e) alone, or w if that is no narrower; w is the bound on
    the product's own coefficients, which bound the numerator's too.
    Narrower, its guard bits are read once (numerator_bound), a trip
    raising SlotOverflowError naming the numerator's width, and each slot
    is widened to w (packed.widen).

    Read at width 2w, after a zero slot when q_order is even, each chunk is
    the column (q^{2d}, q^{2d+1}), so both parity classes are divided by
    Euler's product (q; q)_inf, which is 1/(q^2; q^2)_inf on the exponents
    of one parity, in one call of _divide.  The recurrence is linear
    over the integers, so the quotient columns are exact and only the
    product's coefficients need to fit their slots.  Each column is read
    back with its low slot signed, so a wrong division still reaches the
    comparison, and a coefficient at or above 2^{w - GUARD_BITS} raises
    SlotOverflowError naming the width.  Given up, as in r_terms: were the
    width wrong by two bits or more, a low slot could pass 2^{w-1} and read
    negative, and then fail the comparison rather than abort.
    """
    check_params(k, i, q_order=q_order)
    n = q_order
    odd = range(2 * i + 1, n + 1, 2 * k)
    w = packed.slot_width(n, range(2, n + 1, 2), odd)
    own = min(packed.slot_width(n, (), odd), w)
    numerator = product_numerator(odd, n, own)
    (row,) = numerator.rows
    if own < w:
        numerator_bound(numerator, own, f"the B_{{{i},{k}}} product's numerator")
        row = packed.widen(row, own, w, n + 1)
    cols = n // 2 + 1
    row <<= w * (2 * cols - 1 - n)
    quotient = _divide(packed.read_slots(row, 2 * w, cols), euler_product(n // 2).coeffs)
    low, sign = (1 << w) - 1, 1 << (w - 1)
    coeffs = []
    for col in quotient:
        lo = col & low
        lo -= (lo & sign) << 1
        coeffs += ((col - lo) >> w, lo)
    del coeffs[n + 1 :]
    top = 1 << (w - packed.GUARD_BITS)
    if max(coeffs) >= top:
        e = next(e for e, c in enumerate(coeffs) if c >= top)
        raise packed.SlotOverflowError(
            f"slot overflow: the B_{{{i},{k}}} product's q^{e} coefficient reached the guard"
            f" bits of its {w}-bit slots at q_order={n}")
    return QSeries(tuple(coeffs))


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
    and the own width.  Given up, as in r_terms: a carry could clear the
    bits read before the read were the bound wrong by as many bits as are
    read, GUARD_BITS in own-bit slots and more in wider ones."""
    width, slots = numerator.width, numerator.q_order + 1
    high = packed.guard_mask(width, slots, width - own + packed.GUARD_BITS)
    if any(row & high or row >> width * slots for row in numerator.rows):
        raise packed.SlotOverflowError(
            f"slot overflow: {what} reached the guard bits of its {own}-bit slots"
            f" at q_order={numerator.q_order}")


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
