"""Top-level identity verifiers and their report format.

Each verifier computes both sides of an identity by two independent routes
(combinatorial enumeration vs. truncated series arithmetic) and reports
agreement or the first discrepancy.  Reports are deterministic apart from
the timing field, and a report never claims a pass for a range it did not
fully check: enumeration ranges that are refused come back with status
"aborted", never a silent pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import appell, overpartitions, partitions

SCHEMA_VERSION = 1

# Enumeration beyond this weight is refused rather than attempted.
ENUM_HARD_LIMIT = 45

WITNESS_CAP = 50


@dataclass
class VerificationReport:
    identity: str
    params: dict
    range: dict
    status: str  # "pass" | "fail" | "aborted"
    witness: dict | None = None
    timing: float = 0.0
    notes: list = field(default_factory=list)
    subreports: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass" and all(r.passed for r in self.subreports)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "identity": self.identity,
            "params": self.params,
            "range": self.range,
            "status": self.status,
            "witness": self.witness,
            "timing": self.timing,
            "notes": list(self.notes),
            "subreports": [r.to_dict() for r in self.subreports],
        }

    def render_text(self, indent: str = "") -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        rng = " ".join(f"{k}={v}" for k, v in self.range.items())
        lines = [
            f"{indent}{self.identity}"
            + (f" [{params}]" if params else "")
            + (f" ({rng})" if rng else "")
            + f": {self.status.upper()}  ({self.timing:.2f}s)"
        ]
        for note in self.notes:
            lines.append(f"{indent}  note: {note}")
        if self.witness is not None:
            for k, v in self.witness.items():
                lines.append(f"{indent}  witness {k}: {v}")
        for sub in self.subreports:
            lines.append(sub.render_text(indent + "  "))
        return "\n".join(lines)


def _cap(items: list) -> list:
    out = [str(x) for x in items[:WITNESS_CAP]]
    if len(items) > WITNESS_CAP:
        out.append(f"... ({len(items) - WITNESS_CAP} more truncated)")
    return out


def _timed(report: VerificationReport, start: float) -> VerificationReport:
    report.timing = time.perf_counter() - start
    return report


def _aborted(identity: str, params: dict, rng: dict, note: str, start: float) -> VerificationReport:
    return _timed(VerificationReport(identity, params, rng, "aborted", notes=[note]), start)


def _bad_input(k: int | None = None, i: int | None = None, **ranges: int) -> str | None:
    """Name the first bad parameter (k < 2, i outside [0, k-1], a negative
    order or range), or None when every one is valid."""
    if k is not None and k < 2:
        return "k must be at least 2"
    if i is not None and not 0 <= i < k:
        return f"i must lie in [0, {k - 1}]"
    for name, value in ranges.items():
        if value < 0:
            return f"{name} must be non-negative"
    return None


_REFUSED = f"enumeration refused beyond n={ENUM_HARD_LIMIT}"


# ---------------------------------------------------------------------------
# Theorem 1.4-style overpartition identity
# ---------------------------------------------------------------------------


def verify_overpartition(k: int, n_max: int, m_max: int | None = None) -> VerificationReport:
    """Brute-force D_k(m, n) vs. the coefficient of a^m q^n in the product."""
    start = time.perf_counter()
    if m_max is None:
        m_max = min(n_max, 8)
    params = {"k": k}
    rng = {"n_max": n_max, "m_max": m_max}
    bad = _bad_input(k, n_max=n_max, m_max=m_max)
    if bad:
        return _aborted("overpartition", params, rng, bad, start)
    if n_max > ENUM_HARD_LIMIT:
        return _aborted("overpartition", params, rng, _REFUSED, start)
    product = appell.theorem_product(k, n_max, max(m_max, appell.max_overline_count(k, n_max)))
    table = overpartitions.count_Dk_table(n_max, k, m_max)
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            lhs = table[m][n]
            rhs = product.coefficient(m, n)
            if lhs != rhs:
                witness = {
                    "n": n,
                    "m": m,
                    "enumeration_count": lhs,
                    "product_coefficient": rhs,
                    "overpartitions": _cap(overpartitions.d_witnesses(m, n, k)),
                }
                return _timed(
                    VerificationReport("overpartition", params, rng, "fail", witness),
                    start,
                )
    return _timed(VerificationReport("overpartition", params, rng, "pass"), start)


# ---------------------------------------------------------------------------
# The corollary family (Andrews family at i=k-1, its dual at i=0)
# ---------------------------------------------------------------------------


def verify_corollary(
    k: int, i: int, n_max: int = 200, enum_limit: int = 25
) -> VerificationReport:
    """Three-way check B = C = product coefficient up to enum_limit, then
    two-way DP-vs-product up to n_max."""
    start = time.perf_counter()
    params = {"k": k, "i": i}
    enum_top = min(n_max, enum_limit)
    rng = {"n_max": n_max, "enum_limit": enum_top}
    bad = _bad_input(k, i, n_max=n_max, enum_limit=enum_limit)
    if bad:
        return _aborted("corollary", params, rng, bad, start)
    if enum_top > ENUM_HARD_LIMIT:
        return _aborted("corollary", params, rng, _REFUSED, start)
    b_table = partitions.count_B_table(n_max, k, i)
    series = appell.congruence_product_series(k, i, n_max)
    notes = []
    alt_phrasing = "thm12" if i == k - 1 else ("thm13" if i == 0 else None)
    c_table = partitions.count_C_table(enum_top, k, i, "corollary")
    alt_table = (
        partitions.count_C_table(enum_top, k, i, alt_phrasing) if alt_phrasing is not None else None
    )
    for n in range(n_max + 1):
        lhs = b_table[n]
        rhs = series.coefficient(n)
        if lhs != rhs:
            return _timed(
                VerificationReport(
                    "corollary", params, rng, "fail",
                    {"n": n, "count_B": lhs, "product_coefficient": rhs},
                ),
                start,
            )
        if n <= enum_top:
            count_c = c_table[n]
            if count_c != lhs:
                witness = {
                    "n": n,
                    "count_B": lhs,
                    "count_C": count_c,
                    "B_partitions": _cap(
                        [partitions.format_partition(p) for p in partitions.b_witnesses(n, k, i)]
                    ),
                    "C_partitions": _cap(
                        [partitions.format_partition(p) for p in partitions.c_witnesses(n, k, i)]
                    ),
                }
                return _timed(
                    VerificationReport("corollary", params, rng, "fail", witness),
                    start,
                )
            if alt_table is not None and alt_table[n] != count_c:
                return _timed(
                    VerificationReport(
                        "corollary", params, rng, "fail",
                        {
                            "n": n,
                            "count_C_corollary": count_c,
                            f"count_C_{alt_phrasing}": alt_table[n],
                        },
                        notes=[f"phrasing {alt_phrasing} diverged from corollary phrasing"],
                    ),
                    start,
                )
    if alt_phrasing is not None:
        notes.append(
            f"theorem phrasing '{alt_phrasing}' agreed with the corollary phrasing for n <= {enum_top}"
        )
    notes.append(f"three-way check for n <= {enum_top}; DP-vs-series for n <= {n_max}")
    return _timed(VerificationReport("corollary", params, rng, "pass", notes=notes), start)


def verify_andrews(k: int, n_max: int = 200, enum_limit: int = 25) -> VerificationReport:
    report = verify_corollary(k, k - 1, n_max, enum_limit)
    report.identity = "andrews"
    return report


def verify_dual(k: int, n_max: int = 200, enum_limit: int = 25) -> VerificationReport:
    report = verify_corollary(k, 0, n_max, enum_limit)
    report.identity = "dual"
    return report


# ---------------------------------------------------------------------------
# Schur
# ---------------------------------------------------------------------------


def verify_schur(n_max: int = 40) -> VerificationReport:
    start = time.perf_counter()
    rng = {"n_max": n_max}
    bad = _bad_input(n_max=n_max)
    if bad:
        return _aborted("schur", {}, rng, bad, start)
    if n_max > ENUM_HARD_LIMIT:
        return _aborted("schur", {}, rng, _REFUSED, start)
    product = partitions.count_schur_product_table(n_max)
    gap = partitions.count_schur_gap_table(n_max)
    for n in range(n_max + 1):
        if gap[n] != product[n]:
            witness = {
                "n": n,
                "product_count": product[n],
                "gap_count": gap[n],
                "gap_partitions": _cap(
                    [partitions.format_partition(p) for p in partitions.schur_gap_witnesses(n)]
                ),
            }
            return _timed(VerificationReport("schur", {}, rng, "fail", witness), start)
    return _timed(VerificationReport("schur", {}, rng, "pass"), start)


# ---------------------------------------------------------------------------
# Proof machinery
# ---------------------------------------------------------------------------


def verify_machinery(
    k: int,
    q_order: int = 60,
    j_max: int | None = None,
    closed_product_j: int = 10,
    enum_j: int = 10,
    enum_n: int = 18,
) -> VerificationReport:
    """Bundle the recursion-level checks into one report with sub-reports."""
    start = time.perf_counter()
    if j_max is None:
        # the coefficient of q^d settles by j = d + k - 1 (Appell limit bound)
        j_max = q_order + k
    params = {"k": k}
    rng = {"q_order": q_order, "j_max": j_max}
    bad = _bad_input(
        k, q_order=q_order, j_max=j_max, closed_product_j=closed_product_j,
        enum_j=enum_j, enum_n=enum_n,
    )
    if bad:
        return _aborted("machinery", params, rng, bad, start)
    subs = []
    rs = appell.build_R(k, j_max, q_order)

    t0 = time.perf_counter()
    feq = appell.check_functional_equation(rs)
    subs.append(
        VerificationReport(
            "machinery/functional-equation", params, {"j_max": j_max},
            "pass" if feq.ok else "fail",
            None if feq.ok else {"j": feq.witness[0], "a_degree": feq.witness[1], "q_degree": feq.witness[2]},
            timing=time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    status, witness = "pass", None
    xc = appell.closed_product_F_coefficients(k, min(closed_product_j, j_max), q_order, rs.a_order)
    for j, coeff in enumerate(xc):
        if coeff != rs.terms[j]:
            status, witness = "fail", {"j": j}
            break
    subs.append(
        VerificationReport(
            "machinery/closed-product", params, {"j_max": min(closed_product_j, j_max)},
            status, witness, timing=time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    try:
        lim = appell.appell_limit(rs)
        product = appell.theorem_product(k, q_order, rs.a_order)
        status, witness, notes = "pass", None, []
        diff = lim.limit.first_difference(product)
        if diff is not None:
            m, n = diff
            status = "fail"
            witness = {
                "a_degree": m,
                "q_degree": n,
                "limit": lim.limit.coeffs[m][n],
                "product": product.coeffs[m][n],
            }
        else:
            worst = max((lim.stabilization_index[d] - d for d in lim.stabilization_index), default=0)
            notes = [f"stabilization index <= d + {worst} (bound d + {k - 1} expected)"]
        subs.append(
            VerificationReport(
                "machinery/appell-limit", params, {"q_order": q_order}, status, witness,
                timing=time.perf_counter() - t0, notes=notes,
            )
        )
    except appell.StabilizationError as exc:
        subs.append(
            VerificationReport(
                "machinery/appell-limit", params, {"q_order": q_order}, "aborted",
                notes=[f"aborted: {exc}"], timing=time.perf_counter() - t0,
            )
        )

    m_top = min(appell.max_overline_count(k, enum_n), rs.a_order)
    subs.append(
        _bounded_enumeration(rs, k, params, min(enum_j, j_max), min(enum_n, q_order), m_top)
    )

    overall = "pass" if all(s.status == "pass" for s in subs) else (
        "aborted" if any(s.status == "aborted" for s in subs) else "fail"
    )
    return _timed(VerificationReport("machinery", params, rng, overall, subreports=subs), start)


def _bounded_enumeration(
    rs: appell.RSequence, k: int, params: dict, j_top: int, n_top: int, m_top: int
) -> VerificationReport:
    """Direct counts r_j(m, n), p_j(m, n) against the coefficients of R_j,
    P_j for j <= j_top, n <= n_top, m <= m_top; the first mismatch, R before
    P, is the witness."""
    t0 = time.perf_counter()
    name = "machinery/bounded-enumeration"
    rng = {"j_max": j_top, "n_max": n_top}
    if n_top > ENUM_HARD_LIMIT:
        return _aborted(name, params, rng, _REFUSED, t0)
    # one walk fills the counts for every (n, j, m) at once
    r_table, p_table = overpartitions.count_bounded(n_top, j_top, k, m_top)
    for j in range(j_top + 1):
        pj = appell.pj_series(rs, j)
        for n in range(n_top + 1):
            for m in range(m_top + 1):
                for series, counts, coeff in (("R", r_table, rs.terms[j]), ("P", p_table, pj)):
                    enum, want = counts[n][j][m], coeff.coefficient(m, n)
                    if enum != want:
                        witness = {"series": series, "j": j, "m": m, "n": n,
                                   "enumeration": enum, "coefficient": want}
                        return _timed(VerificationReport(name, params, rng, "fail", witness), t0)
    return _timed(VerificationReport(name, params, rng, "pass"), t0)


# ---------------------------------------------------------------------------
# The worked example at n = 10
# ---------------------------------------------------------------------------

GOLDEN_PRODUCT_SIDE_10 = frozenset(
    [
        (9, 1),
        (8, 1, 1),
        (6, 4),
        (6, 1, 1, 1, 1),
        (5, 5),
        (5, 4, 1),
        (5, 1, 1, 1, 1, 1),
        (4, 4, 1, 1),
        (4, 1, 1, 1, 1, 1, 1),
        (1,) * 10,
    ]
)

GOLDEN_SUM_SIDE_10 = frozenset(
    [
        (10,),
        (9, 1),
        (8, 2),
        (7, 3),
        (6, 4),
        (6, 2, 2),
        (5, 4, 1),
        (4, 4, 2),
        (4, 2, 2, 2),
        (2, 2, 2, 2, 2),
    ]
)


def golden_example_n10() -> VerificationReport:
    """Reproduce the worked (k, i) = (2, 0), n = 10 example exactly."""
    start = time.perf_counter()
    params = {"k": 2, "i": 0, "n": 10}
    notes = [
        "the source's sum-side label reads C_{0,1}; treated as a typo for C_{0,2}",
    ]
    product_side = set(partitions.b_witnesses(10, 2, 0))
    sum_side = set(partitions.c_witnesses(10, 2, 0, "thm13"))
    sum_side_corollary = set(partitions.c_witnesses(10, 2, 0, "corollary"))
    image = set()
    for w in range(1, 11):
        for o in overpartitions.admissible_overpartitions(w, 2):
            parts = overpartitions.specialize_overpartition(o, 0, 2)
            if sum(parts) == 10:
                image.add(parts)
    problems = {}
    if product_side != GOLDEN_PRODUCT_SIDE_10:
        problems["product_side_only"] = _cap(sorted(product_side - GOLDEN_PRODUCT_SIDE_10))
        problems["product_expected_only"] = _cap(sorted(GOLDEN_PRODUCT_SIDE_10 - product_side))
    if sum_side != GOLDEN_SUM_SIDE_10:
        problems["sum_side_only"] = _cap(sorted(sum_side - GOLDEN_SUM_SIDE_10))
        problems["sum_expected_only"] = _cap(sorted(GOLDEN_SUM_SIDE_10 - sum_side))
    if sum_side_corollary != sum_side:
        problems["corollary_vs_thm13"] = "phrasings disagree at n=10"
    if image != sum_side:
        problems["specialization_image"] = _cap(sorted(image ^ sum_side))
    if len(product_side) != 10 or len(sum_side) != 10:
        problems["counts"] = {"B": len(product_side), "C": len(sum_side)}
    status = "pass" if not problems else "fail"
    return _timed(
        VerificationReport(
            "golden-n10", params, {"n": 10}, status, problems or None, notes=notes
        ),
        start,
    )


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------


def _job(spec: tuple) -> VerificationReport:
    name, args = spec
    fn = {
        "schur": verify_schur,
        "overpartition": verify_overpartition,
        "corollary": verify_corollary,
        "machinery": verify_machinery,
        "golden": golden_example_n10,
    }[name]
    return fn(*args)


def verify_all(k_max: int = 5, jobs: int = 1) -> list:
    """The default desk-scale suite over every identity and parameter cell.

    The k-indexed cells (overpartition, corollary, machinery) run for
    2 <= k <= k_max, so k_max < 2 runs only golden-n10 and schur.
    """
    specs: list[tuple[str, tuple]] = [("golden", ()), ("schur", (40,))]
    for k in range(2, k_max + 1):
        specs.append(("overpartition", (k, 22)))
        for i in range(k):
            specs.append(("corollary", (k, i, 200, 25)))
        specs.append(("machinery", (k, 60, 65)))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_job, specs))
    return [_job(s) for s in specs]
