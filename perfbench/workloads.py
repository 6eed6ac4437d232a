"""The benchmark's workloads, their inputs and their correctness gates.

A workload is a list of cells.  A cell is one call into qident's public API
or its CLI; the pass times each call and checks every outcome only after
the last cell, so the gates cost nothing inside ``wall_s``.  The seed
shuffles the order of the cells that the benchmark itself orders
(``series-range`` and ``witness-list``); ``suite`` is one ``verify_all``
call whose cell order is the program's own.

The expected counts of ``witness-list`` were derived once from the DP and
product routes (``count_B_table`` for the B and C sides, and
``theorem_product(k, n).set_a(1)`` for the D side); they are fixed here and
never computed inside a pass.  The benchmark's tests derive them again.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from qident import verify

WORKLOADS = ("suite", "series-range", "witness-list")

SIZES = {
    "full": {
        "suite_k_max": 5,
        "machinery": {"ks": (2, 4), "q_order": 200, "j_max": 205,
                      "closed_product_j": 10, "enum_j": 4, "enum_n": 6},
        "corollary": {"ks": (2, 3, 4, 5), "n_max": 1000, "enum_limit": 8},
        "list_bc": {"ks": (2, 3, 4, 5), "n": 34},
        "list_d": {"ks": (2, 3, 4, 5), "n": 26},
        "coeffs_sum": {"k": 3, "i": 1, "n_max": 36},
    },
    # seconds-long inputs for the benchmark's own smoke tests
    "tiny": {
        "suite_k_max": 1,
        "machinery": {"ks": (2,), "q_order": 24, "j_max": 29,
                      "closed_product_j": 4, "enum_j": 3, "enum_n": 5},
        "corollary": {"ks": (2, 3), "n_max": 60, "enum_limit": 6},
        "list_bc": {"ks": (2, 3), "n": 10},
        "list_d": {"ks": (2, 3), "n": 8},
        "coeffs_sum": {"k": 3, "i": 1, "n_max": 10},
    },
}

# B_{i,k}(n) = C_{i,k}(n) at the list_bc n, keyed by (k, i)
EXPECTED_BC = {
    "full": {
        (2, 0): 701, (2, 1): 507,
        (3, 0): 483, (3, 1): 393, (3, 2): 346,
        (4, 0): 408, (4, 1): 354, (4, 2): 326, (4, 3): 310,
        (5, 0): 366, (5, 1): 332, (5, 2): 314, (5, 3): 305, (5, 4): 300,
    },
    "tiny": {(2, 0): 10, (2, 1): 8, (3, 0): 8, (3, 1): 7, (3, 2): 7},
}

# number of D_k-admissible overpartitions of the list_d n, keyed by k
EXPECTED_D = {
    "full": {2: 12707, 3: 8373, 4: 6773, 5: 5967},
    "tiny": {2: 57, 3: 47},
}

# C_{1,3}(n) for n = 0..coeffs_sum n_max
EXPECTED_COEFFS = {
    "full": [1, 0, 1, 1, 2, 1, 3, 2, 5, 4, 7, 6, 12, 9, 16, 15, 24, 21, 34, 31, 48,
             45, 65, 63, 93, 87, 123, 123, 168, 165, 225, 224, 300, 302, 393, 401, 523],
    "tiny": [1, 0, 1, 1, 2, 1, 3, 2, 5, 4, 7],
}


@dataclass
class Cell:
    id: str
    call: Callable[[], Any]
    # (outcome, start, seconds) -> [(cell id, start, seconds, error or None)],
    # one row per verifier cell; start is a time.perf_counter() reading
    check: Callable[[Any, float, float], list]


@dataclass
class Expectation:
    identity: str
    params: dict
    range: dict
    subranges: list  # [(sub identity, sub range)]


def machinery_expectation(k, q_order, j_max, closed_product_j, enum_j, enum_n) -> Expectation:
    return Expectation("machinery", {"k": k}, {"q_order": q_order, "j_max": j_max}, [
        ("machinery/functional-equation", {"j_max": j_max}),
        ("machinery/closed-product", {"j_max": min(closed_product_j, j_max)}),
        ("machinery/appell-limit", {"q_order": q_order}),
        ("machinery/bounded-enumeration", {"j_max": min(enum_j, j_max), "n_max": min(enum_n, q_order)}),
    ])


def corollary_expectation(k, i, n_max, enum_limit) -> Expectation:
    return Expectation("corollary", {"k": k, "i": i},
                       {"n_max": n_max, "enum_limit": min(n_max, enum_limit)}, [])


def suite_expectations(k_max: int) -> list:
    """The cells verify_all(k_max) documents, in its order."""
    out = [
        Expectation("golden-n10", {"k": 2, "i": 0, "n": 10}, {"n": 10}, []),
        Expectation("schur", {}, {"n_max": 40}, []),
    ]
    for k in range(2, k_max + 1):
        out.append(Expectation("overpartition", {"k": k}, {"n_max": 22, "m_max": 8}, []))
        out += [corollary_expectation(k, i, 200, 25) for i in range(k)]
        out.append(machinery_expectation(k, 60, 65, 10, 10, 18))
    return out


def report_error(report, want: Expectation) -> str | None:
    """Why a verifier report does not pass what was requested, or None."""
    problems = []
    if report.identity != want.identity:
        problems.append(f"identity {report.identity!r}")
    if not report.passed:
        problems.append(f"status {report.status}")
    if report.params != want.params:
        problems.append(f"params {report.params}")
    if report.range != want.range:
        problems.append(f"range {report.range}")
    subranges = [(s.identity, s.range) for s in report.subreports]
    if subranges != want.subranges:
        problems.append(f"subreport ranges {subranges}")
    return "; ".join(problems) or None


def _label(want: Expectation) -> str:
    return want.identity + "".join(f" {k}={v}" for k, v in want.params.items())


def _suite(size: str, seed: int, tracer) -> list:
    k_max = SIZES[size]["suite_k_max"]
    wants = suite_expectations(k_max)

    def check(reports, start, seconds):
        # verify_all runs its cells back to back, so each starts where the last ended
        rows = []
        for n, want in enumerate(wants):
            if n < len(reports):
                rows.append((_label(want), start, reports[n].timing, report_error(reports[n], want)))
                start += reports[n].timing
            else:
                rows.append((_label(want), start, 0.0, "missing from verify_all"))
        for extra in reports[len(wants):]:
            rows.append((extra.identity, start, extra.timing, "not requested"))
        return rows

    return [Cell(f"verify_all(k_max={k_max})", lambda: verify.verify_all(k_max), check)]


def _report_cell(want: Expectation, call) -> Cell:
    label = _label(want)
    return Cell(label, call,
                lambda report, start, seconds: [(label, start, seconds, report_error(report, want))])


def _series_range(size: str, seed: int, tracer) -> list:
    mach = SIZES[size]["machinery"]
    cor = SIZES[size]["corollary"]
    args = {key: mach[key] for key in ("q_order", "j_max", "closed_product_j", "enum_j", "enum_n")}
    cells = [
        _report_cell(machinery_expectation(k, **args),
                     lambda k=k: verify.verify_machinery(k, **args))
        for k in mach["ks"]
    ]
    cells += [
        _report_cell(corollary_expectation(k, i, cor["n_max"], cor["enum_limit"]),
                     lambda k=k, i=i: verify.verify_corollary(k, i, cor["n_max"], cor["enum_limit"]))
        for k in cor["ks"]
        for i in range(k)
    ]
    random.Random(seed).shuffle(cells)
    return cells


def _cli_cell(invoke, argv: list, expect) -> Cell:
    """One `qident --format json ...` invocation; expect(parsed output) -> error or None."""
    from qident import cli

    label = " ".join(argv)

    def check(result, start, seconds):
        if result.exception is not None or result.exit_code != 0:
            return [(label, start, seconds, f"exit {result.exit_code}: {result.exception!r}")]
        try:
            parsed = json.loads(result.stdout)
        except ValueError as exc:
            return [(label, start, seconds, f"output is not JSON: {exc}")]
        return [(label, start, seconds, expect(parsed))]

    return Cell(label, lambda: invoke(cli.main, ["--format", "json", *argv]), check)


def _length_is(n: int):
    def expect(items):
        if len(items) != n or len(set(items)) != n:
            return f"{len(items)} items ({len(set(items))} distinct), expected {n}"
        return None

    return expect


def _coefficients_are(values: list):
    def expect(rows):
        got = [(row["n"], row["coefficient"]) for row in rows]
        if got != list(enumerate(values)):
            return f"coefficients {got}, expected {values}"
        return None

    return expect


def _witness_list(size: str, seed: int, tracer) -> list:
    from click.testing import CliRunner

    spec = SIZES[size]
    invoke = CliRunner().invoke
    if tracer is not None:
        invoke = tracer.cli_span(invoke)
    n_bc, n_d, co = spec["list_bc"]["n"], spec["list_d"]["n"], spec["coeffs_sum"]
    cells = [
        _cli_cell(invoke, ["list", "--side", side, "--k", str(k), "--i", str(i), "--n", str(n_bc)],
                  _length_is(EXPECTED_BC[size][(k, i)]))
        for k in spec["list_bc"]["ks"]
        for i in range(k)
        for side in ("B", "C")
    ]
    cells += [
        _cli_cell(invoke, ["list", "--side", "D", "--k", str(k), "--n", str(n_d)],
                  _length_is(EXPECTED_D[size][k]))
        for k in spec["list_d"]["ks"]
    ]
    cells.append(
        _cli_cell(invoke, ["coeffs", "--side", "sum", "--k", str(co["k"]), "--i", str(co["i"]),
                           "--n-max", str(co["n_max"])],
                  _coefficients_are(EXPECTED_COEFFS[size]))
    )
    random.Random(seed).shuffle(cells)
    return cells


CELLS_OF = {"suite": _suite, "series-range": _series_range, "witness-list": _witness_list}


def build(workload: str, size: str, seed: int, tracer=None) -> list:
    """The cells of one pass; tracer, when given, opens the CLI spans."""
    return CELLS_OF[workload](size, seed, tracer)


def run_pass(cells: list, tracer=None) -> tuple:
    """Time every cell, then gate every outcome.

    Returns (wall seconds, [(verifier cell id, start, seconds, error or None)]),
    where start is a time.perf_counter() reading.
    A cell that raises is one failed verifier cell.
    """
    outcomes = []
    start = time.perf_counter()
    for cell in cells:
        if tracer is not None:
            tracer.cell = cell.id
        t0 = time.perf_counter()
        try:
            outcome, error = cell.call(), None
        except Exception as exc:  # a raising cell is reported as failed, and the pass goes on
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((cell, outcome, error, t0, time.perf_counter() - t0))
    wall = time.perf_counter() - start
    rows = []
    for cell, outcome, error, t0, seconds in outcomes:
        rows += [(cell.id, t0, seconds, error)] if error else cell.check(outcome, t0, seconds)
    return wall, rows
