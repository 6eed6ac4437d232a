"""Frozen count tables: every table on a fixed grid, as the sha256 of its
canonical JSON, against the digests in frozen_tables.json.

Each table was checked route against route when the file was written, so a
change to one is a change to a verified count, even when both routes of a
comparison moved in step.  No change to the program should need to change
the file; one that does says why.  D_k's a^0 row is also tied to a source
outside the code: it is p(n), from Euler's pentagonal recurrence below.

A second grid at n = 1000, frozen_tables_1000.json, is too slow for every
test run; CI recomputes it with ``python tests/test_frozen_tables.py``.
"""

import hashlib
import json
from pathlib import Path

from qident import appell, overpartitions, packed, partitions

DIGESTS = Path(__file__).with_name("frozen_tables.json")
LARGE_DIGESTS = Path(__file__).with_name("frozen_tables_1000.json")
KS = range(2, 9)


def grid():
    """(name, zero-argument call) for each frozen table."""
    for k in KS:
        yield f"count_Dk_table(200, {k})", lambda k=k: overpartitions.count_Dk_table(200, k)
    for k in KS:
        for i in range(k):
            yield f"count_C_table(200, {k}, {i})", lambda k=k, i=i: partitions.count_C_table(200, k, i)
            yield f"count_B_table(200, {k}, {i})", lambda k=k, i=i: partitions.count_B_table(200, k, i)
            yield f"walk_C_table(100, {k}, {i})", lambda k=k, i=i: partitions.walk_C_table(100, k, i)
    yield "count_schur_product_table(200)", lambda: partitions.count_schur_product_table(200)
    yield "count_schur_gap_table(200)", lambda: partitions.count_schur_gap_table(200)
    yield "walk_schur_gap_table(100)", lambda: partitions.walk_schur_gap_table(100)
    for k in KS:
        yield f"theorem_product({k}, 60)", lambda k=k: appell.theorem_product(k, 60).coeffs
    for k in range(2, 6):
        yield f"build_R({k}, {60 + k}, 60)", lambda k=k: [
            packed.read_rows(t) for t in appell.build_R(k, 60 + k, 60).terms]


def large_grid():
    """(name, zero-argument call) for each table of the n = 1000 grid: the
    corollary's three tables for every (k, i) with k <= 5, the theorem's
    product for k <= 5, Schur's knapsack and sweep, and D_k on every a-row
    for k = 2 and 5."""
    n = 1000
    for k in range(2, 6):
        for i in range(k):
            yield f"count_B_table({n}, {k}, {i})", lambda k=k, i=i: partitions.count_B_table(n, k, i)
            yield f"congruence_product_series({k}, {i}, {n})", lambda k=k, i=i: (
                appell.congruence_product_series(k, i, n).coeffs)
            yield f"count_C_table({n}, {k}, {i})", lambda k=k, i=i: partitions.count_C_table(n, k, i)
    for k in range(2, 6):
        yield f"theorem_product({k}, {n})", lambda k=k: appell.theorem_product(k, n).coeffs
    yield f"count_schur_product_table({n})", lambda: partitions.count_schur_product_table(n)
    yield f"count_schur_gap_table({n})", lambda: partitions.count_schur_gap_table(n)
    for k in (2, 5):
        m = appell.max_overline_count(k, n)
        yield f"count_Dk_table({n}, {k}, {m})", lambda k=k, m=m: overpartitions.count_Dk_table(n, k, m)


def digest(table) -> str:
    return hashlib.sha256(json.dumps(table, separators=(",", ":")).encode()).hexdigest()


def partition_numbers(n_max: int) -> list:
    """p(0..n_max) by Euler's pentagonal recurrence:
    p(n) = sum_{j >= 1} (-1)^{j+1} (p(n - j(3j-1)/2) + p(n - j(3j+1)/2))."""
    p = [1]
    for n in range(1, n_max + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= n:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= n:
                    total += sign * p[n - g]
            j += 1
        p.append(total)
    return p


def check_digests(path: Path, tables) -> None:
    """Each table's digest equals the file's, and the file names the same
    tables in the same order."""
    frozen = json.loads(path.read_text())
    computed = {name: digest(call()) for name, call in tables}
    assert list(computed) == list(frozen)
    assert [name for name in frozen if computed[name] != frozen[name]] == []


def test_tables_match_their_frozen_digests():
    check_digests(DIGESTS, grid())


def test_dk_plain_row_is_the_partition_numbers():
    p = partition_numbers(200)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert p[200] == 3972999029388  # MacMahon's table
    for k in KS:
        assert overpartitions.count_Dk_table(200, k, 0)[0] == p, k


if __name__ == "__main__":
    check_digests(LARGE_DIGESTS, large_grid())
    print(f"every table matches {LARGE_DIGESTS.name}")
