"""Mechanical verification of a family of partition and overpartition identities.

Each identity is checked by independent routes.  A sweep over the part
values counts the sum sides with no object built.  A product side over
Euler's product is checked against its numerator: a counted table (B's
knapsack, the sweep, or the limit of the sweep's bounded-part counts R_j)
times Euler's product must equal it, so no product is expanded; Schur's
product is counted by its knapsack.  Pruned enumeration lists the witnesses and tallies the C
and Schur walks.  Verifiers report agreement or the first counterexample.
"""

from .appell import (
    RSequence,
    StabilizationError,
    appell_limit,
    build_R,
    check_functional_equation,
    congruence_product_series,
    theorem_product,
    unpack,
)
from .overpartitions import (
    Overpartition,
    count_pj,
    count_rj,
    enumerate_overpartitions,
    is_Dk_admissible,
    specialize_overpartition,
)
from .partitions import (
    count_C,
    count_C_table,
    enumerate_partitions,
    partitions_up_to,
)
from .series import (
    BivariateSeries,
    Monomial,
    QSeries,
    pochhammer_inf,
    specialize,
)
from .verify import (
    VerificationReport,
    golden_example_n10,
    verify_all,
    verify_corollary,
    verify_machinery,
    verify_overpartition,
    verify_schur,
)

__version__ = "0.1.0"

# read by perfbench/worker.py; the next change to the benchmark drops it
BACKEND = "python"

__all__ = [
    "BivariateSeries",
    "Monomial",
    "Overpartition",
    "QSeries",
    "RSequence",
    "StabilizationError",
    "VerificationReport",
    "appell_limit",
    "build_R",
    "check_functional_equation",
    "congruence_product_series",
    "count_C",
    "count_C_table",
    "count_pj",
    "count_rj",
    "enumerate_overpartitions",
    "enumerate_partitions",
    "golden_example_n10",
    "is_Dk_admissible",
    "partitions_up_to",
    "pochhammer_inf",
    "specialize",
    "specialize_overpartition",
    "theorem_product",
    "unpack",
    "verify_all",
    "verify_corollary",
    "verify_machinery",
    "verify_overpartition",
    "verify_schur",
]
