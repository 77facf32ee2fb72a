"""The names the rest of the package looks its kernels up by.

Every kernel lives in ``weylchar._core_py``, with ``CapExceeded``, the
error its enumerations raise past their cap.  Callers write
``_kernels.<name>(...)`` rather than importing the functions, so that a
caller's lookup can be replaced at one place: a layer tracer wraps these
attributes, and tests monkeypatch them to count calls.  ``BACKEND``
names the one implementation; benchmark reports record it.
"""
from weylchar._core_py import (
    CapExceeded,
    bareiss_rank,
    column_det,
    column_ideal,
    column_weights,
    count_column_ideal,
    group_by_weight,
    rank_columns,
    weight_of_columns,
    weight_support,
    ymul,
)

BACKEND = "pure"
