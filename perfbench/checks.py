"""Output checks: structural invariants, the paper's bounds, and digests.

A digest leaves out oracle-call counts and wall times: call counts are meant
to fall as the solver gets leaner, and are reported as a metric instead.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

TOL = 1e-9
NONMONOTONE_BOUND = 1.0 / (2.0 * math.e)
MONOTONE_BOUND = (1.0 - math.exp(-2.0)) / 2.0
UNDIGESTED_COLUMNS = ("evals", "wall_ms")


def fmt(x: float) -> str:
    """The CSV's float format, so replayed values compare as written."""
    return format(x, ".12g")


def feasible_sum(instance, Ts) -> float:
    """Summed value of the feasible sets, accumulated in function order."""
    total = 0.0
    for descriptor, T in zip(instance.functions, Ts):
        total += descriptor.value(frozenset(T))
    return total


def structure_errors(instance, S, Ts, F_reported: float) -> list[str]:
    """Violations of the solution invariants; empty when the solution is sound."""
    errors = []
    S = frozenset(S)
    if len(S) > instance.l:
        errors.append(f"|S|={len(S)} exceeds l={instance.l}")
    if any(x >= instance.n for x in S):
        errors.append("S contains a dummy id")
    if len(Ts) != instance.m:
        errors.append(f"{len(Ts)} feasible sets for {instance.m} functions")
    for i, T in enumerate(Ts):
        T = frozenset(T)
        if len(T) > instance.k:
            errors.append(f"|T_{i}|={len(T)} exceeds k={instance.k}")
        if any(x >= instance.n for x in T):
            errors.append(f"T_{i} contains a dummy id")
        if not T <= S:
            errors.append(f"T_{i} is not a subset of S")
    if feasible_sum(instance, Ts) > F_reported + TOL:
        errors.append("sum of f_i(T_i) exceeds the reported F")
    return errors


def ratio_bound(instance) -> float:
    """The paper's expectation bound that applies to this instance."""
    if all(f.monotone for f in instance.functions):
        return MONOTONE_BOUND
    return NONMONOTONE_BOUND


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def csv_digest(text: str) -> str:
    """Digest of a results CSV with the call-count and wall-time columns blank."""
    rows = list(csv.reader(io.StringIO(text)))
    blank = [rows[0].index(c) for c in UNDIGESTED_COLUMNS]
    for row in rows[1:]:
        for i in blank:
            row[i] = ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return digest(out.getvalue())


def solution_digest(S, Ts, F_reported: float) -> str:
    return digest(json.dumps([sorted(S), [sorted(T) for T in Ts], fmt(F_reported)]))
