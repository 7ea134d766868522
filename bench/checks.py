"""Output checks for benchmark jobs.

Each check takes a job's exit code and output text and returns a list of
problems; an empty list means the output is correct.  Monte Carlo means are
held to 5 standard errors of the exact catalog mean, with the standard
error taken from the exact catalog variance, so a correct run fails a
check with probability below 1e-6 per index.
"""

from __future__ import annotations

import json
import math

from spiderlab import moment_catalog, parse_index

SE_LIMIT = 5.0
SPOT_CHECK_STRIDE = 100


def _mean_problem(key: str, mean: float, n: int, p: float, count: int) -> list[str]:
    entry = moment_catalog(parse_index(key))
    expected = float(entry.mean(n, p))
    se = math.sqrt(float(entry.variance(n, p)) / count)
    if not abs(mean - expected) <= SE_LIMIT * se:
        return [f"{key}: mean {mean!r} is {abs(mean - expected) / se:.1f} SE "
                f"from the catalog mean {expected!r}"]
    return []


def check_simulate(code: int, text: str, n: int, p: float,
                   indices: tuple[str, ...], replicates: int) -> list[str]:
    """A ``simulate`` JSON summary: every index present with ``count`` equal
    to the replicates and a mean within SE_LIMIT standard errors, and
    ``spot_checks`` equal to the number of replicate ids divisible by 100."""
    if code != 0:
        return [f"exit code {code}"]
    summary = json.loads(text)
    problems = []
    for key in indices:
        stats = summary["stats"].get(key)
        if stats is None:
            problems.append(f"{key}: missing from the summary")
            continue
        if stats["count"] != replicates:
            problems.append(f"{key}: count {stats['count']} != replicates {replicates}")
        problems += _mean_problem(key, stats["mean"], n, p, replicates)
    audited = -(-replicates // SPOT_CHECK_STRIDE)
    if summary["spot_checks"] != audited:
        problems.append(f"spot_checks {summary['spot_checks']} != {audited}")
    return problems


def check_clt(code: int, text: str, index: str, n: int, p: float,
              replicates: int) -> list[str]:
    """A ``clt`` JSON table with one row: the sample mean, recovered from
    the standardized mean through the catalog CLT centre and scale, lies
    within SE_LIMIT standard errors of the exact catalog mean."""
    if code != 0:
        return [f"exit code {code}"]
    rows = json.loads(text)["rows"]
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    row = rows[0]
    if row["index"] != index or int(row["n"]) != n:
        return [f"row is for {row['index']} at n={row['n']}, expected {index} at n={n}"]
    clt = moment_catalog(parse_index(index)).clt
    centre = float(clt.center(n, p))
    scale = clt.scale_value(n, p)
    mean = centre + scale * float(row["mean"])
    return _mean_problem(index, mean, n, p, replicates)


def check_verify(code: int, text: str) -> list[str]:
    """A ``verify`` report: exit code 0 and the all-passed line."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if "all suites passed" not in text:
        problems.append("output does not say 'all suites passed'")
    return problems
