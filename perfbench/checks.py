"""Output checks: each returns how many ops of a batch failed it.

Every check compares against a reference computed by the benchmark
itself from the same seed (an in-process campaign, the set-up sweep, a
local ``analyze_dump``), never against a stored digest, so any seed is
checkable.
"""

from __future__ import annotations

import json

WALL_CLOCK_COLUMNS = ("wall_seconds", "teardown_seconds")
"""Defense-matrix columns that time the host, not the simulated world."""


def report_failures(reference: bytes, report: bytes) -> int:
    """Victims of a campaign whose ``report.json`` is not the reference.

    Byte-identical reports fail nothing.  Otherwise every outcome that
    differs from its reference record (matched by ``job_id``) fails; a
    report that differs elsewhere, or does not parse, fails every
    victim.
    """
    if report == reference:
        return 0
    expected = json.loads(reference)["outcomes"]
    try:
        outcomes = json.loads(report)["outcomes"]
        by_job = {record["job_id"]: record for record in outcomes}
    except (ValueError, KeyError, TypeError):
        return len(expected)
    differing = sum(
        1 for record in expected if by_job.get(record["job_id"]) != record
    )
    return differing or len(expected)


def canonical_matrix(matrix_json: str) -> dict:
    """A defense matrix with its wall-clock columns dropped."""
    payload = json.loads(matrix_json)
    for row in payload["rows"]:
        for column in WALL_CLOCK_COLUMNS:
            row.pop(column, None)
    return payload


def matrix_failures(reference: dict, matrix_json: str, victims: int) -> int:
    """Victim attacks in rows of the matrix that differ from the reference.

    *reference* is :func:`canonical_matrix` of the set-up sweep; each
    differing row fails its *victims* ops, and a matrix whose spec or
    row set differs fails them all.
    """
    candidate = canonical_matrix(matrix_json)
    every = victims * len(reference["rows"])
    if candidate == reference:
        return 0
    if {k: v for k, v in candidate.items() if k != "rows"} != {
        k: v for k, v in reference.items() if k != "rows"
    } or len(candidate["rows"]) != len(reference["rows"]):
        return every
    differing = sum(
        1 for got, want in zip(candidate["rows"], reference["rows"]) if got != want
    )
    return differing * victims


def delta_failed(event: dict, expected: dict) -> bool:
    """Whether a streamed delta disagrees with the local analysis payload."""
    return event.get("event") != "delta" or event.get("analysis") != expected
