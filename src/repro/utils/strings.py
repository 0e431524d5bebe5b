"""Printable-string extraction, the ``strings(1)`` equivalent.

Step 4a of the attack inspects the scraped dump for "meaningful,
readable words".  The model-identification stage builds on this:
it extracts every printable run and scores them against the signature
database learned by offline profiling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class StringHit:
    """A printable run found in a binary blob."""

    offset: int
    text: str


def extract_strings(data: bytes, minimum_length: int = 4) -> list[StringHit]:
    """Return every run of >= *minimum_length* printable ASCII bytes.

    Mirrors ``strings -n <minimum_length>``: tabs and newlines are not
    treated as printable (GNU strings includes tab; the attack only
    cares about path and identifier fragments, where this makes no
    difference).  One regex pass over any buffer (``bytes``,
    ``bytearray``, ``mmap``); ``repro.analysis.reference`` keeps the
    per-byte loop it replaced.
    """
    if minimum_length < 1:
        raise ValueError(f"minimum_length must be >= 1, got {minimum_length}")
    # A greedy match that starts a run spans all of it, and a run too
    # short to match has no longer suffix: one pass keeps exactly the
    # runs the per-byte scan keeps.
    pattern = rb"[\x20-\x7e]{%d,}" % minimum_length
    return [
        StringHit(match.start(), match.group().decode("ascii"))
        for match in re.finditer(pattern, data)
    ]


def find_pattern_offsets(data: bytes, pattern: bytes, limit: int | None = None) -> list[int]:
    """All byte offsets of *pattern* in *data* (overlapping), oldest first.

    *limit* bounds the number of hits returned; ``None`` means all.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    offsets = []
    start = 0
    while True:
        index = data.find(pattern, start)
        if index < 0:
            break
        offsets.append(index)
        if limit is not None and len(offsets) >= limit:
            break
        start = index + 1
    return offsets


def longest_common_token(strings: list[str], separator: str = "/") -> str:
    """The most frequent path token across *strings* (ties: longest).

    Used by the signature builder to pick a distinctive identifier out
    of the path strings a model leaves in memory, e.g. ``resnet50_pt``
    out of ``/usr/share/vitis_ai_library/models/resnet50_pt/...``.
    """
    counts: dict[str, int] = {}
    for text in strings:
        for token in text.split(separator):
            token = token.strip()
            if len(token) >= 4:
                counts[token] = counts.get(token, 0) + 1
    if not counts:
        return ""
    return max(counts, key=lambda token: (counts[token], len(token)))
