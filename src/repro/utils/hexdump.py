"""Hexdump rendering in the two formats the paper uses.

Step 4a of the attack formats the scraped words "into rows of eight
nibbles each" and then runs ``hexdump`` on the file.  The figures show
an ``xxd``-style layout: sixteen bytes per row rendered as eight
two-byte groups *in memory order* followed by the ASCII column, e.g.
(paper Fig. 11, where ``6c73`` is the bytes of ``ls``)::

    6c73 2f72 6573 6e65 7435 305f 7074 2f72 ls/resnet50_pt/r

This module reproduces that layout bit-for-bit (so the attacker-side
``grep`` works on output identical to the paper's), plus the more
familiar ``hexdump -C`` canonical format for human inspection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_PAPER_ROW_BYTES = 16
_GROUP_RE = re.compile(r"^[0-9a-fA-F]{4}$")


def _printable(byte: int) -> str:
    """ASCII column rendering: printable chars verbatim, everything else '.'."""
    return chr(byte) if 0x20 <= byte <= 0x7E else "."


def hexdump_paper_rows(data: bytes) -> list[str]:
    """Render *data* in the paper's hexdump layout, one string per row.

    Each row covers sixteen bytes shown as eight groups of four hex
    digits.  Groups are two bytes in memory order (``xxd`` style),
    matching the figures: ``ls`` renders as ``6c73``.  A trailing
    partial row is zero-padded in the hex columns but the ASCII column
    only shows real bytes.
    """
    rows = []
    for start in range(0, len(data), _PAPER_ROW_BYTES):
        chunk = data[start : start + _PAPER_ROW_BYTES]
        padded = chunk + b"\x00" * (_PAPER_ROW_BYTES - len(chunk))
        groups = []
        for offset in range(0, _PAPER_ROW_BYTES, 2):
            word = (padded[offset] << 8) | padded[offset + 1]
            groups.append(f"{word:04x}")
        ascii_column = "".join(_printable(b) for b in chunk)
        rows.append(" ".join(groups) + " " + ascii_column)
    return rows


def parse_paper_row(row: str) -> bytes:
    """Recover the sixteen raw bytes from one paper-format hexdump row.

    Only the eight hex groups are used; the ASCII column is ignored
    (it is lossy).  Raises ``ValueError`` on a malformed row.
    """
    fields = row.split()
    if len(fields) < 8:
        raise ValueError(f"expected at least 8 hex groups, got {len(fields)}: {row!r}")
    out = bytearray()
    for group in fields[:8]:
        if not _GROUP_RE.match(group):
            raise ValueError(f"malformed hex group {group!r} in row {row!r}")
        word = int(group, 16)
        out.append(word >> 8)
        out.append(word & 0xFF)
    return bytes(out)


def hexdump_canonical(data: bytes, base_offset: int = 0) -> list[str]:
    """Render *data* like ``hexdump -C``: offset, 16 hex bytes, |ascii|."""
    rows = []
    for start in range(0, len(data), 16):
        chunk = data[start : start + 16]
        hex_halves = []
        for half in (chunk[:8], chunk[8:]):
            hex_halves.append(" ".join(f"{b:02x}" for b in half))
        hex_field = f"{hex_halves[0]:<23}  {hex_halves[1]:<23}"
        ascii_column = "".join(_printable(b) for b in chunk)
        rows.append(f"{base_offset + start:08x}  {hex_field} |{ascii_column}|")
    return rows


def format_devmem_words(words: list[int]) -> str:
    """Format 32-bit words one per line as eight nibbles (paper step 4a).

    This is the intermediate file the paper builds from the automated
    ``devmem`` reads before hexdumping it.
    """
    return "\n".join(f"{word & 0xFFFFFFFF:08x}" for word in words)


@dataclass(frozen=True)
class GrepHit:
    """One matching hexdump row, as returned by :meth:`HexDump.grep`."""

    row_number: int
    row_text: str


class HexDump:
    """A scraped memory dump with paper-style search operations.

    Wraps raw bytes and exposes the three queries the paper's analysis
    step performs: ``grep`` for an ASCII substring (Fig. 11), search for
    a repeated hex marker (Fig. 12), and "row number of first
    occurrence" used by the offline profiler (the paper's row 646768).
    """

    def __init__(self, data) -> None:
        # bytes, bytearray and mmap all support find + slicing, so they
        # are kept as-is (zero-copy); only buffers without ``find``
        # (memoryview) are copied.
        self._data = data if hasattr(data, "find") else bytes(data)
        self._rows: list[str] | None = None

    @property
    def data(self):
        """The underlying buffer (bytes, bytearray or mmap)."""
        return self._data

    def rows(self) -> list[str]:
        """All paper-format hexdump rows (computed lazily, cached)."""
        if self._rows is None:
            self._rows = hexdump_paper_rows(self._data)
        return self._rows

    def grep(self, needle: str) -> list[GrepHit]:
        """Return rows whose ASCII column contains *needle*.

        Matches the paper's ``grep "resnet50" 1391_hexdump.log`` usage:
        a hit means the string is visible in the dump at that row.  The
        search runs on the raw bytes first (fast path) and only renders
        the affected rows, so grepping a multi-megabyte dump is cheap.
        """
        encoded = needle.encode("ascii", errors="ignore")
        if not encoded:
            return []
        hits = []
        seen_rows = set()
        start = 0
        while True:
            index = self._data.find(encoded, start)
            if index < 0:
                break
            first_row = index // _PAPER_ROW_BYTES
            last_row = (index + len(encoded) - 1) // _PAPER_ROW_BYTES
            for row_number in range(first_row, last_row + 1):
                if row_number not in seen_rows:
                    seen_rows.add(row_number)
                    row_start = row_number * _PAPER_ROW_BYTES
                    row_text = hexdump_paper_rows(
                        self._data[row_start : row_start + _PAPER_ROW_BYTES]
                    )[0]
                    hits.append(GrepHit(row_number, row_text))
            start = index + 1
        hits.sort(key=lambda hit: hit.row_number)
        return hits

    def find_bytes(self, pattern: bytes, start: int = 0) -> int:
        """Byte offset of the first occurrence of *pattern*, or -1."""
        return self._data.find(pattern, start)

    def first_row_of(self, pattern: bytes) -> int:
        """Hexdump row number containing the first occurrence of *pattern*.

        This is the quantity the paper's offline profiling records
        ("specifically at row number 646768").  Returns -1 when the
        pattern is absent.
        """
        index = self.find_bytes(pattern)
        if index < 0:
            return -1
        return index // _PAPER_ROW_BYTES

    def marker_run_rows(self, marker_word: int, minimum_rows: int = 2) -> list[int]:
        """Row numbers where every 32-bit word equals *marker_word*.

        Used to locate the corrupted-image block of Fig. 12 (rows that
        are solid ``FFFF FFFF ...``).  Only runs of at least
        *minimum_rows* consecutive solid rows are reported, which
        filters out accidental single-row matches.  The search reads
        the rows as little-endian words in place and keeps no view of
        the buffer, so the caller may release or resize it straight
        after.
        """
        row_count = len(self._data) // _PAPER_ROW_BYTES
        words = np.frombuffer(self._data, dtype="<u4", count=row_count * 4)
        solid = (words.reshape(row_count, 4) == (marker_word & 0xFFFFFFFF)).all(axis=1)
        solid_rows = np.flatnonzero(solid)
        if minimum_rows > 1 and solid_rows.size:
            # Split the solid rows into runs of consecutive numbers and
            # keep each run whose length reaches the minimum.
            breaks = np.flatnonzero(np.diff(solid_rows) != 1) + 1
            lengths = np.diff(breaks, prepend=0, append=solid_rows.size)
            solid_rows = solid_rows[np.repeat(lengths >= minimum_rows, lengths)]
        return solid_rows.tolist()

    def __len__(self) -> int:
        return len(self._data)
