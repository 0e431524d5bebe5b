#!/usr/bin/env python3
"""The ``make docs-check`` gate: docstrings, links, and live examples.

Six invariants, enforced so the documentation surface cannot rot
silently as the codebase grows:

1. every Python module under ``src/repro`` (packages included) carries
   a module docstring;
2. every package directory under ``src/repro`` appears in README.md's
   package map table as ``repro.<name>`` — and, conversely, every
   ``repro.<name>`` the map mentions resolves to a real package or
   module;
3. every relative link in README.md and ``docs/*.md`` points at a file
   or directory that actually exists (external ``http(s)`` links are
   out of scope);
4. every ``#fragment`` in a relative or same-document link resolves to
   a real heading of the target markdown file (GitHub slug rules,
   duplicate-heading ``-1``/``-2`` suffixes included);
5. ``docs/cli.md`` matches what ``tools/gen_cli_docs.py`` generates
   from the live argparse tree — the CLI reference cannot drift from
   ``src/repro/cli.py``;
6. the usage examples in the docstrings of :data:`DOCTESTED_MODULES`
   execute cleanly (``doctest``), so the documented attack, defense,
   and campaign walkthroughs stay runnable.

Exit status 0 = clean; 1 = violations (each printed on its own line).
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
README = REPO_ROOT / "README.md"
DOCS_DIR = REPO_ROOT / "docs"

DOCTESTED_MODULES = (
    "repro.attack.variants",
    "repro.attack.weights",
    "repro.campaign",
    "repro.campaign.engine",
    "repro.campaign.report",
    "repro.campaign.runtime.spool",
    "repro.campaign.schedule",
    "repro.defense",
    "repro.defense.profiles",
    "repro.fuzzlab",
    "repro.fuzzlab.scenario",
    "repro.petalinux.sanitizer",
    "repro.petalinux.xen",
    "repro.wire",
)
"""Modules whose docstring examples must actually run.  Docstrings
elsewhere may carry illustrative (non-self-contained) snippets; these
are the documented walkthroughs the docs link to."""

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def missing_docstrings() -> list[str]:
    """Modules under src/repro without a module docstring."""
    failures = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if ast.get_docstring(tree) is None:
            failures.append(
                f"{path.relative_to(REPO_ROOT)}: missing module docstring"
            )
    return failures


def _package_map_rows() -> list[str]:
    if not README.exists():
        return []
    return [
        line
        for line in README.read_text().splitlines()
        if line.lstrip().startswith("|")
    ]


def missing_from_package_map() -> list[str]:
    """Packages under src/repro absent from README.md's package map.

    Only the map's table rows count — a prose mention elsewhere in the
    README does not satisfy the check.
    """
    if not README.exists():
        return ["README.md does not exist"]
    table_rows = _package_map_rows()
    failures = []
    for entry in sorted(SRC_ROOT.iterdir()):
        if not entry.is_dir() or not (entry / "__init__.py").exists():
            continue
        dotted = f"`repro.{entry.name}`"
        if not any(dotted in row for row in table_rows):
            failures.append(
                f"README.md package map is missing {dotted}"
            )
    return failures


def stale_package_map_entries() -> list[str]:
    """Package-map rows naming a ``repro.<name>`` that no longer exists."""
    failures = []
    for row in _package_map_rows():
        for name in re.findall(r"`repro\.(\w+)`", row):
            if not (
                (SRC_ROOT / name).is_dir() or (SRC_ROOT / f"{name}.py").exists()
            ):
                failures.append(
                    f"README.md package map names `repro.{name}` but "
                    f"src/repro/{name} does not exist"
                )
    return failures


def heading_slug(title: str) -> str:
    """The GitHub anchor slug one heading title produces.

    GitHub slugs a heading by lowercasing it, dropping every character
    that is not alphanumeric, space, hyphen, or underscore, and turning
    spaces into hyphens; inline markup (backticks, bold, links)
    contributes only its text.  Shared with ``gen_cli_docs.py`` so the
    anchors the CLI reference *emits* are judged by the same rules this
    gate *validates* with.
    """
    title = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", title.strip())
    title = title.replace("`", "").replace("*", "")
    return "".join(
        "-" if char in (" ", "-") else char
        for char in title.lower()
        if char.isalnum() or char in (" ", "-", "_")
    )


def _heading_anchors(document: Path) -> set[str]:
    """Every anchor slug *document*'s headings produce.

    A repeated heading gets ``-1``, ``-2``, … suffixes; headings
    inside fenced code blocks do not count.
    """
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    in_fence = False
    for line in document.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence or not re.match(r"^#{1,6}\s", line):
            continue
        slug = heading_slug(line.lstrip("#"))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def broken_links() -> list[str]:
    """Relative links that resolve to nothing — file or ``#anchor``.

    A target like ``campaigns.md#the-journal`` must both exist on disk
    and contain a heading whose GitHub slug is ``the-journal``; a bare
    ``#anchor`` is checked against the linking document itself.
    """
    failures = []
    documents = [README] + sorted(DOCS_DIR.glob("*.md"))
    for document in documents:
        if not document.exists():
            continue
        for target in _LINK.findall(document.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            relative, _, fragment = target.partition("#")
            destination = (
                document if not relative else document.parent / relative
            )
            if relative and not destination.exists():
                failures.append(
                    f"{document.relative_to(REPO_ROOT)}: broken link "
                    f"-> {target}"
                )
                continue
            if not fragment:
                continue
            if destination.is_dir() or destination.suffix != ".md":
                continue  # anchors only mean something in markdown
            if fragment not in _heading_anchors(destination):
                failures.append(
                    f"{document.relative_to(REPO_ROOT)}: broken anchor "
                    f"-> {target} (no heading slugs to #{fragment})"
                )
    return failures


def stale_cli_reference() -> list[str]:
    """Whether docs/cli.md matches the live argparse tree."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import gen_cli_docs
    except Exception as error:  # noqa: BLE001 — report, don't crash
        return [f"tools/gen_cli_docs.py failed to import: {error}"]
    reference = DOCS_DIR / "cli.md"
    if not reference.exists():
        return ["docs/cli.md does not exist (python tools/gen_cli_docs.py)"]
    if reference.read_text() != gen_cli_docs.generate():
        return [
            "docs/cli.md is stale — regenerate with: "
            "python tools/gen_cli_docs.py"
        ]
    return []


def failing_doctests() -> list[str]:
    """Allowlisted modules whose docstring examples do not run clean."""
    sys.path.insert(0, str(SRC_ROOT.parent))
    failures = []
    for name in DOCTESTED_MODULES:
        try:
            module = importlib.import_module(name)
        except Exception as error:  # noqa: BLE001 — report, don't crash
            failures.append(f"{name}: import failed: {error}")
            continue
        results = doctest.testmod(module, verbose=False)
        if results.failed:
            failures.append(
                f"{name}: {results.failed} of {results.attempted} "
                f"docstring example(s) failed"
            )
        elif results.attempted == 0:
            failures.append(
                f"{name}: listed in DOCTESTED_MODULES but has no "
                f"docstring examples"
            )
    return failures


def main() -> int:
    failures = (
        missing_docstrings()
        + missing_from_package_map()
        + stale_package_map_entries()
        + broken_links()
        + stale_cli_reference()
        + failing_doctests()
    )
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        print(f"docs-check: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    print(
        "docs-check: modules documented, package map complete, links "
        "and anchors resolve, CLI reference current, docstring "
        "examples run"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
