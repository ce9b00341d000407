#!/usr/bin/env python3
"""Check relative links in the repo's Markdown documentation.

Scans every top-level ``*.md`` plus everything under ``docs/`` for
inline Markdown links and images, and fails if a relative target does
not exist — including heading anchors (``file.md#section`` is checked
against the GitHub-style slugs of that file's headings, for both
cross-file and intra-doc ``#fragment`` links).

Code references in inline code spans of the form
``` `src/repro/circuits/sram.py:123` ``` (optionally ``:123-145``) are
validated too: the file must exist and the line range must fall within
it.  ``docs/physics.md`` leans on these for its equations→code table;
a refactor that moves a function without regenerating the table
(``tools/gen_physics_table.py --write``) fails here.  ``ISSUE.md`` is
exempt from this one check: it describes the next change against the
code of its parent commit, which that change may delete.  Its links
and anchors are still checked.

External links (``http(s)://``, ``mailto:``) are not fetched; docs CI
must not depend on the network.

Exit codes follow the repo convention: 0 clean, 1 broken links found,
2 usage error.  Run from anywhere: paths resolve against the repo
root (the parent of this script's directory).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline link or image: [text](target) / ![alt](target "title").
LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")

#: ATX headings, for anchor validation.
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")

#: Fenced code blocks must not contribute links or headings.
FENCE_RE = re.compile(r"^(```|~~~)")

#: ``path/to/file.py:123`` or ``path.py:123-145`` inside a code span.
CODE_REF_RE = re.compile(r"`([\w./\-]+\.py):(\d+)(?:-(\d+))?`")

SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

#: The one doc whose ``file.py:NN`` code references are not checked.
CODE_REF_EXEMPT = Path("ISSUE.md")


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug for a heading line."""
    text = re.sub(r"[`*_]", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _doc_files() -> list[Path]:
    files = sorted(REPO_ROOT.glob("*.md"))
    files.extend(sorted((REPO_ROOT / "docs").rglob("*.md")))
    return files


def _visible_lines(text: str) -> list[tuple[int, str]]:
    """(line_number, line) pairs with fenced code blocks blanked."""
    lines = []
    in_fence = False
    for number, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            lines.append((number, line))
    return lines


def _anchors(path: Path) -> set[str]:
    slugs: set[str] = set()
    for _, line in _visible_lines(path.read_text(encoding="utf-8")):
        match = HEADING_RE.match(line)
        if match:
            slugs.add(_slugify(match.group(1)))
    return slugs


def _line_count(path: Path, cache: dict[Path, int]) -> int:
    if path not in cache:
        cache[path] = len(path.read_text(encoding="utf-8").splitlines())
    return cache[path]


def _check_code_refs(
    rel: Path, number: int, line: str, line_cache: dict[Path, int]
) -> list[str]:
    """Validate every ``file.py:NN`` code reference on one line."""
    problems = []
    for match in CODE_REF_RE.finditer(line):
        ref_path = REPO_ROOT / match.group(1)
        start = int(match.group(2))
        end = int(match.group(3)) if match.group(3) else start
        if not ref_path.is_file():
            problems.append(
                f"{rel}:{number}: code reference to missing file "
                f"{match.group(1)!r}"
            )
            continue
        total = _line_count(ref_path, line_cache)
        if start < 1 or end < start or end > total:
            problems.append(
                f"{rel}:{number}: code reference "
                f"{match.group(0)} outside file "
                f"({match.group(1)} has {total} lines)"
            )
    return problems


def _check_file(path: Path, anchor_cache: dict[Path, set[str]]) -> list[str]:
    problems = []
    line_cache: dict[Path, int] = {}
    rel = path.relative_to(REPO_ROOT)
    check_refs = rel != CODE_REF_EXEMPT
    for number, line in _visible_lines(path.read_text(encoding="utf-8")):
        if check_refs:
            problems.extend(_check_code_refs(rel, number, line, line_cache))
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("<"):
                continue
            base, _, fragment = target.partition("#")
            if base:
                resolved = (path.parent / base).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{rel}:{number}: broken link target {target!r}"
                    )
                    continue
            else:
                resolved = path.resolve()
            if fragment and resolved.suffix == ".md":
                if resolved not in anchor_cache:
                    anchor_cache[resolved] = _anchors(resolved)
                if fragment.lower() not in anchor_cache[resolved]:
                    problems.append(
                        f"{rel}:{number}: missing anchor {target!r}"
                    )
    return problems


def main() -> int:
    if len(sys.argv) > 1:
        print(
            "usage: check_md_links.py (no arguments; scans *.md and docs/)",
            file=sys.stderr,
        )
        return 2
    files = _doc_files()
    anchor_cache: dict[Path, set[str]] = {}
    problems = []
    for path in files:
        problems.extend(_check_file(path, anchor_cache))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"checked {len(files)} markdown file(s): "
        + (f"{len(problems)} broken link(s)" if problems else "all links ok")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
