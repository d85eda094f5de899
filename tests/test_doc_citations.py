"""Every ``*.md`` document cited from ``src/`` or ``benchmarks/`` exists.

Docstrings that send the reader to a document which is not in the repo
are worse than none.  A citation with a directory part
(``e2ebench/README.md``) must exist at that path from the repo root; a
bare name (``ROADMAP.md``) must exist somewhere in the repo.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks")
CITATION = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")


def _cited_documents():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), start=1):
                for name in CITATION.findall(line):
                    yield path.relative_to(ROOT), lineno, name


def _exists(name):
    if "/" in name:
        return (ROOT / name).is_file()
    return any(
        ".git" not in path.parts for path in ROOT.rglob(name) if path.is_file()
    )


def test_cited_documents_exist():
    missing = [
        f"{path}:{lineno}: {name}"
        for path, lineno, name in _cited_documents()
        if not _exists(name)
    ]
    assert not missing, "cited documents that do not exist:\n" + "\n".join(missing)


@pytest.mark.parametrize(
    "line, expected",
    [
        ("see DESIGN.md §1", ["DESIGN.md"]),
        ("documented in `e2ebench/README.md`.", ["e2ebench/README.md"]),
        ("(ROADMAP.md)", ["ROADMAP.md"]),
        ("no citation: x.mdx, foo.md_bar", []),
    ],
)
def test_citation_pattern(line, expected):
    assert CITATION.findall(line) == expected


def test_missing_document_detected():
    assert _exists("ROADMAP.md")
    assert _exists("e2ebench/README.md")
    assert not _exists("NO-SUCH-DOCUMENT.md")
    assert not _exists("e2ebench/NO-SUCH-DOCUMENT.md")
