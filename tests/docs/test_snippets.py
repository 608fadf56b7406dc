"""Every fenced code snippet in the documentation must actually run.

``python`` fences are executed in a fresh namespace; ``pycon`` fences run
through doctest (so printed values are checked, not just syntax).
``console`` fences are shell transcripts and are exempt, but they still
count toward the scan so a typo'd fence language cannot silently skip a
snippet.
"""

import doctest
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted(REPO_ROOT.glob("docs/*.md")) + [REPO_ROOT / "README.md"]
KNOWN_LANGUAGES = {"python", "pycon", "console", "text", ""}
FENCE = re.compile(r"^```(\S*)\s*$")


@dataclass
class Snippet:
    path: Path
    number: int  # 1-based count of this fence within its file
    line: int  # 1-based line of the opening fence
    language: str
    source: str

    @property
    def id(self):
        # Counting fences, not lines, keeps every id stable when prose
        # above a fence is edited.
        return f"{self.path.name}#{self.number}"


def extract_snippets(path):
    snippets, language, start, body = [], None, 0, []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        match = FENCE.match(line)
        if match is None:
            if language is not None:
                body.append(line)
            continue
        if language is None:
            language, start, body = match.group(1), number, []
        else:
            snippets.append(Snippet(path, len(snippets) + 1, start, language,
                                    "\n".join(body) + "\n"))
            language = None
    assert language is None, f"unterminated fence at {path.name}:{start}"
    return snippets


ALL_SNIPPETS = [s for doc in DOC_FILES for s in extract_snippets(doc)]
RUNNABLE = [s for s in ALL_SNIPPETS if s.language in ("python", "pycon")]


def test_the_scan_found_the_documentation():
    assert len(DOC_FILES) >= 5
    assert len(ALL_SNIPPETS) >= 10
    assert len(RUNNABLE) >= 5, "docs lost their runnable snippets?"


@pytest.mark.parametrize(
    "snippet", ALL_SNIPPETS, ids=lambda s: s.id)
def test_fence_language_is_recognised(snippet):
    # A misspelled language ("pyton") would dodge execution forever.
    assert snippet.language in KNOWN_LANGUAGES, \
        f"unknown fence language {snippet.language!r} in {snippet.id}"


@pytest.mark.parametrize(
    "snippet", RUNNABLE, ids=lambda s: s.id)
def test_snippet_runs(snippet):
    if snippet.language == "python":
        code = compile(snippet.source, snippet.id, "exec")
        exec(code, {"__name__": f"docsnippet_{snippet.number}"})
        return
    parser = doctest.DocTestParser()
    test = parser.get_doctest(snippet.source, {}, snippet.id,
                              str(snippet.path), snippet.line)
    runner = doctest.DocTestRunner(verbose=False,
                                   optionflags=doctest.ELLIPSIS)
    results = runner.run(test)
    assert results.failed == 0, \
        f"{results.failed} doctest failure(s) in {snippet.id}"
    assert results.attempted > 0
