"""Mutated diagram files end in one of the library's own errors.

Hypothesis runs derandomized with a fixed example budget, so the test sees
the same inputs on every run.  Each example takes one of the packaged
``diagrams/*.shd`` files, applies a few token or line edits, and sends the
text through parse, validate and sfh.
"""
from __future__ import annotations

import pathlib

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sfh import (InvalidDiagramError, NotAdmissibleError,  # noqa: E402
                 NotBalancedError, NotNiceError, ParseError, parse, sfh)

DIAGRAM_DIR = pathlib.Path(__file__).resolve().parent.parent / "diagrams"
FILES = sorted(p.read_text(encoding="utf-8") for p in DIAGRAM_DIR.glob("*.shd"))
EXPECTED = (ParseError, InvalidDiagramError, NotBalancedError,
            NotAdmissibleError, NotNiceError)

# replacement tokens: every token of the corpus, plus edge cases of the format
WORDS = sorted({tok for text in FILES for tok in text.split()}
               | {"0", "-1", "+0", "++1", "+-1", "0_1", "\uff11", "99999",
                  "10" * 30, "1.5", "x", "#", "cycle", "genus", "shd", "vertex",
                  "edge", "region"})


def _mutate(data, text: str) -> str:
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        op = data.draw(st.sampled_from(
            ("replace", "delete_token", "insert", "drop_line", "copy_line",
             "swap_lines", "indent")), label="op")
        toks = lines[at].split()
        if op in ("replace", "delete_token", "insert") and not toks:
            continue
        k = data.draw(st.integers(0, max(len(toks) - 1, 0)), label="token")
        if op == "replace":
            toks[k] = data.draw(st.sampled_from(WORDS), label="word")
            lines[at] = " ".join(toks)
        elif op == "delete_token":
            del toks[k]
            lines[at] = " ".join(toks)
        elif op == "insert":
            toks.insert(k, data.draw(st.sampled_from(WORDS), label="word"))
            lines[at] = " ".join(toks)
        elif op == "drop_line" and len(lines) > 1:
            del lines[at]
        elif op == "copy_line":
            lines.insert(data.draw(st.integers(0, len(lines)), label="to"), lines[at])
        elif op == "swap_lines":
            to = data.draw(st.integers(0, len(lines) - 1), label="to")
            lines[at], lines[to] = lines[to], lines[at]
        elif op == "indent":
            lines[at] = data.draw(st.sampled_from(("  ", "\t", " \t ")),
                                  label="blank") + lines[at]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_files_raise_only_library_errors(data):
    text = _mutate(data, data.draw(st.sampled_from(FILES), label="file"))
    try:
        d = parse(text)
        d.validate()
        sfh(d)
    except EXPECTED:
        pass
