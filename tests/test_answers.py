"""Every answer the library gives on a fixed corpus, pinned by digest.

``goldens/answers.tsv`` holds one line per input text: a sha256 prefix of
the text, then a sha256 prefix of its dump.  An answered text dumps
``render_lines()``, ``signature()``, ``periodic_rank`` and, per class, its
id, modulus, members, gradings in member order and ``boundary_matrix``
rows; a rejected text dumps its exception type and message.  Keying by the
text means that a change to the recipe that builds the texts shows up as
missing keys, not as wrong answers.

The texts are ``diagrams/*.shd`` and the serialized diagrams of the cost
sweep, the walk variants (which hold the nice variants) and the setup
diagrams of the other test modules.

The file changes only with answers that change on purpose.  Rewrite it with
``python tests/test_answers.py --write``.  With ``--stdin`` the script
instead prints the lines of the NUL-separated texts on its input, which is
how the test runs the digests again under ``python -O``.
"""
from __future__ import annotations

import hashlib
import subprocess
import sys
from collections.abc import Iterable
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "goldens" / "answers.tsv"
DIAGRAMS = HERE.parent / "diagrams"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from sfh import (InvalidDiagramError, NotAdmissibleError, NotBalancedError,
                 NotNiceError, ParseError, boundary_matrix, parse, serialize,
                 sfh)

REJECTED = (ParseError, InvalidDiagramError, NotBalancedError,
            NotAdmissibleError, NotNiceError)


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def texts() -> dict[str, str]:
    """The distinct input texts by key, in the order first built."""
    # imported here, so that the -O run, which is handed the texts, loads
    # only the library
    from test_cost import _sweep
    from test_homology import _walk_variants
    from test_intlinalg import setup_diagrams

    out = {}
    files = (p.read_text() for p in sorted(DIAGRAMS.glob("*.shd")))
    built = (serialize(d) for source in (_sweep, _walk_variants,
                                         setup_diagrams)
             for d in source())
    for text in (*files, *built):
        out.setdefault(_hash(text), text)
    return out


def dump(text: str) -> str:
    try:
        d = parse(text)
        result = sfh(d)
    except REJECTED as e:
        return f"{type(e).__name__}: {e}"
    lines = [*result.render_lines(), result.signature(),
             f"periodic_rank {result.periodic_rank}"]
    for c in result.classes:
        lines += [f"class {c.id} modulus {c.modulus}",
                  "members " + " ".join(",".join(map(str, g))
                                        for g in c.members),
                  "gradings " + " ".join(str(c.gradings[g])
                                         for g in c.members),
                  "rows " + " ".join(map(str, boundary_matrix(d, c.members)))]
    return "\n".join(lines)


def answer_lines(corpus: Iterable[str]) -> list[str]:
    return [f"{_hash(text)}\t{_hash(dump(text))}" for text in corpus]


def _pinned() -> dict[str, str]:
    return dict(line.split("\t") for line in GOLDEN.read_text().splitlines())


def test_answers_match_the_golden():
    pinned = _pinned()
    corpus = texts()
    assert list(corpus) == list(pinned), "the corpus texts changed"
    for key, text in corpus.items():
        got = dump(text)
        assert _hash(got) == pinned[key], (
            f"first differing key {key}: pinned digest {pinned[key]}, "
            f"now {_hash(got)}; text:\n{text}\ndump now:\n{got}")


def test_answers_match_the_golden_also_under_optimize():
    # python -O strips asserts, so no answer may rest on one
    corpus = texts()
    proc = subprocess.run([sys.executable, "-O", __file__, "--stdin"],
                          input="\0".join(corpus.values()),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    optimized = proc.stdout.splitlines()
    pinned = GOLDEN.read_text().splitlines()
    for mine, want in zip(optimized, pinned):
        key = want.split("\t")[0]
        assert mine == want, (f"first differing line under -O: {mine}, "
                              f"pinned {want}; dump without -O:\n"
                              f"{dump(corpus[key])}")
    assert len(optimized) == len(pinned)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text("\n".join(answer_lines(texts().values())) + "\n")
    elif sys.argv[1:] == ["--stdin"]:
        print("\n".join(answer_lines(sys.stdin.read().split("\0"))))
    else:
        sys.exit(__doc__)
