"""The README's library quickstart runs and prints what its comments say.

Each print line's trailing `# ...` comment is its expected output, up to
the first ": " (the rest is prose).  A print line with no comment of its
own is followed by `#` lines that together hold its output, joined by a
space.
"""

import contextlib
import io
import itertools
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart():
    """The README's python block and the output its comments promise, one entry per print."""
    code = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, hash_, comment = line.partition("#")
        if hash_:
            expected.append(comment.strip().split(": ", 1)[0])
        else:
            following = itertools.takewhile(lambda l: l.startswith("#"), lines[i + 1 :])
            expected.append(" ".join(l[1:].strip() for l in following))
    return code, expected


def test_readme_quickstart_prints_its_comments():
    code, expected = quickstart()
    assert len(expected) == 5
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
