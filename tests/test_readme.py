"""The README's examples run as written: the library quick start prints what
its comments say, and every ``$ implicitseries ...`` line succeeds, with the
output shown under it where the README shows one."""

import re
import shlex
from itertools import takewhile
from pathlib import Path

from implicitseries import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def test_quick_start_prints_what_its_comments_say(capsys):
    (code,) = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    # each print(...) line ends in "# <what it prints>"
    want = [
        line.split("# ", 1)[1]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    exec(compile(code, "README.md", "exec"), {})
    assert want and capsys.readouterr().out.splitlines() == want


def _command_examples():
    """``(argv, shown)`` for each ``$ implicitseries`` line: its arguments
    and the output lines the README prints under it, if any."""
    lines = README.splitlines()
    examples = []
    for k, line in enumerate(lines):
        if line.startswith("$ implicitseries "):
            shown = takewhile(lambda s: s and s[0] not in "$`", lines[k + 1 :])
            examples.append((shlex.split(line)[2:], list(shown)))
    return examples


def test_command_line_examples_run(capsys):
    examples = _command_examples()
    assert len(examples) == 7
    # the first example shows its output, the Catalan numbers through order 6
    assert examples[0][1] == ["0: 0", "1: 1", "2: 1", "3: 2", "4: 5", "5: 14", "6: 42"]
    for argv, shown in examples:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv
        if shown:
            assert captured.out.splitlines() == shown, argv
