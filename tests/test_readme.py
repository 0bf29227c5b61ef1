"""Every `$ clique-census ...` example and every `pycon` session in
README.md prints what it shows."""

import doctest
import shlex
from pathlib import Path

import pytest

from clique_census.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) per example, in README order.

    An example's output is the lines after its command, up to a blank
    line, the next command or the end of the code block.
    """
    examples = []
    shown = None  # output lines of the example being read
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ clique-census "):
            shown = []
            argv = shlex.split(line[len("$ clique-census "):], comments=True)
            examples.append((argv, shown))
        elif line.startswith("```") or not line.strip():
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert {"count", "census", "generate", "check-subdivision", "check-minor",
            "sparse-check", "audit", "bounds"} <= commands


def test_readme_examples_match(capsys, tmp_path, monkeypatch):
    # one working directory for all, so `generate --output g.txt` feeds
    # the `count g.txt` that follows it
    monkeypatch.chdir(tmp_path)
    for argv, shown in EXAMPLES:
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        if "..." in shown:
            # "..." stands for the rest of the output
            shown = shown[: shown.index("...")]
            printed = printed[: len(shown)]
        assert printed == shown, argv


def readme_sessions() -> list[tuple[int, str]]:
    """(line number of the opening fence, text) per ```pycon block, in
    README order; the fences are not part of the text."""
    sessions = []
    text = None
    for line_no, line in enumerate(
            README.read_text(encoding="utf-8").splitlines(keepends=True), start=1):
        if text is None:
            if line.strip() == "```pycon":
                start, text = line_no, []
        elif line.startswith("```"):
            sessions.append((start, "".join(text)))
            text = None
        else:
            text.append(line)
    return sessions


SESSIONS = readme_sessions()


def test_readme_has_sessions():
    parser = doctest.DocTestParser()
    assert sum(len(parser.get_examples(text)) for _, text in SESSIONS) >= 7


@pytest.mark.parametrize("start, text", SESSIONS, ids=[f"line {s}" for s, _ in SESSIONS])
def test_readme_sessions_run(start, text):
    test = doctest.DocTestParser().get_doctest(text, {}, f"README.md:{start}",
                                               str(README), start)
    report = []
    runner = doctest.DocTestRunner()
    result = runner.run(test, out=report.append)
    assert result.failed == 0, "".join(report)
