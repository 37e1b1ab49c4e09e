"""README code stays runnable."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs(capsys):
    text = README.read_text()
    section = text.split("## Library in five lines", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    # the snippet prints the invariants, then a Willmore residual that
    # sits at rounding level on the torus
    assert float(printed[1]) < 1e-12


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
