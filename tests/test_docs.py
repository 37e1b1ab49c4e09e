"""README code stays runnable."""

import pathlib
import re
import shlex

from lightcone import cli

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


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines()
             if line.startswith("lightcone ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv
        out, err = capsys.readouterr()
        assert err == "", argv
        # a report written with --out leaves stdout empty
        if "--out" in argv:
            out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
        assert out.strip(), argv
