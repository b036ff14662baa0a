"""The code-line counter: its rule for a code line and its count against a git revision.

The revision side runs on a throwaway git repository made in a temporary
directory, so the test needs nothing but a ``git`` executable.
"""

import importlib.util
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(ROOT, "tools", "code_lines.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_a_code_line_holds_a_token_that_is_no_comment_or_docstring():
    source = (
        '"""Module\ndoc."""\n\n# comment\nx = (1,\n     2)  # trailing\n\n\n'
        'def f():\n    """Doc."""\n    return x\n'
    )
    assert _code_lines().code_lines(source) == 4


def test_against_a_revision_prints_each_module_then_and_here(tmp_path, monkeypatch, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "kept.py").write_text('"""Doc."""\nx = 1\n')
    (pkg / "gone.py").write_text("y = 2\nz = 3\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "pkg")
    _git(tmp_path, "commit", "-q", "-m", "first")
    (pkg / "kept.py").write_text('"""Doc."""\nx = 1\n# note\nw = x + 1\nv = w\n')
    (pkg / "gone.py").unlink()
    (pkg / "added.py").write_text("u = 5\n")
    monkeypatch.chdir(tmp_path)
    assert _code_lines().main(["pkg", "--against", "HEAD"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "HEAD", "here", "delta"],
        ["added", "0", "1", "+1"],
        ["gone", "2", "0", "-2"],
        ["kept", "1", "3", "+2"],
        ["total", "3", "4", "+1"],
    ]


def test_an_unknown_revision_is_a_usage_error(tmp_path, monkeypatch):
    (tmp_path / "pkg").mkdir()
    _git(tmp_path, "init", "-q")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        _code_lines().main(["pkg", "--against", "no-such-rev"])
    assert exc.value.code == 2
