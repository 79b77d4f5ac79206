"""Shared by the tests: the CLI in this process or a child interpreter, and
edited copies of the bundled data."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hwrbench
from hwrbench.cli import main
from hwrbench.games import data_path

SRC = str(Path(hwrbench.__file__).parents[1])


def run_python(*args, env=(), **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports hwrbench from ``SRC``,
    with ``env`` added to the environment. Output is captured unless ``kwargs``
    say where it goes; the rest of ``kwargs`` go to ``subprocess.run``."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC,
                                                        **dict(env)}, timeout=60, **kwargs)


def run_cli(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m hwrbench.cli *argv`` in a fresh interpreter, as ``run_python``."""
    return run_python("-m", "hwrbench.cli", *argv, **kwargs)


def decoded(result: subprocess.CompletedProcess) -> tuple[int, str, str]:
    """A child's (exit code, stdout, stderr), decoded as ``run_main`` returns them."""
    return result.returncode, result.stdout.decode(), result.stderr.decode()


def run_main(*argv) -> tuple[int, str, str]:
    """``main(argv)`` in this process, the twin of ``run_cli``: (exit code,
    stdout, stderr). Help and usage errors exit through ``SystemExit``, whose
    code is the exit code."""
    with (contextlib.redirect_stdout(io.StringIO()) as out,
          contextlib.redirect_stderr(io.StringIO()) as err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def data_error(outcome) -> dict:
    """The error JSON of a run that failed on its data: exit 1, no stdout, one stderr line."""
    code, out, err = outcome
    assert (code, out, err.count("\n")) == (1, "", 1), err
    return json.loads(err)


def set_cell(lines, lineno, column, value: bytes) -> int:
    """Set cell ``column`` of file line ``lineno`` to ``value``; returns where the
    cell starts in the line. ``lines`` are a file's bytes split with their ends."""
    header = lines[0].rstrip(b"\r\n").split(b",")
    body = lines[lineno - 1].rstrip(b"\r\n")
    cells = body.split(b",")
    i = header.index(column.encode())
    cells[i] = value
    lines[lineno - 1] = b",".join(cells) + lines[lineno - 1][len(body):]
    return len(b",".join(cells[:i] + [b""]))


def cell(lineno, column, value: str):
    """An edit for ``bundled_copy`` that sets one cell, as ``set_cell``."""
    return lambda lines: set_cell(lines, lineno, column, value.encode())


def bundled_copy(tmp_path, name, edit=None):
    """The bundled data file ``name`` (such as ``golden/printed_cells.csv``)
    copied into ``tmp_path`` under its own file name, after ``edit``, if any,
    has changed its lines (bytes, each with its line end) in place. Returns
    the copy's path and what ``edit`` returned."""
    lines = data_path(*name.split("/")).read_bytes().splitlines(keepends=True)
    result = edit(lines) if edit else None
    path = tmp_path / name.rpartition("/")[2]
    path.write_bytes(b"".join(lines))
    return path, result


def raises(error, message):
    """``pytest.raises`` for an ``error`` whose text is exactly ``message``."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")
