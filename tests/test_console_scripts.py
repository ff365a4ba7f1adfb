"""Every console script in ``pyproject.toml`` names a ``main`` that
imports and answers ``--help`` — so a stale entry fails here rather
than at install time.

The table is read with a plain line parse, not ``tomllib``, which
Python 3.9 lacks.
"""
import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def console_scripts():
    scripts, in_table = {}, False
    for line in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line and not line.startswith("#"):
            name, target = (part.strip() for part in line.split("=", 1))
            scripts[name] = target.strip('"')
    return scripts


def test_table_is_found():
    assert "stampede-statistics" in console_scripts()


@pytest.mark.parametrize("name,target", sorted(console_scripts().items()))
def test_entry_imports_and_answers_help(name, target, capsys):
    module, _, attr = target.partition(":")
    main = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0, name
    assert "usage:" in capsys.readouterr().out
