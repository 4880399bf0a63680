from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from gamescribe.compiler import compile_game
from gamescribe.sexpr import parse

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"


@pytest.fixture(autouse=True)
def no_child_left():
    """A test may start processes (``generate`` forks for several games), but it
    must leave none behind, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def normalise(text: str) -> str:
    """Collapse runs of spaces and trim line ends; drop trailing blank lines."""
    lines = [re.sub(r"[ \t]+", " ", line).rstrip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def load_spec(name: str):
    return compile_game(parse((CORPUS / f"{name}.lud").read_text()))


@pytest.fixture(scope="session")
def tictactoe():
    return load_spec("TicTacToe")


@pytest.fixture(scope="session")
def hexgame():
    return load_spec("Hex")


@pytest.fixture(scope="session")
def amazons():
    return load_spec("Amazons")


@pytest.fixture(scope="session")
def breakthrough():
    return load_spec("Breakthrough")
