"""Compile board-game descriptions and generate illustrated manuals.

The engine's names load the engine on first access (PEP 562), so importing
the package, as ``gamescribe translate`` does, leaves it unloaded.
"""

from .compiler import GameSpec, compile_game
from .english import translate_game
from .sexpr import parse, print_canonical

__all__ = [
    "GameSpec", "GameState", "Move", "PlayoutTrace",
    "compile_game", "parse", "print_canonical",
    "initial_state", "legal_moves", "apply_move", "random_playout",
    "translate_game",
]

_ENGINE_NAMES = frozenset({"GameState", "Move", "PlayoutTrace",
                           "initial_state", "legal_moves", "apply_move", "random_playout"})


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from . import engine
        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
