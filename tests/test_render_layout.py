"""One ``render._Layout`` per game: its cells, numbers and glyphs are drawn once
and change no image."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, load_spec
from gamescribe import render
from gamescribe.engine import apply_move, initial_state, random_playout
from gamescribe.pipeline import generate, play
from gamescribe.render import _Layout, render_board


def test_generate_draws_each_cell_once(monkeypatch, hexgame):
    drawn = []
    cell_element = render._cell_element

    def counted(layout, site):
        drawn.append(site)
        return cell_element(layout, site)

    monkeypatch.setattr(render, "_cell_element", counted)
    files = generate(hexgame, play(hexgame, 0, 20)[0], strategy_lines=None, similar=True)
    # A setup image, a before/after pair per move signature and per ending.
    assert len([path for path in files if path.startswith("svg/")]) >= 5
    assert len(drawn) == hexgame.board.site_count


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.lud")))
def test_shared_layout_renders_the_same_boards(name):
    spec = load_spec(name)
    layout = _Layout(spec)
    state = initial_state(spec)
    for move in random_playout(spec, 0).moves:
        for marked, winning in (((), ()), ([move], (move.to_site,))):
            assert (render_board(spec, state, marked, winning, layout)
                    == render_board(spec, state, marked, winning))
        state = apply_move(state, move, spec, validate=False)
    assert render_board(spec, state, layout=layout) == render_board(spec, state)


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.lud")))
def test_a_game_formats_each_number_and_draws_each_glyph_once(name, monkeypatch):
    """Patched before ``generate`` builds its layout, the formatter sees each number
    once, and each ``(piece, site)`` in the game's images has its glyph drawn once."""
    spec = load_spec(name)
    numbers, built = [], {}  # built: glyph text -> the (piece, site) keys it was drawn for
    fmt, glyph = render._fmt, render._glyph

    def counted_fmt(x):
        numbers.append(x)
        return fmt(x)

    def counted_glyph(spec, layout, name, site):
        text = glyph(spec, layout, name, site)
        built.setdefault(text, []).append((name, site))
        return text

    monkeypatch.setattr(render, "_fmt", counted_fmt)
    monkeypatch.setattr(render, "_glyph", counted_glyph)
    files = generate(spec, play(spec, 0, 20)[0], strategy_lines=None, similar=True)
    assert numbers and len(numbers) == len(set(numbers))
    keys = [key for drawn_for in built.values() for key in drawn_for]
    assert len(keys) == len(set(keys))
    in_images = {g for path, text in files.items() if path.endswith(".svg")
                 for g in re.findall(r'<g class="glyph".*?</g>', text)}
    assert in_images == set(built)


# Run in a fresh process, so that no earlier call has filled a cache: the
# length of every mutable container, or functools cache, held by the three
# modules or by their classes, before and after two calls of generate.
FRESH_PROCESS = """
import sys
from gamescribe import engine, pipeline, render
spec = pipeline.load_playable(sys.argv[1])

def sizes():
    found = {}
    for module in (engine, pipeline, render):
        owners = [module, *(v for v in vars(module).values()
                            if isinstance(v, type) and v.__module__ == module.__name__)]
        for owner in owners:
            for name, value in vars(owner).items():
                key = f"{module.__name__}.{getattr(owner, '__qualname__', '')}.{name}"
                if hasattr(value, "cache_info"):
                    found[key] = value.cache_info().currsize
                elif isinstance(value, (dict, list, set, bytearray)):
                    found[key] = len(value)
    return found

before = sizes()
for seed in (0, 1):
    pipeline.generate(spec, pipeline.play(spec, seed, 20)[0], None, similar=True)
after = sizes()
assert after.keys() == before.keys(), after.keys() ^ before.keys()
grown = {key: (before[key], after[key]) for key in before if after[key] > before[key]}
assert not grown, grown
print(len(before))
"""


def test_generate_keeps_no_cache_at_module_level():
    """Two ``generate`` calls in one process leave every module-level container of
    ``engine``, ``pipeline`` and ``render`` no larger: each cache lives on its layout."""
    src = str(Path(render.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS, str(CORPUS / "Hex.lud")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0
