"""One ``render._Layout`` per game: its cells are drawn once and change no image."""

import pytest

from conftest import CORPUS, load_spec
from gamescribe import render
from gamescribe.engine import apply_move, initial_state, random_playout
from gamescribe.pipeline import generate
from gamescribe.render import _Layout, render_board


def test_generate_draws_each_cell_once(tmp_path, monkeypatch, hexgame):
    drawn = []
    cell_element = render._cell_element

    def counted(layout, site):
        drawn.append(site)
        return cell_element(layout, site)

    monkeypatch.setattr(render, "_cell_element", counted)
    generate(hexgame, seed=0, playouts=20, out_dir=tmp_path, strategy_lines=None,
             similar=True, dump_json=False)
    # A setup image, a before/after pair per move signature and per ending.
    assert len(list((tmp_path / "Hex" / "svg").glob("*.svg"))) >= 5
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
