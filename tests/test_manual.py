import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from gamescribe.manual import (NO_STRATEGY_PLACEHOLDER, SECTIONS, MissingAsset, build_manual,
                               check_assets)
from gamescribe.pipeline import generate, load_playable, play


def _leaf(i, mover=None, piece="Disc", rule="Add a piece.", actions=("Add",)):
    return {
        "id": f"sig{i}", "mover": mover, "piece": piece, "origin_ludeme": 10 + i,
        "action_types": list(actions), "rule_text": rule,
        "exemplar": {"seed": 0, "move_index": i},
        "before": f"svg/move_{i}_before.svg", "after": f"svg/move_{i}_after.svg",
    }


def _ending(i):
    return {"text": "Someone wins.", "result": {"outcome": "Win", "players": [1],
            "end_ludeme": 40},
            "winning_sites": None, "exemplar_seed": i,
            "before": f"svg/end_{i}_before.svg", "after": f"svg/end_{i}_after.svg"}


@pytest.fixture
def built(tictactoe):
    moves = [_leaf(0, piece="Disc"), _leaf(1, piece="Cross")]
    html, manifest = build_manual(tictactoe, "Rules text.", ["Tip one"],
                                  "svg/setup.svg", [_ending(0)], moves)
    return html, manifest


def _strip_doctype(html: str) -> str:
    lines = html.splitlines()
    return "\n".join(l for l in lines if not l.startswith("<!DOCTYPE"))


def test_html_is_well_formed_xml(built):
    html, _ = built
    root = ET.fromstring(_strip_doctype(html))
    assert root.tag.endswith("html")


def test_sections_in_fixed_order(built):
    html, manifest = built
    assert manifest["sections"] == ["Rules", "Heuristics", "Setup", "Endings", "Moves"]
    assert manifest["sections"] == SECTIONS
    positions = [html.index(f"<h2>{s}</h2>") for s in SECTIONS]
    assert positions == sorted(positions)


def test_manifest_mirrors_inputs(built):
    _, manifest = built
    assert manifest["game"] == "Tic-Tac-Toe"
    assert manifest["rules"] == "Rules text."
    assert manifest["heuristics"] == {"lines": ["Tip one"], "placeholder": False}
    assert len(manifest["moves"]["leaves"]) == 2
    assert len(manifest["endings"]) == 1


def test_placeholder_when_no_strategy(tictactoe):
    html, manifest = build_manual(tictactoe, "r", None, "svg/setup.svg", [], [])
    assert manifest["heuristics"]["placeholder"] is True
    assert manifest["heuristics"]["lines"] == [NO_STRATEGY_PLACEHOLDER]
    assert NO_STRATEGY_PLACEHOLDER in html
    _, manifest2 = build_manual(tictactoe, "r", [], "svg/setup.svg", [], [])
    assert manifest2["heuristics"]["placeholder"] is True


def test_single_child_levels_collapse_in_html(tictactoe):
    moves = [_leaf(0), _leaf(1)]  # one mover group, one piece group per rule
    html, manifest = build_manual(tictactoe, "r", None, "svg/setup.svg", [], moves)
    assert "<h3>" not in html  # single mover level: heading omitted
    # JSON keeps the full hierarchy regardless.
    tree = manifest["moves"]["tree"]
    assert list(tree) == ["All players"]
    assert "Disc" in tree["All players"]

    two_movers = [_leaf(0, mover=1), _leaf(1, mover=2)]
    html2, _ = build_manual(tictactoe, "r", None, "svg/setup.svg", [], two_movers)
    assert html2.count("<h3>") == 2


def test_moves_tree_indexes_leaves(built):
    _, manifest = built
    tree = manifest["moves"]["tree"]
    leaves = manifest["moves"]["leaves"]
    indices = set()
    def collect(node):
        if isinstance(node, int):
            indices.add(node)
        else:
            for v in node.values():
                collect(v)
    collect(tree)
    assert indices == set(range(len(leaves)))


def test_no_absolute_asset_paths(built):
    _, manifest = built
    refs = [manifest["setup"]["image"]]
    refs += [e[k] for e in manifest["endings"] for k in ("before", "after")]
    refs += [m[k] for m in manifest["moves"]["leaves"] for k in ("before", "after")]
    assert all(not Path(r).is_absolute() and r.startswith("svg/") for r in refs)


def test_build_is_deterministic(tictactoe):
    args = ("Rules.", ["Tip"], "svg/setup.svg", [_ending(0)], [_leaf(0)])
    assert build_manual(tictactoe, *args) == build_manual(tictactoe, *args)


def test_check_assets(built):
    _, manifest = built
    names = ["setup.svg"]
    names += [f"move_{i}_{w}.svg" for i in range(2) for w in ("before", "after")]
    names += ["end_0_before.svg", "end_0_after.svg"]
    files = {f"svg/{name}": "<svg/>" for name in names}
    check_assets(manifest, files)  # no exception
    for name in names:
        with pytest.raises(MissingAsset, match=f"'svg/{name}'"):
            check_assets(manifest, {path: svg for path, svg in files.items()
                                    if path != f"svg/{name}"})


def test_moves_tree_keeps_origins_that_share_a_text(tmp_path):
    # Both branches translate to the same sentence; with three players each
    # mover plays both, so there are six leaves under three movers.
    game = tmp_path / "twin.lud"
    game.write_text('(game "Twin" (players 3) (equipment {(board (square 3)) (piece "Disc" Each)}) '
                    '(rules (play (if (is Even (count Moves)) (move Add (to (sites Empty))) '
                    '(move Add (to (sites Empty))))) (end (if (is Line 3) (result Mover Win)))))')
    spec = load_playable(game)
    files = generate(spec, play(spec, 0, 20)[0], strategy_lines=None, similar=True)
    manifest = json.loads(files["manual.json"])
    indices = []

    def collect(node):
        if isinstance(node, int):
            indices.append(node)
        else:
            for v in node.values():
                collect(v)

    collect(manifest["moves"]["tree"])
    leaves = manifest["moves"]["leaves"]
    assert len(leaves) == 6
    assert sorted(indices) == list(range(6))
    html = files["manual.html"]
    assert html.count('<div class="leaf">') == 6
    # The HTML Moves section lists the leaves in the tree's depth-first order.
    moves_html = html[html.index("<h2>Moves</h2>"):]
    shown = re.findall(r'<img src="([^"]+)" alt="before"/>', moves_html)
    assert shown == [leaves[i]["before"] for i in indices]
