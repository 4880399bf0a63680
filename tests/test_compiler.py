import ast
from pathlib import Path

import pytest

import gamescribe
import oracles
from conftest import CORPUS
from gamescribe.compiler import ForEachPiece, IfRule, MoveRule, build_board, compile_game
from gamescribe.registry import (ArityMismatch, BadArgumentKind, CompileError, UnknownLudeme,
                                 UnsupportedLudeme, default_registry)
from gamescribe.sexpr import Call, parse
from test_reference_playout import SMALL_GAMES, _spec

GAMES = ["Amazons", "Breakthrough", "Hex", "TicTacToe", *SMALL_GAMES]


def test_corpus_games_compile():
    for path in sorted(CORPUS.glob("*.lud")):
        spec = compile_game(parse(path.read_text()))
        assert spec.player_count == 2
        assert spec.rules


@pytest.mark.parametrize("name", GAMES)
def test_rule_ids_are_preorder_indices_of_rule_nodes(name):
    spec = _spec(name)
    nodes = oracles.preorder(spec.root)
    heads = {MoveRule: "move", ForEachPiece: "forEach", IfRule: "if"}
    for lid, rule in spec.rules.items():
        node = nodes[lid]
        assert rule.id == lid
        assert isinstance(node, Call) and node.head.name == heads[type(rule)], (lid, node)
        assert rule.span == node.span
    assert spec.rules[spec.play.id] is spec.play
    for rule in spec.end_rules:
        assert nodes[rule.end_id].head.name == "if"


@pytest.mark.parametrize("name", GAMES)
def test_move_ludeme_ids_match_a_scan_of_the_tree(name):
    spec = _spec(name)
    assert spec.move_ludeme_ids() == oracles.move_call_ids(spec)


@pytest.mark.parametrize("module", ["engine", "taxonomy", "english", "render", "manual"])
def test_only_the_compiler_reads_the_raw_tree(module):
    # Past the compiler, code reads the typed rules: no sexpr import, no spec.root.
    tree = ast.parse((Path(gamescribe.__file__).parent / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "sexpr", node.lineno
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert all(alias.name.split(".")[-1] != "sexpr" for alias in node.names), node.lineno
        assert not (isinstance(node, ast.Attribute) and node.attr == "root"), node.lineno


def test_square_board_geometry(tictactoe):
    board = tictactoe.board
    assert board.site_count == 9
    centre = board.site_by_label("B2")
    assert len(board.adjacent[centre]) == 8


def test_rectangle_labels_run_to_j(amazons):
    board = amazons.board
    assert board.site_count == 100
    assert board.site_by_label("J4") is not None
    assert board.site_by_label("K1") is None
    assert board.labels[0] == "A1"


def test_hex_diamond_geometry(hexgame):
    board = hexgame.board
    assert board.site_count == 121
    interior = board.site_by_label("F6")
    assert len(board.adjacent[interior]) == 6
    corner = board.site_by_label("A1")
    assert len(board.adjacent[corner]) == 2
    assert len(board.sides["NE"]) == 11
    assert set(board.sides) == {"NE", "NW", "SE", "SW"}


def test_each_expands_per_player(hexgame):
    names = {p.name for p in hexgame.pieces}
    assert names == {"Marker1", "Marker2"}
    assert [p.base for p in hexgame.pieces if p.owner == 1] == ["Marker"]


def test_neutral_piece_gets_zero_suffix(amazons):
    names = {p.name: p.owner for p in amazons.pieces}
    assert names == {"Queen1": 1, "Queen2": 2, "Dot0": 0}


def test_amazons_start_placements(amazons):
    assert len(amazons.start_placements) == 2
    assert all(len(p.sites) == 4 for p in amazons.start_placements)
    first = amazons.start_placements[0]
    assert first.piece_name == "Queen1"
    assert [amazons.board.labels[s] for s in first.sites] == ["A4", "D1", "G1", "J4"]


def test_hex_regions(hexgame):
    assert len(hexgame.regions) == 2
    p1 = next(r for r in hexgame.regions if r.owner == 1)
    kinds = {ss.kind for ss in p1.site_sets}
    assert kinds == {("Side", "NE"), ("Side", "SW")}
    assert all(len(ss.sites) == 11 for ss in p1.site_sets)


def test_move_ludeme_ids(amazons, tictactoe):
    assert len(amazons.move_ludeme_ids()) == 2
    assert len(tictactoe.move_ludeme_ids()) == 1


def test_unknown_ludeme_reports_span():
    source = ('(game "T" (players 2) (equipment {(board (square 3))}) '
              '(rules (play (move Add (to (sites Empty)) (zorp))) '
              '(end (if (is Line 3) (result Mover Win)))))')
    with pytest.raises(UnknownLudeme) as exc:
        compile_game(parse(source))
    start, end = exc.value.span
    assert source[start:end] == "zorp"


def test_recognised_unsupported_ludeme():
    registry = default_registry()
    with pytest.raises(UnsupportedLudeme):
        registry.check_call(parse("(dice 6)"))
    with pytest.raises(UnknownLudeme):
        registry.descriptor("definitely-not-a-ludeme")


def test_arity_errors():
    source = ('(game "T" (players 2) (equipment {(board (square 3))}) '
              '(rules (play (move Add (to (sites Empty)))) '
              '(end (if (is Line 3) (result Mover Win) extra junk))))')
    with pytest.raises(ArityMismatch):
        compile_game(parse(source))


# (text replaced, replacement, where the error points, error type, message)
@pytest.mark.parametrize("old,new,culprit,error,message", [
    ("(if (is Line 3) (result Mover Win))", "(if (is Line 3))", "(if (is Line 3))",
     ArityMismatch, "'if' is missing an argument"),
    ("(players 2)", "(players Two)", "Two", BadArgumentKind,
     "'players' expects a number, got symbol"),
    ("(board (square 3))", "(board)", "(board)", ArityMismatch,
     "'board' is missing a shape ludeme"),
    ("(is Line 3)", "(is Lin 3)", "Lin", BadArgumentKind,
     "'is' expects a symbol in {Line, Connected, Even, In}, got Lin"),
    ("(play (move Add (to (sites Empty))))", "(play (end (if (is Line 3) (result Mover Win))))",
     "(end", BadArgumentKind, "'play' expects a move/control ludeme, got (end ...)"),
])
def test_slot_errors_name_the_slot(old, new, culprit, error, message):
    source = ('(game "T" (players 2) (equipment {(board (square 3))}) '
              '(rules (play (move Add (to (sites Empty)))) '
              '(end (if (is Line 3) (result Mover Win)))))').replace(old, new)
    with pytest.raises(error) as exc:
        compile_game(parse(source))
    assert exc.value.message == message
    assert exc.value.span[0] == source.index(culprit)


ORDER_BASE = ('(game "T" (players 2) (equipment {(board (square 3)) (piece "Disc" Each)}) '
              '(rules (play (move Add (to (sites Empty)))) '
              '(end (if (is Line 3) (result Mover Win)))))')


# (replacements, error type, message, offset): the first fault in source order
# is reported, and a call with an unknown or unsupported head is reported as
# such wherever it sits, inside a {...} argument too.  A lone fault is
# reported at its own offset, for each check of the compiler and registry.
@pytest.mark.parametrize("edits,error,message,offset", [
    ({"(move Add": "(mov Add", "(is Line": "(is Lin"}, UnknownLudeme,
     "unknown ludeme 'mov'", 89),
    ({"(move Add": "(mov Add"}, UnknownLudeme, "unknown ludeme 'mov'", 89),
    ({"(is Line": "(is Lin", "Mover Win": "Mover Winn"}, BadArgumentKind,
     "'is' expects a symbol in {Line, Connected, Even, In}, got Lin", 132),
    ({"(is Line 3)": "(or (is Line 3) (zorp))", "Mover Win": "Mover Winn"}, UnknownLudeme,
     "unknown ludeme 'zorp'", 145),
    ({"(is Line 3)": "(or (is Line 3) (set))"}, UnsupportedLudeme,
     "ludeme 'set' is outside the supported subset", 145),
    ({"(board": "(bord", '"Disc" Each': '"Disc" Eac'}, UnknownLudeme,
     "unknown ludeme 'bord'", 35),
    ({"(players 2)": "(players 0)"}, BadArgumentKind, "player count must be at least 1", 10),
    ({"(board (square 3)) ": ""}, CompileError, "equipment has no board", 22),
    ({'"Disc" Each)': '"Disc" Each) (regions P3 (sites Side N))'}, BadArgumentKind,
     "region owner P3 exceeds player count", 82),
    ({'"Disc" Each)': '"Disc" Each) (regions P1 (sites Side NE))'}, BadArgumentKind,
     "board has no 'NE' side", 85),
    ({"(rules (play": '(rules (start (place "Ring" {"A1"})) (play'}, BadArgumentKind,
     "placement of undeclared piece 'Ring'", 96),
    ({"(result Mover Win)": "(move Add (to (sites Empty)))"}, BadArgumentKind,
     "end rule branch must be a (result ...) ludeme", 140),
    ({"(players 2)": "(players 2 (zorp))"}, UnknownLudeme, "unknown ludeme 'zorp'", 22),
    ({"(players 2)": "(players 2 (square 3))"}, ArityMismatch,
     "'players' has 1 extra argument(s)", 21),
])
def test_the_first_fault_in_source_order_is_reported(edits, error, message, offset):
    source = ORDER_BASE
    for old, new in edits.items():
        source = source.replace(old, new)
    with pytest.raises(CompileError) as exc:
        compile_game(parse(source))
    assert (type(exc.value), exc.value.message, exc.value.span[0]) == (error, message, offset)


def test_top_level_form_must_be_a_game():
    with pytest.raises(CompileError) as exc:
        compile_game(parse("(players 2)"))
    assert (type(exc.value), exc.value.message, exc.value.span[0]) == \
        (CompileError, "top-level form must be (game ...)", 0)


def test_the_registry_admits_three_board_shapes():
    # build_board builds each of them; a (board ...) of any other shape fails in the registry.
    shapes = {d.name for d in default_registry().descriptors.values() if d.category == "shape"}
    assert shapes == {"square", "rectangle", "hex"}
    source = ORDER_BASE.replace("(square 3)", "(circle 3)")
    with pytest.raises(UnknownLudeme):
        compile_game(parse(source))


def test_piece_without_owner_rejected():
    source = ('(game "T" (players 2) '
              '(equipment {(board (square 3)) (piece "Disc")}) '
              '(rules (play (move Add (to (sites Empty)))) '
              '(end (if (is Line 3) (result Mover Win)))))')
    with pytest.raises(ArityMismatch):
        compile_game(parse(source))


def test_owner_beyond_player_count_rejected():
    source = ('(game "T" (players 2) '
              '(equipment {(board (square 3)) (piece "Disc" P3)}) '
              '(rules (play (move Add (to (sites Empty)))) '
              '(end (if (is Line 3) (result Mover Win)))))')
    with pytest.raises(BadArgumentKind):
        compile_game(parse(source))


def test_start_conflict_rejected():
    source = ('(game "T" (players 2) '
              '(equipment {(board (square 3)) (piece "Disc" P1) (piece "Cross" P2)}) '
              '(rules (start {(place "Disc" {"A1"}) (place "Cross" {"A1"})}) '
              '(play (move Add (to (sites Empty)))) '
              '(end (if (is Line 3) (result Mover Win)))))')
    with pytest.raises(CompileError):
        compile_game(parse(source))


def test_placement_label_must_exist():
    source = ('(game "T" (players 2) '
              '(equipment {(board (square 3)) (piece "Disc" P1)}) '
              '(rules (start (place "Disc" {"Z9"})) '
              '(play (move Add (to (sites Empty)))) '
              '(end (if (is Line 3) (result Mover Win)))))')
    with pytest.raises(BadArgumentKind):
        compile_game(parse(source))


def test_condition_one_player_can_meet_compiles():
    # Only P1 has regions; P2 can never win by them, but P1 can, so the game stands.
    spec = compile_game(parse(
        '(game "Lopsided" (players 2) (equipment {(board (square 3)) (piece "Disc" Each) '
        '(regions P1 {(sites Side S) (sites Side N)})}) '
        '(rules (play (move Add (to (sites Empty)))) '
        '(end {(if (is Connected Mover) (result Mover Win)) '
        '(if (is In Mover) (result Mover Loss))})))'))
    assert [len(a) for a in spec.anchors.of_player] == [0, 2, 0]
    assert not spec.end_rules[1].cond.sites[2]


@pytest.mark.parametrize("shape", ["(square 1)", "(square 5)", "(rectangle 4 2)",
                                   "(rectangle 2 6)", "(hex Diamond 2)", "(hex Diamond 7)"])
def test_longest_line_is_the_longer_side(shape):
    # (is Line n) is checked against max(rows, cols); scan every line for the longest.
    def source(n):
        return (f'(game "T" (players 2) (equipment {{(board {shape}) (piece "Disc" Each)}}) '
                f'(rules (play (move Add (to (sites Empty)))) '
                f'(end (if (is Line {n}) (result Mover Win)))))')

    board = build_board(parse(f"(board {shape})"))
    longest = max(1 + len(board.rays[site][board.vectors.index(axis)])
                  for site in range(board.site_count) for axis in board.line_axes)
    assert longest == max(board.rows, board.cols)
    if longest >= 2:
        assert compile_game(parse(source(longest))).end_rules[0].cond.length == longest
    with pytest.raises(BadArgumentKind, match="longest line"):
        compile_game(parse(source(longest + 1)))
