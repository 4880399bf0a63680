import pytest

import goldens
from gamescribe.compiler import compile_game
from gamescribe.sexpr import parse
from gamescribe.strategy import (HeuristicEntry, HeuristicsError, UnknownPieceName,
                                 explain_heuristics, importance_bucket, parse_heuristics)


@pytest.fixture(scope="module")
def chess_like():
    pieces = " ".join(f'(piece "{n}" Each (move Step (directions Adjacent)))'
                      for n in ("Pawn", "Rook", "Bishop", "Knight", "Queen"))
    source = (f'(game "Court" (players 2) '
              f'(equipment {{(board (square 8)) {pieces}}}) '
              f'(rules (start (place "Pawn1" {{"A1"}})) '
              f'(play (forEach Piece)) '
              f'(end (if (no Moves Next) (result Mover Win)))))')
    return compile_game(parse(source))


@pytest.mark.parametrize("weight,label", [
    (0.0, "very low importance"),
    (0.19, "very low importance"),
    (0.2, "low importance"),
    (0.39, "low importance"),
    (0.4, "moderate importance"),
    (0.59, "moderate importance"),
    (0.6, "high importance"),
    (0.79, "high importance"),
    (0.8, "very high importance"),
    (3.5, "very high importance"),
    (-0.5, "moderate importance"),  # magnitude decides the bucket
])
def test_importance_buckets(weight, label):
    assert importance_bucket(weight) == label


def test_non_finite_weight_rejected():
    with pytest.raises(HeuristicsError):
        importance_bucket(float("nan"))


def test_parse_heuristics_forms():
    entries = parse_heuristics(
        '(heuristics { (material "Pawn" 0.1) (mobility 0.3) (lineCompletion 3 0.5) })')
    assert entries == [
        HeuristicEntry("Material", 0.1, piece="Pawn"),
        HeuristicEntry("Mobility", 0.3),
        HeuristicEntry("LineCompletion", 0.5, target_length=3),
    ]


def test_parse_rejects_unknown_kind():
    with pytest.raises(HeuristicsError):
        parse_heuristics("(heuristics {(tempo 0.5)})")
    with pytest.raises(HeuristicsError):
        parse_heuristics("(material 0.5)")


def test_unparsable_document_is_a_heuristics_error_at_its_offset():
    with pytest.raises(HeuristicsError, match=r"^unclosed '\{' \(at offset 12\)$"):
        parse_heuristics('(heuristics {(material "Disc" 0.9)')


def test_material_golden_lines(chess_like):
    text = "(heuristics {" + " ".join(
        f'(material "{name}" {weight})'
        for name, weight in [("Pawn", "0.1"), ("Rook", "0.5"), ("Bishop", "0.3"),
                             ("Knight", "0.25"), ("Queen", "1.0")]) + "})"
    lines = explain_heuristics(parse_heuristics(text), chess_like)
    assert lines == goldens.STRATEGY_LINES


def test_negative_weight_says_minimise(chess_like):
    lines = explain_heuristics(
        parse_heuristics('(heuristics {(material "Pawn" -0.9)})'), chess_like)
    assert lines == ["Try to minimise the number of Pawn(s) you control "
                     "(very high importance)"]


def test_mobility_and_line_completion(chess_like):
    lines = explain_heuristics(
        parse_heuristics("(heuristics {(mobility 0.3) (lineCompletion 3 -0.5)})"),
        chess_like)
    assert lines[0] == ("Try to maximise the number of moves available to you "
                        "(low importance)")
    assert lines[1] == ("Try to avoid completing lines of 3 of your pieces "
                        "(moderate importance)")


def test_zero_weight_entries_are_skipped(chess_like):
    lines = explain_heuristics(
        parse_heuristics('(heuristics {(material "Pawn" 0) (mobility 0.3)})'),
        chess_like)
    assert len(lines) == 1 and "moves available" in lines[0]


def test_unknown_piece_name_rejected(chess_like):
    with pytest.raises(UnknownPieceName, match="names no piece of the game 'Court'"):
        explain_heuristics(
            parse_heuristics('(heuristics {(material "Dragon" 0.5)})'), chess_like)
