import pytest

import goldens
from conftest import normalise
from gamescribe import english
from gamescribe.compiler import compile_game
from gamescribe.english import (MissingTemplate, join_list, number_word, plural, translate_game,
                                translate_node)
from gamescribe.sexpr import parse


def test_tictactoe_golden(tictactoe):
    assert normalise(translate_game(tictactoe)) == normalise(goldens.TICTACTOE)


def test_hex_golden(hexgame):
    assert normalise(translate_game(hexgame)) == normalise(goldens.HEX)


def test_amazons_golden(amazons):
    assert normalise(translate_game(amazons)) == normalise(goldens.AMAZONS)


def test_breakthrough_translates_cleanly(breakthrough):
    text = translate_game(breakthrough)
    assert 'The game "Breakthrough" is played by two players on a 8x8 rectangle ' \
           "board with square tiling." in text
    assert "All players play with Pawns." in text
    assert "step to an empty or enemy-occupied cell in the forward, " \
           "forward-left or forward-right direction" in text
    assert "If the moving player reaches their target region, the moving player wins." in text


def test_translation_is_deterministic(amazons):
    assert translate_game(amazons) == translate_game(amazons)


def test_no_untranslated_fragments_leak(tictactoe, hexgame, amazons, breakthrough):
    for spec in (tictactoe, hexgame, amazons, breakthrough):
        for line in translate_game(spec).splitlines():
            assert "(" not in line.replace("(s)", ""), line


def test_join_list():
    assert join_list([]) == ""
    assert join_list(["a"]) == "a"
    assert join_list(["a", "b"]) == "a and b"
    assert join_list(["a", "b", "c"]) == "a, b and c"


def test_number_word_and_plural():
    assert number_word(2) == "two"
    assert number_word(40) == "40"
    assert plural("Queen") == "Queens"
    assert plural("Cross") == "Crosses"


def test_translate_single_ludemes(tictactoe, amazons):
    assert translate_node(tictactoe, tictactoe.play.id) == \
        "Add one of your pieces to the set of empty cells."
    rule = tictactoe.end_rules[0]
    assert translate_node(tictactoe, rule.end_id) == \
        ("If a player places 3 of their pieces in an adjacent direction line, "
         "the moving player wins.")
    slide_id, shoot_id = amazons.move_ludeme_ids()
    assert translate_node(amazons, slide_id) == \
        ("Slide one of your pieces from the location of the piece in the adjacent "
         "direction through the set of empty cells then move again.")
    assert translate_node(amazons, shoot_id) == "Shoot the piece Dot0."


def test_direction_named_twice_is_named_once():
    spec = compile_game(parse(
        '(game "Echo" (players 2) (equipment {(board (square 4)) '
        '(piece "Pawn" Each (move Step (directions {Forward Forward Adjacent})))}) '
        '(rules (start (place "Pawn1" {"A1"})) (play (forEach Piece)) '
        '(end (if (is Line 3) (result Mover Win)))))'))
    step_id, = spec.move_ludeme_ids()
    assert translate_node(spec, step_id) == \
        "Step one of your pieces to an empty or enemy-occupied cell in the forward or " \
        "adjacent direction."


def test_swap_translates_to_nothing(hexgame):
    # The pie rule is accepted but contributes no manual sentence.
    assert "swap" not in translate_game(hexgame).lower()


def _phrase(condition):
    """The phrase of ``condition`` compiled as the end condition of a 3x3 game."""
    spec = compile_game(parse(
        '(game "T" (players 2) (equipment {(board (square 3)) (piece "Disc" Each)}) '
        f'(rules (play (move Add (to (sites Empty)))) (end (if {condition} (result Mover Win)))))'))
    return english._condition_phrase(spec.end_rules[0].cond)


def test_nested_condition_grouping():
    phrase = _phrase("(or (and (is Even (count Moves)) (no Moves Next)) (is Line 3))")
    assert phrase == ("either (the number of moves is even and the next player "
                      "cannot move) or a player places 3 of their pieces in an "
                      "adjacent direction line")
    assert _phrase("(or (is Line 3) (no Moves Next) (is Even (count Moves)))") == \
        ("either a player places 3 of their pieces in an adjacent direction line, "
         "the next player cannot move; otherwise the number of moves is even")
    # A one-operand or/and reads as its operand, also where it is an operand.
    line = "a player places 3 of their pieces in an adjacent direction line"
    assert _phrase("(or (is Line 3))") == line
    assert _phrase("(and (no Moves Next))") == "the next player cannot move"
    nested = "(or (and (is Line 3)) (or (and (is Even (count Moves)) (no Moves Next))))"
    assert _phrase(nested) == \
        f"either {line} or (the number of moves is even and the next player cannot move)"


def test_result_phrases():
    assert english._result_phrase("Next", "Loss") == "the next player loses"
    assert english._result_phrase("P2", "Win") == "player two wins"
    assert english._result_phrase("Mover", "Draw") == "the game is a draw"


def test_draw_fallback_sentence():
    assert english.draw_fallback_sentence() == \
        "If no player can move, the game ends in a draw."


def test_missing_template_raises(tictactoe):
    with pytest.raises(MissingTemplate):
        translate_node(tictactoe, 0)  # the (game ...) ludeme is not a rule


def test_if_without_else_and_a_neutral_start_placement():
    # A play rule with no else branch reads as one clause; a neutral piece is
    # placed for no player.
    spec = compile_game(parse(
        '(game "Half" (players 2) (equipment {(board (square 3)) (piece "Disc" Each) '
        '(piece "Block" Neutral)}) (rules (start (place "Block0" {"B2"})) '
        '(play (if (is Even (count Moves)) (move Add (to (sites Empty))))) '
        '(end (if (is Line 3) (result Mover Win)))))'))
    assert translate_game(spec) == (
        'The game "Half" is played by two players on a 3x3 rectangle board with square tiling.\n'
        "All players play with Discs. The following pieces are neutral: Blocks.\n"
        "Players take turns moving.\n"
        "Setup:\n"
        "     Place a Block on sites: B2.\n"
        "Rules:\n"
        "     If the number of moves is even, add one of your pieces to the set of empty cells.\n"
        "Aim:\n"
        "     If a player places 3 of their pieces in an adjacent direction line, "
        "the moving player wins.\n")
