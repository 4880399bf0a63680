"""Recursive translation of compiled game rules into structured English.

Every supported ludeme has a phrase template; templates consume the
translated fragments of their children, so translating the whole game is
one recursive walk over the compiled rules.  Output section order: header,
regions, pieces, piece rules, turn order, setup, Rules, Aim.
"""

from __future__ import annotations

from .compiler import (AllOf, AnyOf, Condition, EndRule, ForEachPiece, GameSpec, IsConnected,
                       IsEven, IsIn, IsLine, MoveRule, NoMovesNext, PlayRule)


class MissingTemplate(Exception):
    pass


NUMBER_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six",
    7: "seven", 8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
}

PLURAL_EXCEPTIONS = {"Cross": "Crosses"}

DIRECTION_WORDS = {
    "Adjacent": "adjacent", "Orthogonal": "orthogonal", "Diagonal": "diagonal",
    "Forward": "forward", "FL": "forward-left", "FR": "forward-right",
}


def number_word(n: int) -> str:
    return NUMBER_WORDS.get(n, str(n))


def _player_name(player: int) -> str:
    return f"player {number_word(player)}"


def plural(name: str) -> str:
    return PLURAL_EXCEPTIONS.get(name, name + "s")


def join_list(items: list[str], conjunction: str = "and") -> str:
    """Comma-separated list with a terminal " and " (or other ``conjunction``)."""
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + f" {conjunction} " + items[-1]


def _sentence(fragment: str) -> str:
    return fragment[0].upper() + fragment[1:] + "."


def _board_phrase(spec: GameSpec) -> str:
    board = spec.board
    if board.shape in ("square", "rectangle"):
        return f"{board.cols}x{board.rows} rectangle board with square tiling"
    return f"{board.cols}x{board.rows} diamond board with hexagonal tiling"


def _site_set_phrase(kind: tuple[str, ...]) -> str:
    if kind == ("Empty",):
        return "the set of empty cells"
    return f"the {kind[1]} side"  # ("Side", name), the one other kind that compiles


def _move_fragment(rule: MoveRule | ForEachPiece, *, piece_subject: bool) -> str:
    """Lower-case verb phrase for a (move ...) or (forEach Piece) rule.

    With ``piece_subject`` the phrase follows a plural piece-name subject
    ("Queens slide ..."); otherwise it is imperative ("add one of ...").
    """
    if isinstance(rule, ForEachPiece):
        return "move one of your pieces"
    then = " then move again" if rule.again else ""
    subject = "" if piece_subject else " one of your pieces"
    # A direction named twice is moved along once (see BoardGraph.ray_indices).
    directions = join_list(list(dict.fromkeys(DIRECTION_WORDS[n] for n in rule.directions)),
                           "or")
    if rule.kind == "Add":
        return f"add one of your pieces to {_site_set_phrase(rule.to.kind)}" + then
    if rule.kind == "Slide":
        return (f"slide{subject} from the location of the piece in the "
                f"{directions} direction through the set of empty cells" + then)
    if rule.kind == "Step":
        return (f"step{subject} to an empty or enemy-occupied cell in the "
                f"{directions} direction" + then)
    return f"shoot the piece {rule.projectile}" + then


def _condition_phrase(cond: Condition) -> str:
    if isinstance(cond, IsEven):
        return "the number of moves is even"
    if isinstance(cond, IsLine):
        return f"a player places {cond.length} of their pieces in an adjacent direction line"
    if isinstance(cond, IsConnected):
        return "the region(s) of the moving player are connected"
    if isinstance(cond, IsIn):
        return "the moving player reaches their target region"
    if isinstance(cond, NoMovesNext):
        return "the next player cannot move"
    parts = []
    for sub in cond.parts:
        phrase = _condition_phrase(sub)
        # Parenthesise nested compound operands to keep grouping unambiguous.
        if isinstance(sub, (AnyOf, AllOf)):
            phrase = f"({phrase})"
        parts.append(phrase)
    if isinstance(cond, AllOf):
        return " and ".join(parts)
    if len(parts) == 2:
        return f"either {parts[0]} or {parts[1]}"
    return "either " + ", ".join(parts[:-1]) + "; otherwise " + parts[-1]


def _result_phrase(who: str, outcome: str) -> str:
    if who == "Mover":
        subject = "the moving player"
    elif who == "Next":
        subject = "the next player"
    else:
        subject = _player_name(int(who[1:]))
    if outcome == "Win":
        return f"{subject} wins"
    if outcome == "Loss":
        return f"{subject} loses"
    return "the game is a draw"


def _play_fragment(rule: PlayRule) -> str:
    if isinstance(rule, (MoveRule, ForEachPiece)):
        return _move_fragment(rule, piece_subject=False)
    cond = _condition_phrase(rule.cond)
    then = _play_fragment(rule.then)
    if rule.otherwise is not None:
        other = _play_fragment(rule.otherwise)
        return f"if {cond}, {then}, else {other}"
    return f"if {cond}, {then}"


def _end_sentence(rule: EndRule) -> str:
    cond = _condition_phrase(rule.cond)
    return f"If {cond}, {_result_phrase(rule.who, rule.outcome)}."


def draw_fallback_sentence() -> str:
    """English for the implicit no-moves draw (no end ludeme to translate)."""
    return "If no player can move, the game ends in a draw."


def translate_node(spec: GameSpec, ludeme_id: int) -> str:
    """Translate the play, piece or end rule with ludeme id ``ludeme_id`` into a sentence."""
    if ludeme_id in spec.rules:
        return _sentence(_play_fragment(spec.rules[ludeme_id]))
    for rule in spec.end_rules:
        if rule.end_id == ludeme_id:
            return _end_sentence(rule)
    raise MissingTemplate(f"no template for ludeme {ludeme_id}: not a play, piece or end rule")


def translate_game(spec: GameSpec) -> str:
    """Full English translation, one section per line group."""
    lines: list[str] = []

    lines.append(f'The game "{spec.name}" is played by '
                 f"{number_word(spec.player_count)} players on a {_board_phrase(spec)}.")

    if spec.regions:
        lines.append("Regions:")
        for region in spec.regions:
            tag = f"P{region.owner}"
            items = [f"Region{tag}: the {ss.kind[1]} side for {tag}"
                     for ss in region.site_sets]
            lines.append("    " + join_list(items))

    piece_sentences: list[str] = []
    seen_each: set[str] = set()
    neutral_bases: list[str] = []
    for piece in spec.pieces:
        if piece.from_each:
            if piece.base not in seen_each:
                seen_each.add(piece.base)
                piece_sentences.append(f"All players play with {plural(piece.base)}.")
        elif piece.owner == 0:
            neutral_bases.append(piece.base)
        else:
            name = _player_name(piece.owner)
            piece_sentences.append(f"{name[0].upper()}{name[1:]} plays with "
                                   f"{plural(piece.base)}.")
    if neutral_bases:
        piece_sentences.append("The following pieces are neutral: "
                               f"{join_list([plural(b) for b in neutral_bases])}.")
    if piece_sentences:
        lines.append(" ".join(piece_sentences))

    rule_lines: list[str] = []
    seen_rules: set[tuple[str, int]] = set()
    for piece in spec.pieces:
        if piece.rule is None:
            continue
        key = (piece.base, piece.rule.id)
        if key in seen_rules:
            continue
        seen_rules.add(key)
        fragment = _move_fragment(piece.rule, piece_subject=True)
        rule_lines.append(f"     {plural(piece.base)} {fragment}.")
    if rule_lines:
        lines.append("Rules for Pieces:")
        lines.extend(rule_lines)

    lines.append("Players take turns moving.")

    if spec.start_placements:
        lines.append("Setup:")
        for placement in spec.start_placements:
            piece = spec.pieces_by_name[placement.piece_name]
            if piece.owner == 0:
                owner_phrase = ""
            else:
                owner_phrase = f" for {_player_name(piece.owner)}"
            lines.append(f"     Place a {piece.base}{owner_phrase} on sites: "
                         f"{join_list([spec.board.labels[s] for s in placement.sites])}.")

    lines.append("Rules:")
    lines.append("     " + _sentence(_play_fragment(spec.play)))

    lines.append("Aim:")
    for rule in spec.end_rules:
        lines.append("     " + _end_sentence(rule))

    return "\n".join(lines) + "\n"
