import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamescribe.sexpr import (Call, Collection, EmptyInput, Number, ParseError, Symbol, Text,
                              TrailingContent, UnbalancedParen, UnterminatedString, children,
                              parse, print_canonical)


def test_parses_call_with_mixed_arguments():
    node = parse('(game "Tic-Tac-Toe" (players 2) -3 Foo)')
    assert isinstance(node, Call)
    assert node.head == Symbol("game")
    assert node.args[0] == Text("Tic-Tac-Toe")
    assert node.args[1] == Call(Symbol("players"), (Number(2),))
    assert node.args[2] == Number(-3)
    assert node.args[3] == Symbol("Foo")


def test_parses_brace_collection():
    node = parse('(start {(place "X" {"A1" "B2"})})')
    coll = node.args[0]
    assert isinstance(coll, Collection)
    assert len(coll.items) == 1


def test_comments_and_whitespace_are_trivia():
    node = parse("// header\n( a // trailing\n  b )")
    assert node == Call(Symbol("a"), (Symbol("b"),))


def test_symbols_may_contain_punctuation():
    node = parse("(dirs N-E 0.5)")
    assert node.args == (Symbol("N-E"), Symbol("0.5"))  # 0.5 is not an integer


@pytest.mark.parametrize("text,err", [
    ("", EmptyInput),
    ("   // only a comment\n", EmptyInput),
    ("(a b", UnbalancedParen),
    ("{a b", UnbalancedParen),
    ("(a })", UnbalancedParen),
    (")", UnbalancedParen),
    ('("unclosed', UnterminatedString),
    ("(a) (b)", TrailingContent),
    pytest.param("(a " * 3000 + ")" * 3000, ParseError, id="nested-3000-deep"),
])
def test_reader_errors(text, err):
    with pytest.raises(err):
        parse(text)


def test_errors_carry_positions():
    with pytest.raises(UnbalancedParen) as exc:
        parse("(a b } c)")
    assert exc.value.position == 5


def test_spans_cover_source_slices():
    source = '(game "Hex" (players 2))'
    node = parse(source)
    assert source[node.span[0]:node.span[1]] == source
    name = node.args[0]
    assert source[name.span[0]:name.span[1]] == '"Hex"'
    players = node.args[1]
    assert source[players.span[0]:players.span[1]] == "(players 2)"


def test_structural_equality_ignores_spans():
    a = parse("(a   b\n  c)")
    b = parse("(a b c)")
    assert a == b
    assert a.span != b.span


def test_round_trip_on_corpus(tmp_path):
    from conftest import CORPUS
    for path in sorted(CORPUS.glob("*.lud")):
        tree = parse(path.read_text())
        assert parse(print_canonical(tree)) == tree


def test_children_orders():
    call = parse("(a b {c d})")
    kids = children(call)
    assert kids[0] == Symbol("a")
    assert children(kids[2]) == (Symbol("c"), Symbol("d"))
    assert children(Symbol("x")) == ()


# --- property tests ---

_symbols = st.from_regex(r"[A-Za-z][A-Za-z]{0,7}", fullmatch=True).map(Symbol)
_numbers = st.integers(-10**6, 10**6).map(Number)
_texts = st.from_regex(r"[A-Za-z0-9 ]{0,8}", fullmatch=True).map(Text)
_atoms = st.one_of(_symbols, _numbers, _texts)


def _trees():
    return st.recursive(
        _atoms,
        lambda inner: st.one_of(
            st.tuples(_symbols, st.lists(inner, max_size=4)).map(
                lambda t: Call(t[0], tuple(t[1]))),
            st.lists(inner, max_size=4).map(lambda i: Collection(tuple(i))),
        ),
        max_leaves=20,
    )


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet='(){}" abc0-\n', max_size=40))
def test_parse_is_total(text):
    # Any input either parses or raises a ParseError subclass; nothing else.
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(_trees())
def test_print_parse_round_trip(tree):
    assert parse(print_canonical(tree)) == tree


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_comment_ends_at_any_line_ending(newline):
    text = f"// a comment{newline}(game 1)"
    node = parse(text)
    assert node == Call(Symbol("game"), (Number(1),))
    assert text[node.span[0]:node.span[1]] == "(game 1)"
