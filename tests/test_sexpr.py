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


# (source, error type, message, offset) for each way the reader can fail.
_NEST = "(a " * 199 + "{}" + ")" * 199  # 200 levels: the deepest accepted

READER_ERRORS = {
    "empty": ("", EmptyInput, "empty input", 0),
    "comment-only": ("  // only a comment\r\n\t// another", EmptyInput, "empty input", 0),
    "trailing-form": ("(a) (b)", TrailingContent, "trailing content after top-level form", 4),
    # One leading byte-order mark is skipped, and offsets still count it.
    "bom-only": ("\ufeff", EmptyInput, "empty input", 0),
    "bom-trailing-form": ("\ufeff(a) (b)", TrailingContent,
                          "trailing content after top-level form", 5),
    "bom-unclosed": ("\ufeff (a", UnbalancedParen, "unclosed '('", 2),
    "bom-twice": ("\ufeff\ufeff(a)", TrailingContent, "trailing content after top-level form", 2),
    "trailing-closer": ("(a) )", TrailingContent, "trailing content after top-level form", 4),
    "trailing-quote": ('(a) "b', TrailingContent, "trailing content after top-level form", 4),
    "unterminated-string": ('(a "b c)', UnterminatedString, "unterminated string", 3),
    "unterminated-string-head": ('("unclosed', UnterminatedString, "unterminated string", 1),
    "paren-at-top": ("  )", UnbalancedParen, "unexpected ')'", 2),
    "brace-at-top": ("}", UnbalancedParen, "unexpected '}'", 0),
    "brace-in-call": ("(a b } c)", UnbalancedParen, "unexpected '}'", 5),
    "paren-in-collection": ("{a b ) c}", UnbalancedParen, "unexpected ')'", 5),
    "empty-call": ("{x ()}", UnbalancedParen, "unexpected ')'", 4),
    "brace-as-head": ("(}", UnbalancedParen, "unexpected '}'", 1),
    "string-head": ('(x ("s" a))', ParseError, "call head must be a symbol", 4),
    "number-head": ("(x (-12 a))", ParseError, "call head must be a symbol", 4),
    "collection-head": ("(x ({a b} c))", ParseError, "call head must be a symbol", 4),
    "call-head": ("(x ( (a b) c))", ParseError, "call head must be a symbol", 4),
    "call-head-before-unclosed": ("(x ((a b c))", ParseError, "call head must be a symbol", 4),
    "number-head-before-unclosed": ("(1 a", ParseError, "call head must be a symbol", 1),
    "unclosed-paren": ("(a {b} (c (d) {e}", UnbalancedParen, "unclosed '('", 7),
    "unclosed-brace": ("(a (b) {c {d}", UnbalancedParen, "unclosed '{'", 7),
    "unclosed-after-head": ("(a", UnbalancedParen, "unclosed '('", 0),
    "depth-201-brace": (_NEST.replace("{}", "(a {})"), ParseError,
                        "nesting deeper than 200 levels", 600),
    "depth-201-paren": ("(a " * 201 + ")" * 201, ParseError,
                        "nesting deeper than 200 levels", 600),
    "depth-3000": ("(a " * 3000 + ")" * 3000, ParseError, "nesting deeper than 200 levels", 600),
    # int() refuses a string of more than 4,300 digits with a ValueError.
    "number-101-chars": ("(a 1 -" + "9" * 100 + ")", ParseError,
                         "number longer than 100 characters", 5),
    "number-5000-digits": ("(a " + "9" * 5000 + ")", ParseError,
                           "number longer than 100 characters", 3),
}


@pytest.mark.parametrize("name", sorted(READER_ERRORS))
def test_reader_error_table(name):
    text, err, message, offset = READER_ERRORS[name]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert type(exc.value) is err
    assert (exc.value.message, exc.value.position) == (message, offset)
    assert str(exc.value) == f"{message} (at offset {offset})"


def test_number_of_100_characters_parses():
    assert parse("(a -" + "9" * 99 + ")").args[0] == Number(-int("9" * 99))


def test_nesting_200_deep_parses():
    node = parse(_NEST)
    assert node.span == (0, len(_NEST))
    for _ in range(199):
        node = node.args[0]
    assert node == Collection(())


def test_spans_cover_source_slices():
    source = '(game "Hex" (players 2))'
    node = parse(source)
    assert source[node.span[0]:node.span[1]] == source
    name = node.args[0]
    assert source[name.span[0]:name.span[1]] == '"Hex"'
    players = node.args[1]
    assert source[players.span[0]:players.span[1]] == "(players 2)"


def test_leading_byte_order_mark_is_skipped():
    node = parse("\ufeff(game \"Hex\")")
    assert node == parse('(game "Hex")')
    assert node.span == (1, 13)


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

_symbols = st.from_regex(r"[A-Za-z][A-Za-z0-9/.-]{0,7}", fullmatch=True).map(Symbol)
_numbers = st.integers(-10**6, 10**6).map(Number)
_texts = st.from_regex(r"[A-Za-z0-9 (){}/\n]{0,8}", fullmatch=True).map(Text)
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


# Layout between tokens.  A comment follows whitespace so that it never
# extends the symbol before it.
_TRIVIA = [" ", "\t", "\r", "\n", "\r\n", " // note\n", "\t//(x\r", " //}\"\r\n"]


@settings(max_examples=150, deadline=None)
@given(_trees(), st.data())
def test_trivia_round_trip_and_spans(tree, data):
    def trivia(least):
        return "".join(data.draw(st.lists(st.sampled_from(_TRIVIA), min_size=least,
                                          max_size=3)))

    def show(node):
        if not isinstance(node, (Call, Collection)):
            return print_canonical(node)
        opener, closer = ("(", ")") if isinstance(node, Call) else ("{", "}")
        body = "".join((trivia(1) if i else "") + show(part)
                       for i, part in enumerate(children(node)))
        return opener + trivia(0) + body + trivia(0) + closer

    text = trivia(0) + show(tree) + trivia(0)
    parsed = parse(text)
    assert parsed == tree
    stack = [parsed]
    while stack:
        node = stack.pop()
        assert parse(text[node.span[0]:node.span[1]]) == node
        stack.extend(children(node))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_comment_ends_at_any_line_ending(newline):
    text = f"// a comment{newline}(game 1)"
    node = parse(text)
    assert node == Call(Symbol("game"), (Number(1),))
    assert text[node.span[0]:node.span[1]] == "(game 1)"
