"""The record types compare, hash, print and pickle by their compared fields.

Every record class of ``src/`` is listed once, with a factory, a second
instance that differs from the first only in fields left out of comparison
(source spans and caches), the names of its compared fields in order, and
the repr of the first instance.  Equality and hashing use exactly those
fields, a record of another class is never equal, and the four mutable
records (a board, a spec, a state and a highlight list) are unhashable.
"""

import pickle

import pytest

from conftest import CORPUS, load_spec
from gamescribe import boards
from gamescribe.compiler import (AllOf, AnchorTable, AnyOf, EndRule, ForEachPiece, GameSpec,
                                 IfRule, IsConnected, IsEven, IsIn, IsLine, MoveRule,
                                 NoMovesNext, PieceSpec, RegionSpec, SiteSet, StartPlacement)
from gamescribe.engine import EndMatch, GameState, Move, PlayoutTrace, random_playout
from gamescribe.english import translate_game
from gamescribe.registry import LudemeDescriptor, SlotSpec
from gamescribe.render import HighlightSpec
from gamescribe.sexpr import Call, Collection, Number, Symbol, Text
from gamescribe.strategy import HeuristicEntry
from gamescribe.taxonomy import DistinctMove, EndingExample, MoveSignature


def _add(span=(20, 48)):
    return MoveRule(4, "Add", ("Adjacent",), SiteSet(("Empty",), ()), None, True, span)


def _spec():
    return GameSpec("G", 1, boards.build_square(1, 2, shape="rectangle"),
                    [PieceSpec("Disc", "Disc", 1)], [], [StartPlacement("Disc", (0,))], _add(),
                    [EndRule(9, IsEven(), "Mover", "Win")],
                    AnchorTable(((), ()), (((), ()), ((), ())), 2, ((), ())), Symbol("game"),
                    {4: _add()})


def _spec_with_caches():
    spec = _spec()
    spec.add_moves = ((), ((Move(1, "Disc", 4, ("Add",), 0, 0),),))
    return spec


def _board_with_rays():
    board = boards.build_square(2, 2)
    board.rays, board.labels  # cached on the instance, left out of comparison
    return board


_MOVE = Move(1, "Disc", 4, ("Add",), 0, 0)
_END = EndMatch(9, (1,), "Win", (0, 1))

# (factory, a factory of an instance equal to it, compared fields, repr)
RECORDS = {
    "Symbol": (lambda: Symbol("x", (1, 2)), lambda: Symbol("x"), ("name",), "Symbol(name='x')"),
    "Number": (lambda: Number(3, (4, 5)), lambda: Number(3, (0, 9)), ("value",),
               "Number(value=3)"),
    "Text": (lambda: Text("t", (0, 3)), lambda: Text("t"), ("value",), "Text(value='t')"),
    "Call": (lambda: Call(Symbol("f", (1, 2)), (Number(1, (3, 4)),), (0, 5)),
             lambda: Call(Symbol("f"), (Number(1),)), ("head", "args"),
             "Call(head=Symbol(name='f'), args=(Number(value=1),))"),
    "Collection": (lambda: Collection((Symbol("a"), Text("b")), (0, 7)),
                   lambda: Collection((Symbol("a", (1, 2)), Text("b", (3, 6)))), ("items",),
                   "Collection(items=(Symbol(name='a'), Text(value='b')))"),
    "SlotSpec": (lambda: SlotSpec("symbol", ("A", "B"), None, False, True, False, "a side"),
                 lambda: SlotSpec("symbol", ("A", "B"), None, False, True, False, "a side"),
                 ("kind", "values", "category", "required", "variadic", "collection_ok",
                  "needs"),
                 "SlotSpec(kind='symbol', values=('A', 'B'), category=None, required=False, "
                 "variadic=True, collection_ok=False, needs='a side')"),
    "LudemeDescriptor": (lambda: LudemeDescriptor("is", "condition", (SlotSpec("number"),)),
                         lambda: LudemeDescriptor("is", "condition", (SlotSpec("number"),), {}),
                         ("name", "category", "slots", "modes"),
                         "LudemeDescriptor(name='is', category='condition', "
                         "slots=(SlotSpec(kind='number', values=None, category=None, "
                         "required=True, variadic=False, collection_ok=False, needs=None),), "
                         "modes={})"),
    "BoardGraph": (lambda: boards.build_square(2, 2), _board_with_rays,
                   ("shape", "rows", "cols", "vectors", "line_axes", "directions", "sides"),
                   "BoardGraph(shape='square', rows=2, cols=2, vectors=((1, 0), (-1, 0), "
                   "(0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)), line_axes=((0, 1), "
                   "(1, 0), (1, 1), (1, -1)), directions={'Forward': ((1, 0),), "
                   "'FL': ((1, -1),), 'FR': ((1, 1),), 'Adjacent': ((1, 0), (-1, 0), (0, 1), "
                   "(0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)), 'Orthogonal': ((1, 0), "
                   "(-1, 0), (0, 1), (0, -1)), 'Diagonal': ((1, 1), (1, -1), (-1, 1), "
                   "(-1, -1))}, sides={'N': [2, 3], 'S': [0, 1], 'W': [0, 2], 'E': [1, 3]})"),
    "SiteSet": (lambda: SiteSet(("Side", "N"), (2, 3)), lambda: SiteSet(("Side", "N"), (2, 3)),
                ("kind", "sites"), "SiteSet(kind=('Side', 'N'), sites=(2, 3))"),
    "IsLine": (lambda: IsLine(3, ((0, 1), (2, 3))), lambda: IsLine(3, ((0, 1), (2, 3))),
               ("length", "rays"), "IsLine(length=3, rays=((0, 1), (2, 3)))"),
    "IsConnected": (IsConnected, IsConnected, (), "IsConnected()"),
    "IsIn": (lambda: IsIn((frozenset(), frozenset({1}))),
             lambda: IsIn((frozenset(), frozenset({1}))), ("sites",),
             "IsIn(sites=(frozenset(), frozenset({1})))"),
    "IsEven": (IsEven, IsEven, (), "IsEven()"),
    "NoMovesNext": (NoMovesNext, NoMovesNext, (), "NoMovesNext()"),
    "AnyOf": (lambda: AnyOf((IsEven(), NoMovesNext())), lambda: AnyOf((IsEven(), NoMovesNext())),
              ("parts",), "AnyOf(parts=(IsEven(), NoMovesNext()))"),
    "AllOf": (lambda: AllOf((IsEven(), IsConnected())), lambda: AllOf((IsEven(), IsConnected())),
              ("parts",), "AllOf(parts=(IsEven(), IsConnected()))"),
    "MoveRule": (_add, lambda: _add((0, 0)),
                 ("id", "kind", "directions", "to", "projectile", "again"),
                 "MoveRule(id=4, kind='Add', directions=('Adjacent',), "
                 "to=SiteSet(kind=('Empty',), sites=()), projectile=None, again=True)"),
    "ForEachPiece": (lambda: ForEachPiece(7, (1, 2)), lambda: ForEachPiece(7, (3, 4)), ("id",),
                     "ForEachPiece(id=7)"),
    "IfRule": (lambda: IfRule(2, IsEven(), _add(), ForEachPiece(7, (1, 2)), (0, 90)),
               lambda: IfRule(2, IsEven(), _add((5, 6)), ForEachPiece(7, (8, 9)), (1, 2)),
               ("id", "cond", "then", "otherwise"),
               "IfRule(id=2, cond=IsEven(), then=MoveRule(id=4, kind='Add', "
               "directions=('Adjacent',), to=SiteSet(kind=('Empty',), sites=()), "
               "projectile=None, again=True), otherwise=ForEachPiece(id=7))"),
    "PieceSpec": (lambda: PieceSpec("Queen1", "Queen", 1, _add(), True, (0, 2)),
                  lambda: PieceSpec("Queen1", "Queen", 1, _add((0, 0)), True, (0, 2)),
                  ("name", "base", "owner", "rule", "from_each", "rays"),
                  "PieceSpec(name='Queen1', base='Queen', owner=1, rule=MoveRule(id=4, "
                  "kind='Add', directions=('Adjacent',), to=SiteSet(kind=('Empty',), "
                  "sites=()), projectile=None, again=True), from_each=True, rays=(0, 2))"),
    "RegionSpec": (lambda: RegionSpec(2, (SiteSet(("Side", "W"), (0,)),)),
                   lambda: RegionSpec(2, (SiteSet(("Side", "W"), (0,)),)),
                   ("owner", "site_sets"),
                   "RegionSpec(owner=2, site_sets=(SiteSet(kind=('Side', 'W'), sites=(0,)),))"),
    "StartPlacement": (lambda: StartPlacement("Disc", (0, 5)),
                       lambda: StartPlacement("Disc", (0, 5)), ("piece_name", "sites"),
                       "StartPlacement(piece_name='Disc', sites=(0, 5))"),
    "EndRule": (lambda: EndRule(9, IsEven(), "Next", "Loss"),
                lambda: EndRule(9, IsEven(), "Next", "Loss"), ("end_id", "cond", "who", "outcome"),
                "EndRule(end_id=9, cond=IsEven(), who='Next', outcome='Loss')"),
    "AnchorTable": (lambda: AnchorTable(((), (4,)), (((), ()), ((4,), ())), 5, ((), ((0,),))),
                    lambda: AnchorTable(((), (4,)), (((), ()), ((4,), ())), 5, ((), ((0,),))),
                    ("of_player", "at_site", "size", "site_sets"),
                    "AnchorTable(of_player=((), (4,)), at_site=(((), ()), ((4,), ())), size=5, "
                    "site_sets=((), ((0,),)))"),
    "GameSpec": (_spec, _spec_with_caches,
                 ("name", "player_count", "board", "pieces", "regions", "start_placements",
                  "play", "end_rules", "anchors", "root", "rules", "distinct_rules"),
                 "GameSpec(name='G', player_count=1, board=BoardGraph(shape='rectangle', rows=1, "
                 "cols=2, vectors=((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), "
                 "(-1, -1)), line_axes=((0, 1), (1, 0), (1, 1), (1, -1)), "
                 "directions={'Forward': ((1, 0),), 'FL': ((1, -1),), 'FR': ((1, 1),), "
                 "'Adjacent': ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), "
                 "(-1, -1)), 'Orthogonal': ((1, 0), (-1, 0), (0, 1), (0, -1)), "
                 "'Diagonal': ((1, 1), (1, -1), (-1, 1), (-1, -1))}, sides={'N': [0, 1], "
                 "'S': [0, 1], 'W': [0], 'E': [1]}), pieces=[PieceSpec(name='Disc', "
                 "base='Disc', owner=1, rule=None, from_each=False, rays=())], regions=[], "
                 "start_placements=[StartPlacement(piece_name='Disc', sites=(0,))], "
                 "play=MoveRule(id=4, kind='Add', directions=('Adjacent',), "
                 "to=SiteSet(kind=('Empty',), sites=()), projectile=None, again=True), "
                 "end_rules=[EndRule(end_id=9, cond=IsEven(), who='Mover', outcome='Win')], "
                 "anchors=AnchorTable(of_player=((), ()), at_site=(((), ()), ((), ())), "
                 "size=2, site_sets=((), ())), root=Symbol(name='game'), rules={4: "
                 "MoveRule(id=4, kind='Add', directions=('Adjacent',), "
                 "to=SiteSet(kind=('Empty',), sites=()), projectile=None, again=True)}, "
                 "distinct_rules=False)"),
    "HeuristicEntry": (lambda: HeuristicEntry("Material", 0.5, "Pawn", None, (3, 9)),
                       lambda: HeuristicEntry("Material", 0.5, "Pawn", None),
                       ("kind", "weight", "piece", "target_length"),
                       "HeuristicEntry(kind='Material', weight=0.5, piece='Pawn', "
                       "target_length=None)"),
    "EndMatch": (lambda: _END, lambda: EndMatch(9, (1,), "Win", (0, 1)),
                 ("end_id", "players", "outcome", "winning_sites"),
                 "EndMatch(end_id=9, players=(1,), outcome='Win', winning_sites=(0, 1))"),
    "GameState": (lambda: GameState([None, ("Disc", 1)], 2, 1, None, _MOVE),
                  lambda: GameState([None, ("Disc", 1)], 2, 1, None, _MOVE, [], 3, [0],
                                    [[], [1]], {"Disc": 2}, [0, 1]),
                  ("contents", "mover", "move_count", "terminal", "last_move"),
                  "GameState(contents=[None, ('Disc', 1)], mover=2, move_count=1, "
                  "terminal=None, last_move=Move(mover=1, piece='Disc', origin_id=4, "
                  "action_types=('Add',), from_site=0, to_site=0))"),
    "PlayoutTrace": (lambda: PlayoutTrace(3, (_MOVE,), _END),
                     lambda: PlayoutTrace(3, (_MOVE,), _END), ("seed", "moves", "outcome"),
                     "PlayoutTrace(seed=3, moves=(Move(mover=1, piece='Disc', origin_id=4, "
                     "action_types=('Add',), from_site=0, to_site=0),), "
                     "outcome=EndMatch(end_id=9, players=(1,), outcome='Win', "
                     "winning_sites=(0, 1)))"),
    "HighlightSpec": (lambda: HighlightSpec([(0, 1)], [(2, "red")]),
                      lambda: HighlightSpec([(0, 1)], [(2, "red")]), ("arrows", "dots"),
                      "HighlightSpec(arrows=[(0, 1)], dots=[(2, 'red')])"),
    "DistinctMove": (lambda: DistinctMove(MoveSignature(None, "Disc", 4, ("Add",)), (0, 1), "x"),
                     lambda: DistinctMove(MoveSignature(None, "Disc", 4, ("Add",)), (0, 1), "x"),
                     ("signature", "exemplar", "rule_text"),
                     "DistinctMove(signature=MoveSignature(mover=None, piece='Disc', "
                     "origin_id=4, action_types=('Add',)), exemplar=(0, 1), rule_text='x')"),
    "EndingExample": (lambda: EndingExample(("Win", (1,), 9), 3, "P1 wins", None),
                      lambda: EndingExample(("Win", (1,), 9), 3, "P1 wins", None),
                      ("result_key", "exemplar_seed", "text", "winning_sites"),
                      "EndingExample(result_key=('Win', (1,), 9), exemplar_seed=3, "
                      "text='P1 wins', winning_sites=None)"),
}

# The records that may change after construction, so hash nothing.
UNHASHABLE = {"BoardGraph", "GameSpec", "GameState", "HighlightSpec"}


def test_every_record_class_is_listed():
    assert len(RECORDS) == 32


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_compares_by_its_compared_fields(name):
    make, make_equal, compared, _ = RECORDS[name]
    record, other = make(), make_equal()
    assert type(record).__name__ == name
    assert record == other and not record != other
    assert record == record
    values = tuple(getattr(record, field) for field in compared)
    assert values == tuple(getattr(other, field) for field in compared)
    assert record != values  # a plain tuple of the same values is another class


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_hashes_as_the_tuple_of_its_compared_fields(name):
    make, _, compared, _ = RECORDS[name]
    record = make()
    values = tuple(getattr(record, field) for field in compared)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
        return
    try:
        want = hash(values)
    except TypeError:  # a field holds a dict, as a descriptor's modes do
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr(name):
    make, make_equal, _, want = RECORDS[name]
    assert repr(make()) == want
    assert repr(make_equal()) == want


@pytest.mark.parametrize("left, right", [
    (Symbol("x"), Text("x")),
    (Number(1), Text(1)),
    (AnyOf((IsEven(),)), AllOf((IsEven(),))),
    (IsEven(), NoMovesNext()),
    (IsConnected(), IsEven()),
    (ForEachPiece(7, (0, 0)), Symbol(7)),
])
def test_records_of_different_classes_are_unequal(left, right):
    assert left != right and right != left
    assert not left == right


def test_records_differ_in_a_compared_field():
    assert Symbol("x") != Symbol("y")
    assert _add() != MoveRule(4, "Add", ("Adjacent",), SiteSet(("Empty",), ()), None, False,
                              (20, 48))
    assert GameState([None], 1, 0) != GameState([None], 2, 0)
    assert HighlightSpec() != HighlightSpec([(0, 1)])


def test_mutable_defaults_are_not_shared():
    first, second = HighlightSpec(), HighlightSpec()
    first.arrows.append((0, 1))
    first.dots.append((0, "red"))
    assert second.arrows == [] and second.dots == []
    assert LudemeDescriptor("a", "b").modes is not LudemeDescriptor("a", "b").modes
    assert _spec().rules is not _spec().rules


def test_move_rule_carries_its_action_types():
    assert _add().action_types == (("Add", "SetMoverAgain"), ("Move", "SetMoverAgain"),
                                   ("Remove", "Move", "SetMoverAgain"))
    step = MoveRule(5, "Step", ("Forward",), None, None, False, (0, 0))
    assert step.action_types == (("Add",), ("Move",), ("Remove", "Move"))


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.lud")))
def test_compiled_spec_round_trips_through_pickle(name):
    spec = load_spec(name)
    want = random_playout(spec, 0)  # fills the spec's caches that a playout builds
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(spec, protocol))
        assert copy == spec and copy is not spec
        assert repr(copy) == repr(spec)
        assert copy.pieces_by_name == spec.pieces_by_name
        assert copy.add_moves == spec.add_moves
        assert translate_game(copy) == translate_game(spec)
        got = random_playout(copy, 0)
        assert got.moves == want.moves and got.outcome == want.outcome
        assert pickle.loads(pickle.dumps(want, protocol)) == want
