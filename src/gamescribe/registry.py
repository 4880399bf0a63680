"""Data-driven ludeme registry and tree validation.

The supported subset of the game description language ships as a JSON
table (``data/ludemes.json``): one entry per ludeme with its category and
ordered argument slots, and the slots of each mode of ``move`` and ``is``.
Validation walks a parsed tree once, in preorder, which is source order,
and checks each call against its descriptor as it reaches it, argument by
argument; the walk's list of nodes numbers them.  An argument call's head is
looked up before the argument is matched to a slot, so an unknown or
unsupported ludeme is reported as such wherever it sits, a ``{...}``
argument included.  Of two faults, the first in the source is reported.
"""

from __future__ import annotations

import json
import pkgutil

from .record import Record
from .sexpr import Call, Collection, Number, RawNode, Symbol, Text, children, print_canonical


class CompileError(Exception):
    """An error at ``span``, the offending node's (start, end) character offsets."""

    def __init__(self, message: str, span: tuple[int, int] = (0, 0)):
        super().__init__(f"{message} (at offset {span[0]})")
        self.message = message
        self.span = span


class UnknownLudeme(CompileError):
    pass


class UnsupportedLudeme(CompileError):
    pass


class ArityMismatch(CompileError):
    pass


class BadArgumentKind(CompileError):
    pass


class SlotSpec(Record):
    __slots__ = _compared = ("kind", "values", "category", "required", "variadic",
                             "collection_ok", "needs")

    def __init__(self, kind: str, values: tuple[str, ...] | None = None,
                 category: tuple[str, ...] | None = None, required: bool = True,
                 variadic: bool = False, collection_ok: bool = False, needs: str | None = None):
        self.kind = kind  # number | string | symbol | ludeme | any
        self.values = values
        self.category = category
        self.required = required
        self.variadic = variadic
        self.collection_ok = collection_ok
        self.needs = needs  # what a missing mode slot's message asks for

    def describe(self) -> str:
        """What the slot takes, with its article: "a number", "an item ludeme"."""
        if self.kind == "any":
            return "an argument"
        if self.kind == "symbol" and self.values:
            noun = f"symbol in {{{', '.join(self.values)}}}"
        elif self.kind == "ludeme" and self.category:
            noun = f"{'/'.join(self.category)} ludeme"
        else:
            noun = self.kind
        return f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"


class LudemeDescriptor(Record):
    __slots__ = _compared = ("name", "category", "slots", "modes")

    def __init__(self, name: str, category: str, slots: tuple[SlotSpec, ...] = (),
                 modes: dict[str, tuple[SlotSpec, ...]] | None = None):
        self.name = name
        self.category = category
        self.slots = slots
        # First-argument symbol -> the slots of the arguments after it, each
        # filled at most once, in any order.
        self.modes = {} if modes is None else modes


def describe(node: RawNode) -> str:
    """How a message names an argument: "(to ...)" for a call, else its text."""
    return f"({node.head.name} ...)" if isinstance(node, Call) else print_canonical(node)


def _got(node: RawNode, slot: SlotSpec) -> str:
    """How a mismatch names ``node``: itself if it has the slot's kind, else its kind."""
    if isinstance(node, {"symbol": Symbol, "ludeme": Call}.get(slot.kind, ())):
        return describe(node)
    return {Symbol: "symbol", Number: "number", Text: "string",
            Call: "call", Collection: "collection"}[type(node)]


class Registry:
    def __init__(self, descriptors: dict[str, LudemeDescriptor],
                 recognised_unsupported: frozenset[str]):
        self.descriptors = descriptors
        self.recognised_unsupported = recognised_unsupported

    def descriptor(self, name: str, span: tuple[int, int] = (0, 0)) -> LudemeDescriptor:
        desc = self.descriptors.get(name)
        if desc is None:
            if name in self.recognised_unsupported:
                raise UnsupportedLudeme(f"ludeme '{name}' is outside the supported subset", span)
            raise UnknownLudeme(f"unknown ludeme '{name}'", span)
        return desc

    def _matches(self, node: RawNode, slot: SlotSpec, *, allow_collection: bool = True) -> bool:
        if isinstance(node, Call):  # an unknown or unsupported head raises here
            desc = self.descriptor(node.head.name, node.head.span)
        if slot.collection_ok and allow_collection and isinstance(node, Collection):
            return all(self._matches(i, slot, allow_collection=False) for i in node.items)
        if slot.kind == "any":
            return True
        if slot.kind == "number":
            return isinstance(node, Number)
        if slot.kind == "string":
            return isinstance(node, Text)
        if slot.kind == "symbol":
            return isinstance(node, Symbol) and (slot.values is None or node.name in slot.values)
        if slot.kind == "ludeme":
            return isinstance(node, Call) and \
                (slot.category is None or desc.category in slot.category) and \
                (slot.values is None or desc.name in slot.values)
        return False

    def check_call(self, call: Call) -> None:
        desc = self.descriptor(call.head.name, call.head.span)
        args = call.args
        i = 0
        for slot in desc.slots:
            # A variadic slot takes every matching argument in a row, any other slot one.
            start = i
            while i < len(args) and (slot.variadic or i == start) and self._matches(args[i], slot):
                i += 1
            if slot.required and i == start:
                if i < len(args):
                    raise BadArgumentKind(
                        f"'{desc.name}' expects {slot.describe()}, got {_got(args[i], slot)}",
                        args[i].span)
                raise ArityMismatch(f"'{desc.name}' is missing {slot.describe()}",
                                    call.span)
        if desc.modes:
            self._check_mode(call, desc.modes[args[0].name], args[i:])
        elif i < len(args):
            if isinstance(args[i], Call):  # no slot read it
                self.descriptor(args[i].head.name, args[i].head.span)
            raise ArityMismatch(f"'{desc.name}' has {len(args) - i} extra argument(s)",
                                args[i].span)

    def _check_mode(self, call: Call, slots: tuple[SlotSpec, ...],
                    args: tuple[RawNode, ...]) -> None:
        """Fill each of ``slots`` at most once, in any order, from ``args``.

        An unknown or unsupported ludeme that a slot reads is reported
        first; then a missing required slot, at the call; then the first
        argument that no unfilled slot takes.
        """
        free, spare = list(slots), []  # slots not yet filled, arguments none of them takes
        for arg in args:
            slot = next((s for s in free if self._matches(arg, s)), None)
            if slot is None:
                spare.append(arg)
            else:
                free.remove(slot)
        name = f"({call.head.name} {call.args[0].name} ...)"
        missing = next((s for s in free if s.required), None)
        if missing is not None:
            raise BadArgumentKind(f"{name} needs {missing.needs}", call.span)
        if spare:
            twice = " twice" if any(self._matches(spare[0], s) for s in slots) else ""
            raise BadArgumentKind(f"{name} cannot use {describe(spare[0])}{twice}",
                                  spare[0].span)

    def validate_tree(self, root: RawNode) -> list[RawNode]:
        """Check every call in the tree; return every node in preorder.

        A node's index in the list is its ludeme id.
        """
        nodes, stack = [], [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if isinstance(node, Call):
                self.check_call(node)
            stack.extend(reversed(children(node)))
        return nodes


def load_registry() -> Registry:
    # pkgutil, not importlib.resources, which imports inspect on Python 3.12 and later.
    raw = json.loads(pkgutil.get_data(__package__, "data/ludemes.json"))

    def slots(entries: list[dict]) -> tuple[SlotSpec, ...]:
        # Each key of a slot is a SlotSpec field; its lists become tuples.
        return tuple(SlotSpec(**{key: tuple(v) if isinstance(v, list) else v
                                 for key, v in s.items()}) for s in entries)

    descriptors = {}
    for entry in raw["ludemes"]:
        modes = {mode: slots(entries) for mode, entries in entry.get("modes", {}).items()}
        descriptors[entry["name"]] = LudemeDescriptor(
            entry["name"], entry["category"], slots(entry.get("slots", ())), modes)
    return Registry(descriptors, frozenset(raw.get("recognised_unsupported", ())))


_DEFAULT: Registry | None = None


def default_registry() -> Registry:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_registry()
    return _DEFAULT
