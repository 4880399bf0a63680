"""Data-driven ludeme registry and tree validation.

The supported subset of the game description language ships as a JSON
table (``data/ludemes.json``): one entry per ludeme with its category and
ordered argument slots.  Validation walks a parsed tree and checks every
call against its descriptor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .sexpr import Call, Collection, Number, RawNode, Symbol, Text, children


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


class UnsupportedShape(CompileError):
    pass


@dataclass(frozen=True)
class SlotSpec:
    kind: str  # number | string | symbol | ludeme | any
    values: tuple[str, ...] | None = None
    category: tuple[str, ...] | None = None
    required: bool = True
    variadic: bool = False
    collection_ok: bool = False

    def describe(self) -> str:
        if self.kind == "symbol" and self.values:
            return f"symbol in {{{', '.join(self.values)}}}"
        if self.kind == "ludeme" and self.category:
            return f"{'/'.join(self.category)} ludeme"
        return self.kind


@dataclass(frozen=True)
class LudemeDescriptor:
    name: str
    category: str
    slots: tuple[SlotSpec, ...] = ()


def _kind_of(node: RawNode) -> str:
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
            if not isinstance(node, Call):
                return False
            desc = self.descriptors.get(node.head.name)
            if desc is None:
                return False
            return slot.category is None or desc.category in slot.category
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
                        f"'{desc.name}' expects {slot.describe()}, got {_kind_of(args[i])}",
                        args[i].span)
                raise ArityMismatch(f"'{desc.name}' is missing a {slot.describe()} argument",
                                    call.span)
        if i < len(args):
            raise ArityMismatch(f"'{desc.name}' has {len(args) - i} extra argument(s)",
                                args[i].span)

    def validate_tree(self, root: RawNode) -> None:
        """Check every call in the tree against its descriptor."""
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Call):
                self.check_call(node)
            stack.extend(children(node))


def load_registry() -> Registry:
    raw = json.loads(resources.files("gamescribe.data").joinpath("ludemes.json").read_text())
    descriptors = {}
    for entry in raw["ludemes"]:
        slots = tuple(
            SlotSpec(
                kind=s["kind"],
                values=tuple(s["values"]) if "values" in s else None,
                category=tuple(s["category"]) if "category" in s else None,
                required=s.get("required", True),
                variadic=s.get("variadic", False),
                collection_ok=s.get("collection_ok", False),
            )
            for s in entry.get("slots", ())
        )
        descriptors[entry["name"]] = LudemeDescriptor(entry["name"], entry["category"], slots)
    return Registry(descriptors, frozenset(raw.get("recognised_unsupported", ())))


_DEFAULT: Registry | None = None


def default_registry() -> Registry:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_registry()
    return _DEFAULT
