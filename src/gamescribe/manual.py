"""Assemble translation, strategy, setup, endings and moves into a manual.

Output is a single static HTML page (well-formed XML, no scripts) plus a
machine-readable ``manual.json`` manifest describing the same structure.
Sections appear in the fixed order Rules, Heuristics, Setup, Endings,
Moves; the Moves section is a hierarchy mover -> piece -> origin rule ->
action types.
"""

from __future__ import annotations

from html import escape as _escape
from pathlib import Path

SECTIONS = ["Rules", "Heuristics", "Setup", "Endings", "Moves"]
NO_STRATEGY_PLACEHOLDER = "No strategy information available."

_STYLE = (
    "body{font-family:Georgia,serif;max-width:60em;margin:1em auto;padding:0 1em}"
    "img{max-width:20em;margin:0.3em;border:1px solid #ccc;vertical-align:top}"
    "pre{background:#f7f4ee;padding:0.8em;white-space:pre-wrap}"
    ".leaf{margin:0.8em 0 1.4em 1em}.actions{color:#555}"
)


class MissingAsset(Exception):
    pass


def escape(text: str) -> str:
    # Only &, < and > need escaping: no text written into an attribute value
    # here can hold a double quote, because .lud strings cannot.
    return _escape(text, quote=False)


def _mover_label(mover) -> str:
    return "All players" if mover is None else f"Player {mover}"


def _group(items, key):
    out: dict = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return out


def _moves_tree(moves: list[dict]) -> dict:
    tree: dict = {}
    for i, leaf in enumerate(moves):
        level1 = tree.setdefault(_mover_label(leaf["mover"]), {})
        level2 = level1.setdefault(leaf["piece"] or "No piece", {})
        level3 = level2.setdefault(leaf["rule_text"], {})
        level3[", ".join(leaf["action_types"])] = i
    return tree


def _moves_html(moves: list[dict]) -> list[str]:
    # Hierarchy levels with a single child are collapsed visually (their
    # heading is omitted); manual.json preserves the full structure.
    parts: list[str] = []
    by_mover = _group(moves, lambda m: _mover_label(m["mover"]))
    for mover_label, mover_moves in by_mover.items():
        parts.append(f'<div class="mover-group" data-mover="{escape(mover_label)}">')
        if len(by_mover) > 1:
            parts.append(f"<h3>{escape(mover_label)}</h3>")
        by_piece = _group(mover_moves, lambda m: m["piece"] or "No piece")
        for piece, piece_moves in by_piece.items():
            parts.append(f'<div class="piece-group" data-piece="{escape(piece)}">')
            if len(by_piece) > 1:
                parts.append(f"<h4>{escape(piece)}</h4>")
            by_rule = _group(piece_moves, lambda m: m["rule_text"])
            for rule_text, rule_moves in by_rule.items():
                parts.append('<div class="rule-group">')
                parts.append(f"<p>{escape(rule_text)}</p>")
                for leaf in rule_moves:
                    actions = ", ".join(leaf["action_types"])
                    parts.append('<div class="leaf">')
                    if len(rule_moves) > 1:
                        parts.append(f'<p class="actions">Actions: {escape(actions)}</p>')
                    parts.append(f'<img src="{escape(leaf["before"])}" alt="before"/>')
                    parts.append(f'<img src="{escape(leaf["after"])}" alt="after"/>')
                    parts.append("</div>")
                parts.append("</div>")
            parts.append("</div>")
        parts.append("</div>")
    return parts


def build_manual(spec, translation: str, strategy_lines: list[str] | None,
                 setup_image: str, endings: list[dict],
                 moves: list[dict]) -> tuple[str, dict]:
    """Build the manual page and its JSON manifest.

    ``endings`` items: {text, before, after, result}.  ``moves`` items:
    {mover, piece, rule_text, action_types, before, after, id}.
    """
    heuristics = strategy_lines if strategy_lines else [NO_STRATEGY_PLACEHOLDER]

    parts = [
        "<!DOCTYPE html>",
        '<html xmlns="http://www.w3.org/1999/xhtml">',
        f'<head><meta charset="utf-8"/><title>{escape(spec.name)} manual</title>'
        f"<style>{_STYLE}</style></head>",
        "<body>",
        f"<h1>{escape(spec.name)}</h1>",
        "<h2>Rules</h2>",
        f"<pre>{escape(translation)}</pre>",
        "<h2>Heuristics</h2>",
    ]
    for line in heuristics:
        parts.append(f"<p>{escape(line)}</p>")
    parts.append("<h2>Setup</h2>")
    parts.append(f'<img src="{escape(setup_image)}" alt="initial setup"/>')
    parts.append("<h2>Endings</h2>")
    for ending in endings:
        parts.append('<div class="ending">')
        parts.append(f'<p>{escape(ending["text"])}</p>')
        parts.append(f'<img src="{escape(ending["before"])}" alt="before"/>')
        parts.append(f'<img src="{escape(ending["after"])}" alt="after"/>')
        parts.append("</div>")
    parts.append("<h2>Moves</h2>")
    parts.extend(_moves_html(moves))
    parts.append("</body>")
    parts.append("</html>")
    html = "\n".join(parts) + "\n"

    manifest = {
        "game": spec.name,
        "sections": list(SECTIONS),
        "rules": translation,
        "heuristics": {
            "lines": heuristics,
            "placeholder": strategy_lines is None or not strategy_lines,
        },
        "setup": {"image": setup_image},
        "endings": endings,
        "moves": {"leaves": moves, "tree": _moves_tree(moves)},
    }
    return html, manifest


def check_assets(manifest: dict, game_dir: Path) -> None:
    """Verify that every image referenced by the manifest exists on disk."""
    refs = [manifest["setup"]["image"]]
    refs += [e[k] for e in manifest["endings"] for k in ("before", "after")]
    refs += [m[k] for m in manifest["moves"]["leaves"] for k in ("before", "after")]
    for ref in refs:
        if not (game_dir / ref).is_file():
            raise MissingAsset(f"manual references missing asset '{ref}'")
