"""Assemble translation, strategy, setup, endings and moves into a manual.

Output is a single static HTML page (well-formed XML, no scripts) plus a
machine-readable ``manual.json`` manifest describing the same structure.
Sections appear in the fixed order Rules, Heuristics, Setup, Endings,
Moves; the Moves section is a hierarchy mover -> piece -> origin rule ->
action types.
"""

from __future__ import annotations

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


def escape(text: str, quote: bool = False) -> str:
    """``html.escape(text, quote)`` with ``quote`` false unless given: ``&``, ``<``
    and ``>``, and with ``quote`` also ``"`` and ``'``.  Importing ``html``
    would load ``html.entities`` too.

    The manual needs no ``quote``: no text written into an attribute value
    here can hold a double quote, because .lud strings cannot.
    """
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if quote:
        text = text.replace('"', "&quot;").replace("'", "&#x27;")
    return text


def _mover_label(mover) -> str:
    return "All players" if mover is None else f"Player {mover}"


def _move_groups(moves: list[dict]) -> dict:
    """The manifest's moves tree: mover label -> piece -> origin rule -> actions -> leaf index.

    Each level keeps first-seen order.  An origin rule is keyed by its text,
    with its ludeme id appended when another origin under the same piece has
    the same text; its leaves are keyed by their ``", "``-joined action types.
    """
    groups: dict = {}
    for i, leaf in enumerate(moves):
        pieces = groups.setdefault(_mover_label(leaf["mover"]), {})
        origins = pieces.setdefault(leaf["piece"], {})
        rule = (leaf["origin_ludeme"], leaf["rule_text"])
        origins.setdefault(rule, {})[", ".join(leaf["action_types"])] = i
    for pieces in groups.values():
        for piece, origins in pieces.items():
            texts = [text for _, text in origins]
            pieces[piece] = {
                text if texts.count(text) == 1 else f"{text} (ludeme {origin})": leaves
                for (origin, text), leaves in origins.items()}
    return groups


def _moves_html(moves: list[dict], groups: dict) -> list[str]:
    # Hierarchy levels with a single child are collapsed visually (their
    # heading is omitted); manual.json preserves the full structure.
    parts: list[str] = []
    for mover_label, pieces in groups.items():
        parts.append(f'<div class="mover-group" data-mover="{escape(mover_label)}">')
        if len(groups) > 1:
            parts.append(f"<h3>{escape(mover_label)}</h3>")
        for piece, rules in pieces.items():
            parts.append(f'<div class="piece-group" data-piece="{escape(piece)}">')
            if len(pieces) > 1:
                parts.append(f"<h4>{escape(piece)}</h4>")
            for leaves in rules.values():
                parts.append('<div class="rule-group">')
                parts.append(f"<p>{escape(moves[next(iter(leaves.values()))]['rule_text'])}</p>")
                for actions, i in leaves.items():
                    parts.append('<div class="leaf">')
                    if len(leaves) > 1:
                        parts.append(f'<p class="actions">Actions: {escape(actions)}</p>')
                    parts.append(f'<img src="{escape(moves[i]["before"])}" alt="before"/>')
                    parts.append(f'<img src="{escape(moves[i]["after"])}" alt="after"/>')
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
    {mover, piece, origin_ludeme, rule_text, action_types, before, after, id}.

    The HTML Moves section and the manifest's ``moves.tree`` are one
    grouping.  Within one rule group the action labels are distinct, because
    each leaf is a distinct move signature, so the tree loses no leaf.
    """
    heuristics = strategy_lines if strategy_lines else [NO_STRATEGY_PLACEHOLDER]
    groups = _move_groups(moves)

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
    parts.extend(_moves_html(moves, groups))
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
        "moves": {"leaves": moves, "tree": groups},
    }
    return html, manifest


def check_assets(manifest: dict, files: dict[str, str]) -> None:
    """Verify that every image the manifest references is among ``files``, the
    game's files by path (see ``pipeline.generate``), before any is written."""
    refs = [manifest["setup"]["image"]]
    refs += [e[k] for e in manifest["endings"] for k in ("before", "after")]
    refs += [m[k] for m in manifest["moves"]["leaves"] for k in ("before", "after")]
    for ref in refs:
        if ref not in files:
            raise MissingAsset(f"manual references missing asset '{ref}'")
