"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the op passed.
The references are the independent ones in `tests/`: the goldens for rule
translations, `oracles.enumerate_signatures` for the taxonomy leaves, and the
brute-force line scan and union-find connectivity for winning sites.
"""

from __future__ import annotations

import json
from pathlib import Path

import oracles

SECTIONS = ["Rules", "Heuristics", "Setup", "Endings", "Moves"]


def site_index(label: str, size: int) -> int:
    """Row-major index (from the bottom-left) of a label such as "C7"."""
    return (int(label[1:]) - 1) * size + ord(label[0]) - ord("A")


def hex_sides(size: int) -> dict[int, tuple[set[int], set[int]]]:
    """Each player's two target sides on the hex diamond (NE/SW rows, NW/SE columns)."""
    rows = [{r * size + c for c in range(size)} for r in (size - 1, 0)]
    cols = [{r * size + c for r in range(size)} for c in (0, size - 1)]
    return {1: (rows[0], rows[1]), 2: (cols[0], cols[1])}


def leaf_signatures(manifest: dict) -> set[tuple]:
    return {(leaf["mover"], leaf["piece"], leaf["origin_ludeme"], tuple(leaf["action_types"]))
            for leaf in manifest["moves"]["leaves"]}


def check_manual(game_dir: Path, spec, expected_rules: str) -> tuple[dict | None, list[str]]:
    """Sections, rules text and taxonomy leaves of one generated manual."""
    try:
        manifest = json.loads((game_dir / "manual.json").read_text())
    except (OSError, ValueError) as exc:
        return None, [f"{game_dir.name}: unreadable manual.json: {exc}"]
    problems = []
    if manifest["sections"] != SECTIONS:
        problems.append(f"{game_dir.name}: sections {manifest['sections']}")
    if manifest["rules"] != expected_rules:
        problems.append(f"{game_dir.name}: rules text differs from the golden")
    expected = oracles.enumerate_signatures(spec)
    got = leaf_signatures(manifest)
    if got != expected:
        problems.append(f"{game_dir.name}: taxonomy leaves {sorted(got, key=repr)} "
                        f"!= oracle {sorted(expected, key=repr)}")
    return manifest, problems


def check_hex_endings(manifest: dict, size: int) -> list[str]:
    """Every Hex ending is a win whose winning sites alone join the winner's sides."""
    problems = []
    sides = hex_sides(size)
    for ending in manifest["endings"]:
        result = ending["result"]
        sites = ending["winning_sites"] or []
        if result["outcome"] != "Win" or len(result["players"]) != 1 or not sites:
            problems.append(f"Hex: unexpected ending {result} with sites {sites}")
            continue
        occupied = {site_index(s, size) for s in sites}
        if not oracles.hex_sides_connected(size, occupied, *sides[result["players"][0]]):
            problems.append(f"Hex: winning sites {sites} do not connect the winner's sides")
    if not manifest["endings"]:
        problems.append("Hex: no endings")
    return problems


def check_tictactoe_endings(manifest: dict) -> list[str]:
    """Each win's sites, alone on an empty board, form a line through every site."""
    problems = []
    wins = 0
    for ending in manifest["endings"]:
        result, sites = ending["result"], ending["winning_sites"]
        if result["outcome"] != "Win":
            continue
        wins += 1
        winner = result["players"][0]
        contents: list = [None] * 9
        for s in sites or []:
            contents[site_index(s, 3)] = ("piece", winner)
        if len(sites or []) != 3 or not all(
                oracles.ttt_line_through(contents, site_index(s, 3)) for s in sites):
            problems.append(f"Tic-Tac-Toe: winning sites {sites} are not a line")
    if not wins:
        problems.append("Tic-Tac-Toe: no winning ending to check")
    return problems


def check_dumps(game_dir: Path, manifest: dict) -> list[str]:
    """`--format json` sidecars: taxonomy.json mirrors manual.json; traces.json is a list."""
    problems = []
    taxonomy = json.loads((game_dir / "taxonomy.json").read_text())
    if taxonomy["distinct_moves"] != manifest["moves"]["leaves"]:
        problems.append(f"{game_dir.name}: taxonomy.json differs from manual.json leaves")
    # traces.json is several MB; its bracket ends are enough to show it was written whole.
    with open(game_dir / "traces.json", "rb") as f:
        head = f.read(1)
        f.seek(-2, 2)
        tail = f.read()
    if head != b"[" or tail != b"]\n":
        problems.append(f"{game_dir.name}: traces.json is not a complete JSON list")
    return problems


def check_index(out_dir: Path, names: list[str]) -> list[str]:
    try:
        index = (out_dir / "index.html").read_text()
    except OSError:
        return ["index.html missing"]
    return [f"index.html lacks {name}" for name in names
            if f'href="{name}/manual.html"' not in index]
