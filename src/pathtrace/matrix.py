"""Solution matrix assembled from validated scenario evidence.

Each cell of the per-protocol property table names the strongest
adversary model under which a validated corpus scenario claimed the
property holds (`AdvR` implies `AdvT`; no evidence renders `X`), with
numbered footnotes attached by break/weakness/caveat directives.  Cells
are pure functions of the executed scenario results: removing or
breaking a scenario changes the matrix deterministically, and nothing
here is hard-coded per protocol.

A corpus is complete when every protocol has validated scenarios under
both adversary models; anything less is reported as an incomplete-matrix
warning and a nonzero exit.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from pathtrace.protocols import PROTOCOLS
from pathtrace.scenario import EXIT_OK, FOOTNOTE_LEGEND, MATRIX_PROPERTIES, ScenarioResult, run_corpus

MODEL_RANK = {"X": 0, "AdvT": 1, "AdvR": 2}
RANK_MODEL = {rank: model for model, rank in MODEL_RANK.items()}
ROW_ORDER = ("burbridge", "rfchain", "resc", "stepauth", "ray", "tracker", "checker")
PROPERTY_ORDER = tuple(MATRIX_PROPERTIES.values())
PROPERTY_HEADERS = {
    "sound_sorted": "sorted+sound",
    "complete": "sorted+sound+complete",
    "authorized": "authorized",
    "privacy": "privacy",
}


class MatrixRow(NamedTuple):
    protocol: str
    architecture: str
    sound_sorted: str
    complete: str
    authorized: str
    privacy: str
    footnotes: tuple[int, ...]

    def cell(self, prop: str) -> str:
        return getattr(self, prop)


def _cell_string(rank: int, notes: set[int]) -> str:
    return RANK_MODEL[rank] + "".join(f"[{n}]" for n in sorted(notes))


def split_cell(cell: str) -> tuple[str, tuple[int, ...]]:
    """Inverse of the cell rendering: ('AdvT[1]' -> ('AdvT', (1,)))."""
    if "[" not in cell:
        return cell, ()
    base, _, rest = cell.partition("[")
    notes = tuple(int(p.rstrip("]")) for p in rest.split("[") if p)
    return base, notes


def build_matrix(results: list[ScenarioResult]) -> tuple[list[MatrixRow], list[str]]:
    warnings: list[str] = []
    ranks: dict[tuple[str, str], int] = {}
    notes: dict[tuple[str, str], set[int]] = {}
    exercised: dict[str, set[str]] = {}

    for result in sorted(results, key=lambda r: r.scenario.name):
        name = result.scenario.name
        protocol = result.scenario.config.protocol
        if result.exit_code != EXIT_OK:
            warnings.append(
                f"warning: scenario {name} exit={result.exit_code}; evidence ignored"
            )
            continue
        exercised.setdefault(protocol, set()).add(str(result.scenario.config.adversary))
        for directive in result.validated_directives:
            key = (protocol, directive.prop)
            if directive.action == "hold":
                rank = MODEL_RANK[directive.model]
                ranks[key] = max(ranks.get(key, 0), rank)
            else:
                notes.setdefault(key, set()).add(directive.footnote)

    rows: list[MatrixRow] = []
    for protocol in ROW_ORDER:
        if protocol not in exercised:
            warnings.append(
                f"warning: incomplete matrix, no validated scenarios for {protocol}"
            )
            continue
        for model in sorted({"AdvT", "AdvR"} - exercised[protocol]):
            warnings.append(
                f"warning: incomplete matrix, {protocol} not exercised under {model}"
            )
        cells = {}
        row_notes: set[int] = set()
        for prop in PROPERTY_ORDER:
            key = (protocol, prop)
            cell_notes = notes.get(key, set())
            cells[prop] = _cell_string(ranks.get(key, 0), cell_notes)
            row_notes |= cell_notes
        rows.append(
            MatrixRow(
                protocol=protocol,
                architecture=PROTOCOLS[protocol].architecture.capitalize(),
                sound_sorted=cells["sound_sorted"],
                complete=cells["complete"],
                authorized=cells["authorized"],
                privacy=cells["privacy"],
                footnotes=tuple(sorted(row_notes)),
            )
        )
    return rows, warnings


def render_table(rows: list[MatrixRow]) -> list[str]:
    headers = ["protocol", "architecture"] + [PROPERTY_HEADERS[p] for p in PROPERTY_ORDER]
    grid = [headers] + [
        [row.protocol, row.architecture] + [row.cell(p) for p in PROPERTY_ORDER]
        for row in rows
    ]
    widths = [max(len(line[i]) for line in grid) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in grid
    ]
    used = sorted({n for row in rows for n in row.footnotes})
    lines += [f"[{n}] {FOOTNOTE_LEGEND[n]}" for n in used]
    return lines


def render_records(rows: list[MatrixRow]) -> list[str]:
    lines = []
    for row in rows:
        for prop in PROPERTY_ORDER:
            base, cell_notes = split_cell(row.cell(prop))
            note_str = ",".join(str(n) for n in cell_notes) or "-"
            for model in ("AdvT", "AdvR"):
                holds = MODEL_RANK[model] <= MODEL_RANK[base]
                lines.append(
                    f"record protocol={row.protocol}"
                    f" architecture={row.architecture}"
                    f" property={prop}"
                    f" model={model}"
                    f" holds={str(holds).lower()}"
                    f" notes={note_str}"
                )
    return lines


def emit_matrix(directory: Path | str) -> tuple[int, list[str]]:
    """Run a corpus directory and assemble the full matrix report."""
    results = run_corpus(directory)
    rows, warnings = build_matrix(results)
    lines = [f"corpus scenarios={len(results)}"]
    for result in results:
        lines.append(
            f"scenario {result.scenario.name}"
            f" protocol={result.scenario.config.protocol}"
            f" kind={result.scenario.kind}"
            f" adversary={result.scenario.config.adversary}"
            f" exit={result.exit_code}"
        )
        lines += [f"  expect-failed {f}" for f in result.failures]
    lines.append("table-begin")
    lines += render_table(rows)
    lines.append("table-end")
    lines += render_records(rows)
    lines += warnings
    complete = not warnings and len(rows) == len(ROW_ORDER) and results
    if not results:
        lines.append("warning: no scenarios found")
    return (0 if complete else 1), lines
