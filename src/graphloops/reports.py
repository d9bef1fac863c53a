"""Machine-readable run reports (stable JSON and CSV renderings)."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field


def render_number(x) -> str:
    """12 significant digits for a float, stable across runs; str otherwise."""
    return format(x, ".12g") if isinstance(x, float) else str(x)


@dataclass
class ReportRow:
    name: str
    value: float
    expected: float | None = None

    @property
    def abs_err(self) -> float | None:
        if self.expected is None:
            return None
        return abs(self.value - self.expected)


@dataclass
class RunReport:
    command: str
    graph_digest: str
    parameters: dict = field(default_factory=dict)
    rows: list[ReportRow] = field(default_factory=list)
    seed: int | None = None
    wall_time_s: float = 0.0

    def add(self, name: str, value, expected=None):
        self.rows.append(ReportRow(name, value, expected))

    def ok(self, tol: float) -> bool:
        return all(r.abs_err is None or r.abs_err <= tol for r in self.rows)


def graph_digest(g) -> str:
    blob = json.dumps(g.to_json_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def emit_report(report: RunReport, fmt: str = "json") -> bytes:
    rows = [{"name": r.name, "value": render_number(r.value),
             "expected": None if r.expected is None else render_number(r.expected),
             "abs_err": None if r.abs_err is None else render_number(r.abs_err)}
            for r in report.rows]
    if fmt == "json":
        doc = {
            "command": report.command,
            "graph_digest": report.graph_digest,
            "parameters": {k: report.parameters[k] for k in sorted(report.parameters)},
            "rows": rows,
            "seed": report.seed,
            "wall_time_s": render_number(report.wall_time_s),
        }
        return (json.dumps(doc, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, ("name", "value", "expected", "abs_err"),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")
