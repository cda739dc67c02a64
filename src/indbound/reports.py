"""Certificate assembly, JSON serialization, and DOT export.

The JSON certificate is the machine-readable record of a verification run.
Its layout is stable; wall-clock measurements live only under "timing" keys
so reproducibility comparisons can strip them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from . import __version__
from .local import Appearance
from .products import MAX_DEGREE, PRECISION_CAP, PRECISION_START
from .search import SearchReport


@dataclass
class RunConfig:
    subcommand: str
    delta: int = MAX_DEGREE
    statement: int | None = None
    jobs: int = 1
    precision_bits: int = PRECISION_START
    precision_cap: int = PRECISION_CAP
    json_path: str | None = None
    dot_dir: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class CertificateDocument:
    config: RunConfig
    fact_check: dict | None = None
    regular: list[dict] = field(default_factory=list)
    statement2: SearchReport | None = None
    stage1: SearchReport | None = None
    stage2: SearchReport | None = None
    exceptions: list[dict] = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    def sub_verdicts(self) -> list[bool]:
        out = []
        if self.fact_check is not None:
            out.append(self.fact_check["verdict"] == "PASS")
        out.extend(r["verdict"] == "PASS" for r in self.regular)
        for rep in (self.statement2, self.stage1, self.stage2):
            if rep is not None:
                out.append(rep.passed)
        return out

    def undecided_count(self) -> int:
        total = sum(len(r.get("undecided", ())) for r in self.regular)
        for rep in (self.statement2, self.stage1, self.stage2):
            if rep is not None:
                total += rep.tally.get("undecided", 0)
        return total

    @property
    def overall(self) -> str:
        verdicts = self.sub_verdicts()
        if verdicts and all(verdicts) and self.undecided_count() == 0:
            return "PASS"
        return "FAIL"

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.to_json(),
            "fact_check": self.fact_check,
            "regular": self.regular,
            "statement2": self.statement2.to_json() if self.statement2 else None,
            "statement1": {
                "stage1": self.stage1.to_json() if self.stage1 else None,
                "exceptions": self.exceptions,
                "stage2": self.stage2.to_json() if self.stage2 else None,
            },
            "overall": self.overall,
            "timing": self.timing,
        }


def dumps_certificate(doc: CertificateDocument) -> str:
    return json.dumps(doc.to_json(), indent=2, sort_keys=True) + "\n"


def write_certificate(doc: CertificateDocument, path: str | Path) -> None:
    Path(path).write_text(dumps_certificate(doc))


def appearance_to_dot(ap: Appearance, name: str) -> str:
    """DOT drawing of one exceptional appearance: root on top, one rank per
    level, deterministic bytes."""
    levels, edges = ap.leveled_graph()
    lines = [f"graph {name} {{"]
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=circle, width=0.25, label=""];')
    for i, level in enumerate(levels):
        members = " ".join(f"v{v};" for v in level)
        lines.append(f"  {{ rank=same; /* level {i} */ {members} }}")
    for u, v in edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_exception_dots(appearances: Sequence[Appearance], out_dir: str | Path) -> list[Path]:
    """Write one DOT file per appearance into out_dir (created if missing);
    re-running produces identical bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, ap in enumerate(appearances, start=1):
        name = f"exception_{i:02d}"
        path = out / f"{name}.dot"
        path.write_text(appearance_to_dot(ap, name))
        written.append(path)
    return written
