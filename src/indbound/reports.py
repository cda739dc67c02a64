"""The JSON certificate of a verification run, and DOT export.

CertificateDocument holds the report of each step a run made and is the one
place the certificate is assembled, statement1.exceptions included; its
verdict and undecided count read the reports.  The layout is stable;
wall-clock measurements live only under "timing" keys so reproducibility
comparisons can strip them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from . import __version__
from .local import Appearance
from .products import MAX_DEGREE, PRECISION_CAP, PRECISION_START, FFactReport
from .search import RegularReport, SearchReport, pattern_json


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
    fact_check: FFactReport | None = None
    regular: list[RegularReport] = field(default_factory=list)
    statement2: SearchReport | None = None
    stage1: SearchReport | None = None
    stage2: SearchReport | None = None
    timing: dict = field(default_factory=dict)

    def undecided_count(self) -> int:
        searches = [r for r in (self.statement2, self.stage1, self.stage2) if r is not None]
        return sum(len(r.undecided) for r in self.regular) + sum(r.tally["undecided"] for r in searches)

    @property
    def overall(self) -> str:
        """PASS when the run verified something and every step passed; a
        step with an undecided comparison does not pass."""
        reports = [r for r in (self.fact_check, *self.regular, self.statement2, self.stage1,
                               self.stage2) if r is not None]
        return "PASS" if reports and all(r.passed for r in reports) else "FAIL"

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.to_json(),
            "fact_check": _step_json(self.fact_check),
            "regular": [r.to_json() for r in self.regular],
            "statement2": _step_json(self.statement2),
            "statement1": {
                "stage1": _step_json(self.stage1),
                "exceptions": _exceptions_json(self.stage1),
                "stage2": _step_json(self.stage2),
            },
            "overall": self.overall,
            "timing": self.timing,
        }


def _step_json(rep: FFactReport | SearchReport | None) -> dict | None:
    return None if rep is None else rep.to_json()


def _exceptions_json(stage1: SearchReport | None) -> list[dict]:
    """Each exceptional pattern of stage 1 with its level-0..3 appearances."""
    if stage1 is None:
        return []
    return [{"pattern": pattern_json(cfg),
             "appearances": [_appearance_json(ap) for ap in stage1.appearances if ap.config == cfg]}
            for cfg in stage1.exceptional_patterns]


def _appearance_json(ap: Appearance) -> dict:
    levels, edges = ap.leveled_graph()
    return {"level_sizes": [len(lv) for lv in levels], "edges": [list(e) for e in edges]}


def write_json(obj, path: str | Path) -> None:
    """The one layout of every JSON file the CLI writes, the certificate
    included: sorted keys, indent 2, a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
