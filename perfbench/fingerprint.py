"""The pinned fingerprint of a `verify-all --statement 1` certificate.

The values come from the fingerprint in ROADMAP.md.  Aggregate counts are
read as the sum of a stage's tally, so they do not depend on the duplicated
`configs_*` keys.  A missing key counts as a miss.  Statement 2 is not part
of the benchmark's command and must be absent from its certificate.
"""

from __future__ import annotations

import hashlib
import json

REGULAR_PROFILES = {1: 1, 2: 2, 3: 7, 4: 34, 5: 192}
STAGE1_TALLY = {"strict": 103_212, "equal": 15, "failing": 9, "undecided": 0}
STAGE1_APPEARANCES = 14
STAGE2_TALLY = {"strict": 129, "equal": 0, "failing": 0, "undecided": 0}
STAGE2_COMPLETIONS = 160
STAGE2_ROOTINGS = 17
# keys stripped before certificates from different --jobs values are compared
VOLATILE_KEYS = ("timing", "jobs", "json_path")


def _get(cert: dict, path: tuple):
    for key in path:
        cert = cert[key]
    return cert


S1 = ("statement1", "stage1")
S2 = ("statement1", "stage2")
CHECKS = (
    ("factor fact cases", ("fact_check", "cases"), 100),
    ("factor fact failures", ("fact_check", "failures"), 0),
    ("statement 2", ("statement2",), None),
    ("stage 1 tally", (*S1, "tally"), STAGE1_TALLY),
    ("stage 1 appearances", (*S1, "appearances"), STAGE1_APPEARANCES),
    ("stage 1 appearances match the reference", (*S1, "appearances_match_expected"), True),
    ("stage 2 tally", (*S2, "tally"), STAGE2_TALLY),
    ("stage 2 completions", (*S2, "configs_enumerated"), STAGE2_COMPLETIONS),
    ("stage 2 rootings", (*S2, "rootings"), STAGE2_ROOTINGS),
    ("overall", ("overall",), "PASS"),
)


def misses(cert: dict) -> list[str]:
    """Every way the certificate differs from the fingerprint; empty when it
    matches."""
    out = []
    try:
        regular = {r["d"]: (r["profiles"], len(r["equalities"])) for r in cert["regular"]}
    except (KeyError, TypeError) as e:
        regular = f"missing ({type(e).__name__}: {e})"
    want = {d: (p, 1) for d, p in REGULAR_PROFILES.items()}
    if regular != want:
        out.append(f"regular case (profiles, equalities): {regular!r}, expected {want!r}")
    for what, path, want in CHECKS:
        try:
            got = _get(cert, path)
        except (KeyError, IndexError, TypeError) as e:
            out.append(f"{what}: missing ({type(e).__name__}: {e})")
            continue
        if got != want:
            out.append(f"{what}: {got!r}, expected {want!r}")
    return out


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def stripped_digest(cert: dict) -> str:
    """Digest of the certificate without timing, jobs and json_path; equal
    for every --jobs value."""
    text = json.dumps(_strip(cert), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
