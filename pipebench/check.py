"""Correctness gate applied to every benchmark pipeline.

An operation is one generated input line.  A line fails when it was valid
and did not come back byte for byte from ``decrypt``, when it was planted
bad and its ``.errors`` sidecar entry is missing or gives another reason, or
when any command of the pipeline exited non-zero (then every line fails).
"""

from __future__ import annotations

import difflib
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Expected


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    restored: int = 0  # lines in the decrypted tree
    problems: list[str] = field(default_factory=list)
    tree_sha256: str = ""
    map_sha256: str = ""
    line_exact_share: float = 0.0  # accepted lines restored exactly
    cli_omr: float | None = None  # what `geofpe eval accuracy` reported


def tree_digest(root: Path) -> str:
    """sha256 over every file of a directory tree, names included, sorted."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sidecar(path: Path) -> dict[int, str]:
    if not path.is_file():
        return {}
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        number, _, reason = line.partition(": ")
        entries[int(number)] = reason
    return entries


def _lost_or_altered(expected: str, got: str) -> int:
    want = expected.splitlines(keepends=True)
    have = got.splitlines(keepends=True)
    matcher = difflib.SequenceMatcher(None, want, have, autojunk=False)
    return len(want) - sum(block.size for block in matcher.get_matching_blocks())


def check_pipeline(
    expected: Expected,
    exit_codes: dict[str, int],
    enc_dir: Path,
    dec_dir: Path,
    map_path: Path,
    report_dir: Path,
) -> Verdict:
    verdict = Verdict(attempted=expected.lines)
    bad_commands = {cmd: rc for cmd, rc in exit_codes.items() if rc != 0}
    if bad_commands:
        verdict.failed = expected.lines
        verdict.problems.append(f"non-zero exit: {bad_commands}")
        return verdict

    lost = 0
    for name, text in expected.texts.items():
        dec_path = dec_dir / name
        got = dec_path.read_text(encoding="utf-8") if dec_path.is_file() else ""
        verdict.restored += got.count("\n")
        if got != text:
            n = _lost_or_altered(text, got)
            lost += n
            verdict.problems.append(f"{name}: {n} valid lines lost or altered")
        sidecar = _sidecar(enc_dir / f"{name}.errors")
        for line_no, reason in expected.bad[name].items():
            if not sidecar.get(line_no, "").startswith(reason):
                verdict.failed += 1
                verdict.problems.append(
                    f"{name}:{line_no}: planted bad line not reported as {reason!r}"
                )
    verdict.failed += lost
    accepted = expected.accepted
    verdict.line_exact_share = (accepted - lost) / accepted if accepted else 1.0
    verdict.tree_sha256 = tree_digest(enc_dir)
    verdict.map_sha256 = file_digest(map_path)
    accuracy = report_dir / "accuracy.json"
    if accuracy.is_file():
        verdict.cli_omr = json.loads(accuracy.read_text(encoding="utf-8"))["omr"]
    return verdict
