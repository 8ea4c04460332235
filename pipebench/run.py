#!/usr/bin/env python3
"""End-to-end benchmark of the geofpe batch pipeline: encrypt -> decrypt -> eval.

Run from the repository root, with no install:

    python3 pipebench/run.py --workload hotspot-20k --seed 1 --seconds 50 --trace 0

The benchmark writes its own seeded inputs, then runs the real CLI
(``python -m geofpe.cli ...`` with ``PYTHONPATH=src``), one fresh child
process per command, in a closed loop: one command at a time, each started
when the previous one has ended.  Wall time and peak RSS of each child are
measured from outside.  Every pipeline passes the correctness gate in
``check.py``; the digests of the encrypted tree and map must not change
between runs of one seed.

``--trace 1`` instead runs one untraced pipeline, then the same pipeline
in this process with every geofpe layer wrapped (``tracing.py``), and
reports per-layer counters, the tracing overhead and the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
benchmark writes goes under ``.pipebench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from check import Verdict, check_pipeline
from workloads import Expected, key_for, write_hotspot, write_walk

ROOT = Path.cwd()
WORK = ROOT / ".pipebench"

SETUP_FIRST = 3  # set-up processes before the first pipeline ...
SETUP_BETWEEN = 2  # ... and after each pipeline; setup_s is their median
MAX_PIPELINES = 30
CHILD_TIMEOUT_S = 60  # a hung command is killed and fails its pipeline

END_TO_END_UNITS = {
    "encrypt_pts_per_s": "pts/s",
    "decrypt_pts_per_s": "pts/s",
    "eval_s": "s",
    "pipeline_s": "s",
    "setup_s": "s",
    "encrypt_rss_b_per_pt": "B/pt",
    "decrypt_rss_b_per_pt": "B/pt",
    "map_bytes_per_pt": "B/pt",
}

# Per-layer metrics of the traced run.  ``<key>.calls``, ``<key>.s`` (busy)
# and ``<key>.self_s`` come from the wrapper counters; the rest are read off
# results or derived from the inputs.
PER_LAYER_UNITS = {
    "cipher.tweak.calls": "count",
    "cipher.tweak.s": "s",
    "cipher.tweak.distinct_share": "share",
    "cipher.encrypt_rounds.calls": "count",
    "cipher.encrypt_rounds.s": "s",
    "cipher.encrypt_component.self_s": "s",
    "ranges.mask_width.s": "s",
    "ranges.range_constrain.s": "s",
    "ranges.fraction_constrain.s": "s",
    "sm4.derive_round_keys.s": "s",
    "coords.decompose.calls": "count",
    "coords.decompose.s": "s",
    "coords.recombine.calls": "count",
    "coords.recombine.s": "s",
    "coords.validate_point.s": "s",
    "dataset.scan_file.calls": "count",
    "dataset.scan_file.s": "s",
    "dataset.encrypt_dataset.self_s": "s",
    "dataset.decrypt_dataset.self_s": "s",
    "dataset.load_plain_points.s": "s",
    "dataset.load_points_auto.s": "s",
    "dataset.stratified_sample.s": "s",
    "dataset.rejected_lines": "count",
    "mapstore.record.calls": "count",
    "mapstore.record.s": "s",
    "mapstore.record.conflicts": "count",
    "mapstore.save.s": "s",
    "mapstore.load.s": "s",
    "mapstore.lookup_exact.calls": "count",
    "mapstore.lookup_exact.s": "s",
    "mapstore.lookup_fuzzy.calls": "count",
    "mapstore.entries": "count",
    "mapstore.conflict_rate.lon_int": "share",
    "mapstore.conflict_rate.lon_frac": "share",
    "mapstore.conflict_rate.lat_int": "share",
    "mapstore.conflict_rate.lat_frac": "share",
    "metrics.dbscan.calls": "count",
    "metrics.dbscan.points": "count",
    "metrics.dbscan.s": "s",
    "metrics.rdr_trajectory.calls": "count",
    "metrics.rdr_trajectory.s": "s",
    "metrics.haversine.calls": "count",
    "metrics.accuracy.s": "s",
    "metrics.hotspot_analysis.self_s": "s",
}

EVAL_COMMANDS = ("eval accuracy", "eval rdr", "eval hotspots")


@dataclass(frozen=True)
class Workload:
    generate: Callable[[Path, str], Expected]
    workers: int  # --workers for encrypt and decrypt
    hotspot_sample: int | None  # --sample-size for eval hotspots; None = CLI default


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Why each workload, and its measured share of repeated (kind, value, digits)
# components, is recorded in BENCHMARK.json.
WORKLOADS = {
    "hotspot-20k": Workload(
        generate=lambda out, seed: write_hotspot(out, seed, sys.executable, _child_env()),
        workers=1,
        hotspot_sample=8000,
    ),
    "walk-40k": Workload(generate=write_walk, workers=2, hotspot_sample=None),
}


class Paths:
    def __init__(self, base: Path) -> None:
        self.base = base
        self.orig = base / "orig"
        self.enc = base / "enc"
        self.dec = base / "dec"
        self.reports = base / "reports"
        self.map = base / "store.map"
        self.key = base / "bench.key"
        self.logs = base / "logs"

    def fresh(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        self.logs.mkdir(parents=True)

    def clear_outputs(self) -> None:
        for d in (self.enc, self.dec, self.reports):
            shutil.rmtree(d, ignore_errors=True)
        self.map.unlink(missing_ok=True)

    def log(self, label: str) -> Path:
        return self.logs / (label.replace(" ", "_") + ".log")


def commands(wl: Workload, p: Paths) -> list[tuple[str, list[str]]]:
    """The CLI argument lists of one pipeline, in the order they run."""
    workers = str(wl.workers)
    sample = ["--sample-size", str(wl.hotspot_sample)] if wl.hotspot_sample else []
    return [
        ("encrypt", ["encrypt", "--input", str(p.orig), "--output", str(p.enc),
                     "--key", str(p.key), "--map", str(p.map), "--workers", workers]),
        ("decrypt", ["decrypt", "--input", str(p.enc), "--output", str(p.dec),
                     "--key", str(p.key), "--map", str(p.map), "--workers", workers]),
        ("eval accuracy", ["eval", "accuracy", "--orig", str(p.orig), "--dec", str(p.dec),
                           "--out", str(p.reports)]),
        ("eval rdr", ["eval", "rdr", "--orig", str(p.orig), "--enc", str(p.enc),
                      "--out", str(p.reports)]),
        ("eval hotspots", ["eval", "hotspots", "--orig", str(p.orig), "--enc", str(p.enc),
                           "--dec", str(p.dec), "--out", str(p.reports), *sample]),
    ]


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    wall_s: float
    exit_code: int
    peak_rss_b: int


def run_child(argv: list[str], log_path: Path) -> Child:
    """Run one child to completion; wall time from outside, peak RSS of this
    child alone from ``os.wait4`` (RUSAGE_CHILDREN would give the maximum
    over every child so far)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            killer.join()
    return Child(wall, proc.returncode, usage.ru_maxrss * 1024)


SETUP_CODE = (
    "import sys, geofpe, geofpe.cli as cli\n"
    "key = cli.load_key(sys.argv[1])\n"
    "cli.CoordinateCipher(key)\n"
    "cli.MappingStore()\n"
    "print(geofpe.BACKEND)\n"
)


def measure_setup(p: Paths) -> float:
    """Wall time of one fresh process that imports geofpe.cli, loads the key
    and builds the cipher and the store: what every encrypt pays before its
    first line.  It prints ``geofpe.BACKEND`` to the set-up log."""
    log = p.log("setup")
    child = run_child([sys.executable, "-c", SETUP_CODE, str(p.key)], log)
    if child.exit_code != 0:
        raise RuntimeError(f"set-up process failed:\n{log.read_text()}")
    return child.wall_s


# ---------------------------------------------------------------------------
# Pipelines


def end_to_end(expected: Expected, restored: int, walls: dict[str, float],
               rss: dict[str, int], map_bytes: int) -> dict[str, float]:
    accepted = expected.accepted
    eval_s = sum(walls[c] for c in EVAL_COMMANDS)
    return {
        "encrypt_pts_per_s": accepted / walls["encrypt"],
        "decrypt_pts_per_s": restored / walls["decrypt"],
        "eval_s": eval_s,
        "pipeline_s": walls["encrypt"] + walls["decrypt"] + eval_s,
        "encrypt_rss_b_per_pt": rss["encrypt"] / accepted,
        "decrypt_rss_b_per_pt": rss["decrypt"] / accepted,
        "map_bytes_per_pt": map_bytes / accepted,
    }


def _tamper(dec_dir: Path) -> None:
    """Change the last digit of the first restored line (``--tamper``)."""
    path = min(dec_dir.glob("*.txt"))
    text = path.read_text(encoding="utf-8")
    cut = text.index("\n") - 1
    digit = "1" if text[cut] != "1" else "2"
    path.write_text(text[:cut] + digit + text[cut + 1:], encoding="utf-8")


def _gate(expected: Expected, exit_codes: dict[str, int], p: Paths) -> Verdict:
    return check_pipeline(expected, exit_codes, p.enc, p.dec, p.map, p.reports)


def _map_bytes(p: Paths) -> int:
    return p.map.stat().st_size if p.map.is_file() else 0


def timed_pipeline(wl: Workload, p: Paths, expected: Expected,
                   tamper: bool) -> tuple[dict[str, Child], Verdict]:
    p.clear_outputs()
    children = {}
    for label, argv in commands(wl, p):
        children[label] = run_child([sys.executable, "-m", "geofpe.cli", *argv], p.log(label))
        if label == "decrypt" and tamper:
            _tamper(p.dec)
    exit_codes = {label: c.exit_code for label, c in children.items()}
    return children, _gate(expected, exit_codes, p)


@dataclass
class TimedRun:
    figures: dict[str, float]  # end-to-end metrics
    verdicts: list[Verdict]
    record: dict  # raw per-pipeline figures for the results file


def timed_run(wl: Workload, p: Paths, expected: Expected, seconds: float,
              tamper: bool, max_pipelines: int = MAX_PIPELINES) -> TimedRun:
    """Pipelines while the next one is expected to end within ``seconds``,
    with set-up processes in between; each metric is its median over them."""
    setups = [measure_setup(p) for _ in range(SETUP_FIRST)]
    pipelines: list[dict[str, Child]] = []
    verdicts: list[Verdict] = []
    rows: list[dict[str, float]] = []
    start = time.perf_counter()
    last = 0.0
    while len(pipelines) < max_pipelines and (
            not pipelines or time.perf_counter() - start + last <= seconds):
        began = time.perf_counter()
        children, verdict = timed_pipeline(wl, p, expected, tamper)
        rows.append(end_to_end(
            expected, verdict.restored,
            {c: child.wall_s for c, child in children.items()},
            {c: child.peak_rss_b for c, child in children.items()},
            _map_bytes(p),
        ))
        pipelines.append(children)
        verdicts.append(verdict)
        setups += [measure_setup(p) for _ in range(SETUP_BETWEEN)]
        last = time.perf_counter() - began
    figures = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    figures["setup_s"] = statistics.median(setups)
    record = {
        "pipelines": [{c: vars(child) for c, child in run.items()} for run in pipelines],
        "setup_s": setups,
    }
    return TimedRun(figures, verdicts, record)


def traced_pipeline(wl: Workload, p: Paths, expected: Expected):
    """The same pipeline in this process with every layer wrapped.

    Returns the traced end-to-end figures, the gate verdict, the per-layer
    metrics and the spans.  geofpe is first imported here, so the traced
    set-up time covers the import as the untraced one does.
    """
    from tracing import Tracer, layer_value

    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    start = time.perf_counter()
    import geofpe.cli as cli

    tracer.install()
    try:
        tracer.wrap("command.setup", _setup)(cli, p.key)
        setup_s = time.perf_counter() - start
        p.clear_outputs()
        exit_codes = {}
        for label, argv in commands(wl, p):
            run_command = tracer.wrap(f"command.{label}", _call_main)
            with open(p.log(f"traced {label}"), "w", encoding="utf-8") as log:
                with contextlib.redirect_stdout(log):
                    exit_codes[label] = run_command(cli.main, argv, log)
    finally:
        tracer.restore()
    stats = tracer.stats()
    verdict = _gate(expected, exit_codes, p)
    walls = {label: stats[f"command.{label}"][1] for label, _ in commands(wl, p)}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    metrics = end_to_end(expected, verdict.restored, walls,
                         {"encrypt": peak, "decrypt": peak}, _map_bytes(p))
    metrics["setup_s"] = setup_s

    extra = dict(tracer.extra)
    tweaks = stats.get("cipher.tweak", (0,))[0]
    extra["cipher.tweak.distinct_share"] = expected.distinct_components() / tweaks if tweaks else 0.0
    layers = {name: layer_value(name, stats, extra) for name in PER_LAYER_UNITS}
    if tracer.missing:
        print(f"  not traced, absent from geofpe: {', '.join(tracer.missing)}")
    return metrics, verdict, layers, tracer.spans()


def _setup(cli, key_path: Path) -> None:
    cli.CoordinateCipher(cli.load_key(key_path))
    cli.MappingStore()


def _call_main(main, argv: list[str], log) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash in one command fails the pipeline, not the benchmark
        traceback.print_exc(file=log)
        return 1


# ---------------------------------------------------------------------------
# Reporting


def environment(seed: str, backend: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                sha = out.stdout.strip()
        except OSError:
            pass
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
    }


def digest_problems(workload: str, seed: str, verdicts: list[Verdict]) -> list[str]:
    """The encrypted tree and the map must be the same in every pipeline of
    this run and in every earlier run of the same workload and seed."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{workload}:{seed}"
    problems = []
    for v in verdicts:
        if not v.tree_sha256:  # a command failed; the gate already counted it
            continue
        now = {"tree": v.tree_sha256, "map": v.map_sha256}
        if key not in known:
            known[key] = now
        elif known[key] != now:
            problems.append(f"digests {now} differ from an earlier run's {known[key]}")
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


def _metric_json(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _print_verdicts(expected: Expected, last: Verdict, attempted: int, failed: int,
                    problems: list[str], correct: bool) -> None:
    print(f"  {'failed_share':<34} {failed / attempted:.6g} share "
          f"({failed} of {attempted} lines)")
    omr = "n/a" if last.cli_omr is None else f"{last.cli_omr:.6f}"
    print(f"  accuracy: CLI OMR {omr}, line-level exact {last.line_exact_share:.6f} "
          f"of {expected.accepted} accepted lines")
    if last.cli_omr is not None and abs(last.cli_omr - last.line_exact_share) > 1e-12:
        print("  note: eval accuracy compares the original's uncleaned rows by position, "
              "so rejected lines lower its OMR although every accepted line may round-trip; "
              "reported, not gated")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(f"  correct: {str(correct).lower()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget; pipelines repeat while the next one fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="alter one decrypted line after each decrypt, to see the gate fail")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "geofpe" / "cli.py").is_file():
        print(f"error: {ROOT} has no src/geofpe; run from the repository root",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    seed = str(args.seed)
    p = Paths(WORK / args.workload)
    p.fresh()
    expected = wl.generate(p.orig, seed)
    p.key.write_bytes(key_for(seed))
    timed = timed_run(wl, p, expected, args.seconds, args.tamper,
                      max_pipelines=1 if args.trace else MAX_PIPELINES)
    env = environment(seed, p.log("setup").read_text().strip())
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    print(f"pipebench {args.workload} seed {seed}: {expected.lines} lines, "
          f"{expected.accepted} accepted")
    print("  environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    verdicts = list(timed.verdicts)
    record = dict(timed.record)
    if args.trace:
        traced, verdict, layers, spans = traced_pipeline(wl, p, expected)
        verdicts.append(verdict)  # so its digests must equal the untraced ones
        overhead = {k: traced[k] - timed.figures[k] for k in END_TO_END_UNITS}
        print("  tracing overhead (traced - untraced); the traced run is one process, so "
              "both RSS figures are its whole peak:")
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<34} {timed.figures[name]:>14.6g} -> {traced[name]:>14.6g} "
                  f"({overhead[name]:+.6g}) {unit}")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<34} {layers[name]:.6g} {unit}")
        (results / f"spans-{args.workload}-seed{seed}.json").write_text(json.dumps(spans))
        metrics = _metric_json(layers, PER_LAYER_UNITS)
        record.update(untraced=timed.figures, traced=traced, overhead=overhead,
                      per_layer=layers)
    else:
        print(f"  {len(verdicts)} pipeline(s); medians:")
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<34} {timed.figures[name]:.6g} {unit}")
        metrics = _metric_json(timed.figures, END_TO_END_UNITS)
        record.update(figures=timed.figures)

    problems = [q for v in verdicts for q in v.problems]
    problems += digest_problems(args.workload, seed, verdicts)
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    correct = failed == 0 and not problems
    _print_verdicts(expected, verdicts[-1], attempted, failed, problems, correct)
    record.update(
        environment=env, workload=args.workload, attempted=attempted, failed=failed,
        correct=correct, problems=problems[:100],
        cli_omr=[v.cli_omr for v in verdicts],
        line_exact_share=[v.line_exact_share for v in verdicts],
        tree_sha256=[v.tree_sha256 for v in verdicts],
        map_sha256=[v.map_sha256 for v in verdicts],
    )
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
