"""Batch command-line interface: keygen, encrypt, decrypt, synth, eval.

Exit codes: 0 success, 1 partial failure, 2 usage error.  All sampling and
synthesis randomness flows from explicit --seed flags; report files are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .cipher import BACKEND, KINDS, CoordinateCipher, map_fingerprint
from .dataset import (
    SynthConfig,
    decrypt_dataset,
    encrypt_dataset,
    generate_synthetic,
    load_plain_points,
    load_points_auto,
    stratified_sample,
)
from .mapstore import MappingStore, replacing
from . import metrics

log = logging.getLogger("geofpe.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("GEOFPE_LOG", "info").lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(name, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


def load_key(path) -> bytes:
    """Read a key file: 32 hex chars for .hex, 16 raw bytes otherwise."""
    path = Path(path)
    if path.suffix == ".hex":
        text = path.read_text(encoding="ascii").strip()
        try:
            key = bytes.fromhex(text)
        except ValueError:
            raise ValueError(f"{path}: not valid hex") from None
    else:
        key = path.read_bytes()
    if len(key) != 16:
        raise ValueError(f"{path}: expected a 128-bit key, got {len(key)} bytes")
    return key


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _parse_centers(text: str) -> list[tuple[float, float]]:
    centers = []
    if not text:
        return centers
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"bad center {chunk!r}, want lon,lat")
        centers.append((float(parts[0]), float(parts[1])))
    return centers


def _say(text: str) -> None:
    """print() that outlives a closed stdout (``| head -1``) via os.devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_json(path: Path, payload) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_keygen(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        print(f"error: {out} already exists (use --force to overwrite)", file=sys.stderr)
        return 1
    key = os.urandom(16)
    data = f"{key.hex()}\n".encode("ascii") if out.suffix == ".hex" else key
    with replacing(out, binary=True, perms=0o600) as fh:
        fh.write(data)
    _say(f"wrote key to {out}")
    return 0


def _print_store_summary(store: MappingStore) -> None:
    for kind in KINDS:
        _say(
            f"  {kind}: {store.entry_count(kind)} entries, "
            f"{store.conflicts(kind)} conflicts, "
            f"CR {float(store.conflict_rate(kind)):.6f}"
        )


def cmd_encrypt(args) -> int:
    key = load_key(args.key)
    cipher = CoordinateCipher(key)
    store = MappingStore()
    started = time.perf_counter()
    stats = encrypt_dataset(args.input, args.output, cipher, store)
    saving = time.perf_counter()
    store.save(args.map, map_fingerprint(key))
    log.debug(
        "save map %s: %s; %d coordinate ids, %d column bytes held, %d bytes in %.3fs",
        args.map, store.layout, store.entry_count("lon_int"), store.column_bytes(),
        os.path.getsize(args.map), time.perf_counter() - saving,
    )
    elapsed = time.perf_counter() - started
    _say(
        f"encrypted {stats.records} records from {stats.files} files "
        f"({stats.dropped} dropped, {stats.parse_errors} parse errors) "
        f"in {elapsed:.2f}s [{BACKEND} core]"
    )
    _print_store_summary(store)
    for failure in stats.failed_files:
        print(f"error: failed file {failure}", file=sys.stderr)
    return 1 if stats.failed_files else 0


def cmd_decrypt(args) -> int:
    # decryption is map-driven; the key only has to match the map's fingerprint
    key = load_key(args.key)
    started = time.perf_counter()
    store = MappingStore.load(args.map, map_fingerprint(key))
    log.debug(
        "load map %s: %s; %d coordinate ids, %d column bytes held, %d bytes in %.3fs",
        args.map, store.layout, store.entry_count("lon_int"), store.column_bytes(),
        os.path.getsize(args.map), time.perf_counter() - started,
    )
    started = time.perf_counter()
    stats = decrypt_dataset(args.input, args.output, store)
    elapsed = time.perf_counter() - started
    _say(
        f"decrypted {stats.records} records from {stats.files} files "
        f"({stats.record_errors} record errors, {stats.fuzzy_restored} fuzzy "
        f"fallbacks) in {elapsed:.2f}s"
    )
    for failure in stats.failed_files:
        print(f"error: failed file {failure}", file=sys.stderr)
    return 1 if stats.record_errors or stats.failed_files else 0


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_vehicles=args.vehicles,
        points_per_vehicle=args.points,
        centers=args.centers,
        hotspot_std=args.hotspot_std,
        seed=args.seed,
    )
    total = generate_synthetic(cfg, args.output)
    _say(f"wrote {cfg.n_vehicles} vehicles, {total} points to {args.output}")
    return 0


def _aligned_vehicles(orig, other, other_name: str, left_out=()) -> list[str]:
    """The vehicles of ``other``, which must be those of ``orig`` less the
    ``left_out`` ones, each with as many points as in ``orig``."""
    if set(orig) != set(other) | set(left_out):
        raise ValueError(
            f"vehicle sets differ between original and {other_name} datasets"
        )
    for vid in other:
        if len(orig[vid]) != len(other[vid]):
            raise ValueError(
                f"vehicle {vid}: {len(orig[vid])} original vs "
                f"{len(other[vid])} {other_name} points"
            )
    return sorted(other)


def _load_tree(loader, path, name: str, *args):
    started = time.perf_counter()
    tree = loader(path, *args)
    log.debug(
        "load %s %s: %d points in %d files in %.3fs; %d lines read one by one, "
        "%d exact float fallbacks, %d gather slices",
        name, path, len(tree.xy), len(tree.rows), time.perf_counter() - started,
        tree.line_path, tree.exact, tree.slices,
    )
    return tree


def cmd_eval_rdr(args) -> int:
    orig = _load_tree(load_plain_points, args.orig, "original")
    rejected = {}  # vehicle -> (line no, reason) of an encrypted line out of grammar
    enc = _load_tree(load_points_auto, args.enc, "encrypted", rejected)
    per_trajectory = {}
    skipped = {vid: f"line {line_no}: {reason}" for vid, (line_no, reason) in rejected.items()}
    started = time.perf_counter()
    for vid in _aligned_vehicles(orig.rows, enc.rows, "encrypted", rejected):
        try:
            per_trajectory[vid] = metrics.rdr_trajectory(
                orig[vid].tolist(), enc[vid].tolist(), n_samples=args.samples,
                seed=f"{args.seed}:{vid}",
            )
        except ValueError as exc:
            skipped[vid] = str(exc)
    log.debug(
        "rdr: %d trajectories (%d skipped) in %.3fs",
        len(per_trajectory), len(skipped), time.perf_counter() - started,
    )
    if not per_trajectory:
        print("error: no usable trajectories", file=sys.stderr)
        return 1
    values = [per_trajectory[vid] for vid in sorted(per_trajectory)]
    report = metrics.rdr_summary(values)
    report["per_trajectory"] = per_trajectory
    report["skipped"] = skipped

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "rdr.json", report)
    edges, counts = report["histogram"]["edges"], report["histogram"]["counts"]
    _write_csv(out / "rdr_histogram.csv", ["bin_start", "bin_end", "count"],
               zip(edges, edges[1:], counts))
    _write_csv(out / "rdr_cdf.csv", ["value", "cum_fraction"], report["cdf"])

    s = report["summary"]
    zero_ratio = s["zero_count"] / s["total"]
    _say(
        f"RDR over {s['total']} trajectories ({len(skipped)} skipped): "
        f"mean {s['mean']:.4f}, median {s['median']:.4f}, "
        f"zero-ratio {zero_ratio:.2%}"
    )
    return 0


def cmd_eval_hotspots(args) -> int:
    orig = _load_tree(load_plain_points, args.orig, "original")
    enc = _load_tree(load_points_auto, args.enc, "encrypted")
    dec = _load_tree(load_plain_points, args.dec, "decrypted")
    _aligned_vehicles(orig.rows, enc.rows, "encrypted")
    _aligned_vehicles(orig.rows, dec.rows, "decrypted")

    started = time.perf_counter()
    population = len(orig.xy)
    n_sample = args.sample_size or min(5000, population)
    sample = stratified_sample(orig.rows, n_sample, args.seed)
    # the trees hold the same files, in name order, with as many rows each,
    # so a sampled point has one row in all three
    at = np.array([orig.rows[vid][i] for vid, i in sample], dtype=np.int64)
    orig_pts, enc_pts, dec_pts = orig.xy[at], enc.xy[at], dec.xy[at]
    log.debug(
        "sample: %d of %d points in %.3fs",
        len(sample), population, time.perf_counter() - started,
    )

    report = metrics.hotspot_analysis(
        orig_pts, enc_pts, dec_pts, eps_orig=args.eps, min_pts=args.min_pts
    )
    report["sample_size"] = len(sample)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "hotspots.json", report)

    counts = report["counts"]
    reduction = (
        100.0 * (1 - counts["encrypted"] / counts["original"])
        if counts["original"]
        else 0.0
    )
    matching = report["matching"]
    _say(
        f"hotspots: original {counts['original']}, encrypted {counts['encrypted']} "
        f"({reduction:.1f}% reduction), decrypted {counts['decrypted']}; "
        f"original/decrypted match accuracy {matching['match_accuracy']:.2%}, "
        f"mean centroid distance {matching['mean_centroid_distance_km']:.6f} km"
    )
    return 0


def cmd_eval_accuracy(args) -> int:
    report = metrics.accuracy(args.orig, args.dec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "accuracy.json", report)
    _say(
        f"accuracy: OMR {report['omr']:.2%} "
        f"({report['matched_points']}/{report['total_points']} points, "
        f"{report['fully_matched_files']}/{report['file_count']} files fully matched)"
    )
    unreadable = [
        f"{entry['file']}: {entry['error']}"
        for entry in report["per_file"]
        if entry.get("error", "").startswith(metrics.UNREADABLE)
    ]
    for failure in unreadable:
        print(f"error: failed file {failure}", file=sys.stderr)
    return 1 if unreadable else 0


# ---------------------------------------------------------------------------
# Argument parsing

_WORKERS_HELP = "ignored; accepted for compatibility (the pipeline is single-threaded)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geofpe",
        description="Format-preserving encryption of geographic coordinates "
        "with a privacy evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a random 128-bit key file")
    p.add_argument("out", help="output key path: 32 hex characters for .hex, "
                   "else 16 raw bytes")
    p.add_argument("--force", action="store_true", help="overwrite an existing file")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a trajectory dataset")
    p.add_argument("--input", required=True, help="directory of <vehicle>.txt files")
    p.add_argument("--output", required=True, help="encrypted output directory")
    p.add_argument("--key", required=True, help="key file (.key raw / .hex text)")
    p.add_argument("--map", required=True, help="mapping store output path")
    p.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt an encrypted dataset")
    p.add_argument("--input", required=True, help="encrypted directory")
    p.add_argument("--output", required=True, help="decrypted output directory")
    p.add_argument("--key", required=True)
    p.add_argument("--map", required=True, help="mapping store path")
    p.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("synth", help="generate a synthetic trajectory dataset")
    p.add_argument("--output", required=True)
    p.add_argument("--vehicles", type=_positive_int, default=200)
    p.add_argument("--points", type=_positive_int, default=500)
    p.add_argument(
        "--centers",
        type=_parse_centers,
        default="116.35,39.85;116.45,39.95;116.55,40.05;116.30,39.95;116.50,39.80",
        help='hotspot centers "lon,lat;lon,lat;..." (empty for a pure walk)',
    )
    p.add_argument("--hotspot-std", type=float, default=0.001, help="degrees")
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    esub = p.add_subparsers(dest="protocol", required=True)

    e = esub.add_parser("rdr", help="relative distance retention rate")
    e.add_argument("--orig", required=True)
    e.add_argument("--enc", required=True)
    e.add_argument("--out", required=True, help="report directory")
    e.add_argument("--samples", type=_positive_int, default=100)
    e.add_argument("--seed", default="0")
    e.set_defaults(func=cmd_eval_rdr)

    e = esub.add_parser("hotspots", help="DBSCAN hotspot disruption/recovery")
    e.add_argument("--orig", required=True)
    e.add_argument("--enc", required=True)
    e.add_argument("--dec", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--eps", type=float, default=0.005, help="degrees")
    e.add_argument("--min-pts", type=_positive_int, default=10)
    e.add_argument(
        "--sample-size",
        type=_positive_int,
        default=None,
        help="stratified sample size, up to the whole population "
        "(default min(5000, population))",
    )
    e.add_argument("--seed", default="0")
    e.set_defaults(func=cmd_eval_hotspots)

    e = esub.add_parser("accuracy", help="decryption exact-match accuracy")
    e.add_argument("--orig", required=True)
    e.add_argument("--dec", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval_accuracy)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
