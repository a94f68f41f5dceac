"""Rewrite golden_artifacts.json from one-BLAS-thread runs of every shipped
config, and list the CSV cells that moved against an earlier run.

    python tests/regen_golden.py                       # rewrite the golden file
    python tests/regen_golden.py --keep DIR            # and keep the artifacts in DIR
    python tests/regen_golden.py --parent DIR          # and print every cell that moved
    python tests/regen_golden.py --src OTHER/src --keep DIR --dry-run
    python tests/regen_golden.py --dry-run             # check against the golden file

``--parent`` names a directory laid out as ``--keep`` leaves one: a folder
per config holding its artifacts.  Running an older checkout's ``src``
with ``--src``, ``--keep`` and ``--dry-run`` makes such a directory
without touching the golden file.  Each moved cell is printed as
``config/file row column: old -> new``; a file or row that appears or
disappears is printed as well.  Then each config's largest relative move
|new - old| / max(1, |old|) over its cells is printed, so that a move at
roundoff shows at a glance.  ``--dry-run`` compares each config's exit
code and artifact hashes with the golden file instead of writing it,
prints every mismatch, and exits 1 when there is one.  All configs run in one fresh interpreter
with ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``, as
``test_blas_thread_count_preserves_output`` runs them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden_artifacts.json"


def run_configs(src: Path, out: Path) -> dict:
    """Run every shipped config with its artifacts under out/<name>; the
    golden entry (exit code and artifact hashes) of each."""
    names = sorted(p.stem for p in CONFIGS.glob("*.json"))
    paths = []
    for name in names:
        try:
            cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        except json.JSONDecodeError:  # a config that must fail to load
            paths.append(str(CONFIGS / f"{name}.json"))
            continue
        cfg["output_dir"] = str(out / name)
        p = out / f"{name}.config.json"
        p.write_text(json.dumps(cfg))
        paths.append(str(p))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    script = "import sys; from qthermo.cli import run; print([run(p) for p in sys.argv[1:]])"
    proc = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                          capture_output=True, text=True, check=True)
    codes = json.loads(proc.stdout.splitlines()[-1])
    golden = {}
    for name, code in zip(names, codes):
        folder = out / name
        files = sorted(folder.iterdir()) if folder.exists() else []
        golden[name] = {"artifacts": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                                      for f in files}, "exit": code}
    return golden


def _relative_move(old: str, new: str) -> float:
    """|new - old| / max(1, |old|) of two CSV cells; inf when either is not
    a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    return abs(b - a) / max(1.0, abs(a))


def moved_cells(old: Path, new: Path) -> tuple[list[str], dict[str, float]]:
    """Every CSV cell, row or file that differs between two artifact trees,
    and each config's largest relative move (inf for a file or row that
    appears or disappears, or a cell that is not a number)."""
    lines = []
    largest = {}
    names = sorted({p.name for p in old.iterdir() if p.is_dir()}
                   | {p.name for p in new.iterdir() if p.is_dir()})
    for name in names:
        largest[name] = 0.0
        files = sorted({f.name for d in (old / name, new / name) if d.exists()
                        for f in d.iterdir()})
        for fname in files:
            a, b = old / name / fname, new / name / fname
            if not (a.exists() and b.exists()):
                lines.append(f"{name}/{fname}: only in {'new' if b.exists() else 'old'}")
                largest[name] = math.inf
                continue
            rows_a, rows_b = a.read_text().splitlines(), b.read_text().splitlines()
            header = rows_b[0].split(",") if rows_b else []
            for i in range(max(len(rows_a), len(rows_b))):
                if i >= len(rows_a) or i >= len(rows_b):
                    lines.append(f"{name}/{fname} row {i}: only in "
                                 f"{'new' if i >= len(rows_a) else 'old'}")
                    largest[name] = math.inf
                    continue
                for k, (x, y) in enumerate(zip(rows_a[i].split(","), rows_b[i].split(","))):
                    if x != y:
                        col = header[k] if k < len(header) else str(k)
                        lines.append(f"{name}/{fname} row {i} {col}: {x} -> {y}")
                        largest[name] = max(largest[name], _relative_move(x, y))
    return lines, largest


def golden_mismatches(golden: dict, got: dict) -> list[str]:
    """Every config, exit code, artifact or artifact hash of ``got`` that
    differs from ``golden``, one line each."""
    lines = []
    for name in sorted(golden.keys() | got.keys()):
        if name not in got or name not in golden:
            lines.append(f"{name}: only in {'the run' if name in got else 'the golden file'}")
            continue
        want, have = golden[name], got[name]
        if want["exit"] != have["exit"]:
            lines.append(f"{name}: exit {have['exit']}, golden {want['exit']}")
        for fname in sorted(want["artifacts"].keys() | have["artifacts"].keys()):
            a, b = want["artifacts"].get(fname), have["artifacts"].get(fname)
            if a is None or b is None:
                lines.append(f"{name}/{fname}: only in {'the run' if a is None else 'the golden file'}")
            elif a != b:
                lines.append(f"{name}/{fname}: sha256 {b}, golden {a}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="library source to run")
    ap.add_argument("--keep", type=Path, help="directory that keeps the artifacts")
    ap.add_argument("--parent", type=Path, help="earlier artifacts to compare against")
    ap.add_argument("--dry-run", action="store_true",
                    help="compare with the golden file instead of writing it")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.keep if args.keep is not None else Path(tmp)
        out.mkdir(parents=True, exist_ok=True)
        golden = run_configs(args.src.resolve(), out.resolve())
        if args.parent is not None:
            lines, largest = moved_cells(args.parent, out)
            for line in lines:
                print(line)
            for name, move in largest.items():
                print(f"{name}: largest relative move {move:.3g}")
    if args.dry_run:
        lines = golden_mismatches(json.loads(GOLDEN.read_text()), golden)
        for line in lines:
            print(line)
        return 1 if lines else 0
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
