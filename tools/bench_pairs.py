"""Alternating parent/change benchmark pairs, written as one evidence file.

    python3 tools/bench_pairs.py --pr N --workload tricycle-steady \
        --seeds 0 1 --pairs 10 --seconds 60

Run from a qthermo checkout: that checkout, as it stands, is the change.
The parent (``--base``, default ``HEAD~1``) is exported with
``git archive`` into a temporary directory, which is removed at the end;
the repository itself is left untouched.  For each seed and workload the
tool runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
``--pairs`` times on each side, one run at a time, alternating which side
runs first.  Each side runs its own ``perfbench/``, so a change that
leaves ``perfbench/`` alone is measured by the same benchmark code.

The file ``BENCH_<pr>.json``, at the root of the checkout, holds, for
each workload and seed and each end-to-end metric of
``BENCHMARK.json``: both sides' medians and quartiles over the runs, the
pairs the change won (ties count for neither side), whether a gain
may be claimed (won at least nine tenths of the pairs, and the medians
differ by more than the parent's interquartile range) and a
no-regression verdict against the metric's relative ``bound``:
``unresolved`` when the parent's interquartile range exceeds the bound
(relative to its median) and some change run fails to beat every parent
run, else ``regressed`` when the change's median is worse than the
parent's by more than the bound, else ``held``.  The last seed
listed is recorded as the hold-out.  Every run's printed metrics,
failure counts and environment stamp (from its results file) are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 3600.0


def git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = dest / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=fh, check=True)
    tree = dest / "tree"
    tree.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its summary line and the
    environment stamp of the results file it wrote."""
    results = tree / "perfbench" / "out" / "results"
    before = set(results.glob("*.json")) if results.is_dir() else set()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode} in {tree}:\n"
                           f"{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    written = sorted(set(results.glob("*.json")) - before)
    environment = json.loads(written[-1].read_text())["environment"] if written else None
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
            "environment": environment}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent: list[float], change: list[float], sense: str, bound: float) -> str:
    """``held``, ``regressed`` or ``unresolved``: whether the change's runs
    stay within the relative ``bound`` of the parent's (see the module
    docstring)."""
    sign = -1.0 if sense == "lower" else 1.0
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "held"  # every change run beats every parent run
    ref = quartiles(parent)
    scale = abs(ref["median"])
    if not scale or ref["iqr"] > bound * scale:
        return "unresolved"
    worse = sign * (ref["median"] - statistics.median(change)) / scale
    return "regressed" if worse > bound else "held"


def summarise(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per-metric medians, quartiles, wins, the claim verdict and the
    no-regression verdict of the pairs in ``runs`` (entries with ``pair``,
    ``side`` and ``metrics``), for ``metrics`` mapping each name to its
    ``better`` and ``bound``, as in ``BENCHMARK.json``."""
    out = {}
    pairs = sorted({r["pair"] for r in runs})
    for name, metric in metrics.items():
        sense, bound = metric["better"], metric["bound"]
        side = {s: {r["pair"]: r["metrics"].get(name) for r in runs if r["side"] == s}
                for s in ("parent", "change")}
        both = [k for k in pairs
                if side["parent"].get(k) is not None and side["change"].get(k) is not None]
        if not both:
            out[name] = {"pairs": 0}
            continue
        parent_values = [side["parent"][k] for k in both]
        change_values = [side["change"][k] for k in both]
        parent, change = quartiles(parent_values), quartiles(change_values)
        sign = -1.0 if sense == "lower" else 1.0
        wins = sum(sign * (side["change"][k] - side["parent"][k]) > 0 for k in both)
        losses = sum(sign * (side["change"][k] - side["parent"][k]) < 0 for k in both)
        gain = sign * (change["median"] - parent["median"])
        out[name] = {
            "better": sense, "bound": bound, "pairs": len(both), "change_wins": wins,
            "parent_wins": losses, "parent": parent, "change": change,
            "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
            "gain_claimable": wins >= 0.9 * len(both) and gain > parent["iqr"],
            "verdict": verdict(parent_values, change_values, sense, bound),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD~1", help="the parent revision")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1],
                        help="workload seeds; the last is the hold-out")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    out_path = ROOT / f"BENCH_{args.pr}.json"
    metrics = {m["name"]: m
               for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    record = {
        "pr": args.pr,
        "command": ["tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "seconds": args.seconds, "pairs": args.pairs,
        "seeds": args.seeds, "hold_out_seed": args.seeds[-1],
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(args.base, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for workload in args.workload:
            per_seed = record["workloads"][workload] = {}
            for seed in args.seeds:
                runs = []
                for pair in range(args.pairs):
                    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    for side in order:
                        res = bench_once(trees[side], workload, seed, args.seconds)
                        runs.append({"pair": pair, "side": side, **res})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"{json.dumps(res['metrics'])} failed {res['failed']}", flush=True)
                per_seed[str(seed)] = {"summary": summarise(runs, metrics), "runs": runs}
                # written after every seed, so a run cut short keeps what it measured
                out_path.write_text(json.dumps(record, indent=1) + "\n")
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for workload, seeds in record["workloads"].items():
        for seed, res in seeds.items():
            for name, m in res["summary"].items():
                if m["pairs"]:
                    print(f"{workload} seed {seed} {name}: parent {m['parent']['median']:.4f} "
                          f"change {m['change']['median']:.4f}, change won {m['change_wins']}"
                          f"/{m['pairs']}, claimable {m['gain_claimable']}, {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
