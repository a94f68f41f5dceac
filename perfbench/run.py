"""qthermo benchmark: time to a certified result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --write-reference       # refresh default-seed references

Run from the root of a qthermo checkout; the library is imported from
its ``src``.  Runs are a closed loop: one child process at a time, each a
fresh interpreter with ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``
and without ``QTHERMO_THREADS``.  A run first makes a few set-up-only
children, then repeats the workload, one child per iteration, for about
``--seconds`` seconds (always at least one iteration).  Each iteration
is checked: exit codes 0, every certificate row true and, on the default
seed, every artifact value within the DYNAMICAL tolerance of the
reference made for this benchmark; on other seeds the artifacts must
have the reference's files, headers and row counts.  Failures are
counted, never dropped.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s`` (median seconds from process start until ``qthermo.cli`` is
imported and the configs passed ``cli.load_config``), ``wall_ref_s``
(median seconds inside ``cli.run``, summed over the workload's configs)
and ``peak_rss_mb`` (median peak resident set of an iteration).  Both
times are scaled to the reference host speed by the calibration kernel
of calibrate.py, timed in the same child right after the set-up and
right after each config.  The unscaled times are printed and kept in
the results file.  With
``--trace 1`` iterations alternate untraced and traced, and the last line
reports the per-layer metrics of the traced ones (see tracer.py), plus
the tracing overhead.  Every run writes a results file, stamped with the
environment, under perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_UNIT_S
from workloads import DEFAULT_SEED, WORKLOADS, make_configs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
RESULTS = OUT / "results"
REFERENCE = BENCH / "reference"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0
DYNAMICAL = 1e-9  # qthermo.tolerances.DYNAMICAL, fixed here so the check cannot drift
BLAS_SETTING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "QTHERMO_THREADS": None}
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PRINTED = (("setup_s", "s"), ("setup_unscaled_s", "s"), ("wall_ref_s", "s"), ("wall_s", "s"),
           ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ)
    for key, value in BLAS_SETTING.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, statistics.quantiles(samples, n=1000, method="inclusive")[
                int(round(p * 10)) - 1]
    return None


# --------------------------------------------------------------------------
# checks


def _floats_agree(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= DYNAMICAL * max(1.0, abs(y))


def certificate_problems(out_dir: Path) -> list[str]:
    cert = out_dir / "certificate.csv"
    if not cert.is_file():
        return [f"{out_dir.name}: no certificate.csv"]
    rows = cert.read_text().splitlines()[1:]
    if not rows:
        return [f"{out_dir.name}: empty certificate"]
    return [f"{out_dir.name}: failed check {r.split(',')[0]}"
            for r in rows if r.split(",")[-1] != "true"]


def check_artifacts(out_dir: Path, ref_dir: Path, values: bool) -> list[str]:
    """Problems found in one config's certificate and in comparing its
    artifacts with the reference: values too when ``values``, else only
    files, headers and row counts."""
    problems = certificate_problems(out_dir)
    if not ref_dir.is_dir():
        return problems + [f"{out_dir.name}: no reference in {ref_dir}"]
    got = sorted(p.name for p in out_dir.iterdir())
    want = sorted(p.name for p in ref_dir.iterdir())
    if got != want:
        return problems + [f"{out_dir.name}: artifacts {got}, reference {want}"]
    for name in want:
        a = (out_dir / name).read_text().splitlines()
        b = (ref_dir / name).read_text().splitlines()
        if len(a) != len(b) or a[:1] != b[:1]:
            problems.append(f"{out_dir.name}/{name}: shape or header differs from reference")
            continue
        if not values:
            continue
        for i, (la, lb) in enumerate(zip(a, b)):
            fa, fb = la.split(","), lb.split(",")
            if len(fa) != len(fb) or not all(map(_floats_agree, fa, fb)):
                problems.append(f"{out_dir.name}/{name} line {i + 1}: {la!r} != {lb!r}")
    return problems


def at_reference(seconds: float, unit_s: float) -> float:
    """``seconds`` measured while a calibration unit took ``unit_s``,
    scaled to the reference host speed."""
    return seconds * REFERENCE_UNIT_S / unit_s


def reference_setup(res: dict) -> float:
    """The child's set-up time, scaled by the calibration timed right after it."""
    return at_reference(res["setup_s"], res["cal_s"][0])


def reference_wall(res: dict) -> float:
    """Seconds inside ``cli.run`` at the reference host speed: each
    config's time scaled by the mean of the calibrations timed just
    before and just after it."""
    cal = res["cal_s"]
    return sum(at_reference(r["wall_s"], 0.5 * (cal[i] + cal[i + 1]))
               for i, r in enumerate(res["runs"]))


# --------------------------------------------------------------------------
# one run of one workload


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        self.stem = f"{workload}-seed{seed}-trace{int(trace)}-{stamp}"
        self.dir = OUT / f"{self.stem}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.configs = []
        for name, cfg in make_configs(self.workload, seed, ROOT / "configs",
                                      self.dir / "artifacts"):
            path = self.dir / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1))
            self.configs.append((name, path))
        self.env = child_env()
        self.children = 0
        self.attempted = 0  # config runs, plus set-up probes that failed
        self.failed = 0
        self.failures: list[str] = []

    def child(self, **job) -> dict | None:
        """Start one child, wait for it, and return its result (None if it
        failed; the failure is recorded)."""
        self.children += 1
        tag = f"child{self.children}"
        job_path, result_path = self.dir / f"{tag}.job.json", self.dir / f"{tag}.result.json"
        job.update(configs=[str(p) for _, p in self.configs], run_id=self.children,
                   spans=str(RESULTS / f"{self.stem}.{tag}.spans.csv"))
        with open(self.dir / f"{tag}.log", "w") as log:
            job["t0"] = time.monotonic()
            job_path.write_text(json.dumps(job))
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), str(job_path), str(result_path)],
                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log,
                    stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
                rc = proc.returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
        if rc != 0 or not result_path.is_file():
            log_tail = (self.dir / f"{tag}.log").read_text()[-2000:]
            self.failures.append(f"{tag}: child exit {rc}: {log_tail}")
            return None
        return json.loads(result_path.read_text())

    def iteration(self, traced: bool) -> dict | None:
        shutil.rmtree(self.dir / "artifacts", ignore_errors=True)
        self.attempted += len(self.configs)
        res = self.child(trace=traced)
        if res is None:
            self.failed += len(self.configs)
            return None
        ok = True
        for (name, _), run in zip(self.configs, res["runs"]):
            problems = check_artifacts(self.dir / "artifacts" / name,
                                       REFERENCE / self.workload.name / name,
                                       values=self.seed == DEFAULT_SEED)
            if run["rc"] != 0:
                problems.append(f"{name}: qthermo run exit code {run['rc']}")
            self.failures += problems
            self.failed += bool(problems)
            ok = ok and not problems
        return res if ok else None

    def measure(self, seconds: float) -> dict:
        first = self.child(setup_only=True, environment=True)  # warm-up, untimed
        environment = first["environment"] if first else None
        if first is None:
            self.attempted += 1
            self.failed += 1
        start = time.monotonic()
        setup, raw_setup, walls, ref_walls, rss, traced_walls, layers, cal = (
            [], [], [], [], [], [], [], [])
        for _ in range(SETUP_PROBES):
            res = self.child(setup_only=True)
            if res is None:
                self.attempted += 1
                self.failed += 1
            else:
                setup.append(reference_setup(res))
                raw_setup.append(res["setup_s"])
                cal += res["cal_s"]
        last = 0.0
        k = 0
        while k == 0 or (self.trace and k < 2) or time.monotonic() + last <= start + seconds:
            traced = self.trace and k % 2 == 1
            t = time.monotonic()
            res = self.iteration(traced)
            last = time.monotonic() - t
            k += 1
            if res is None:
                continue
            setup.append(reference_setup(res))
            raw_setup.append(res["setup_s"])
            wall = sum(r["wall_s"] for r in res["runs"])
            cal += res["cal_s"]
            if traced:
                traced_walls.append(wall)
                layers.append(res["layers"])
            else:
                walls.append(wall)
                ref_walls.append(reference_wall(res))
                rss.append(res["peak_rss_mb"])
        return {
            "environment": environment,
            "samples": {"setup_s": setup, "setup_unscaled_s": raw_setup,
                        "wall_s": walls, "wall_ref_s": ref_walls,
                        "peak_rss_mb": rss, "traced_wall_s": traced_walls,
                        "calibration_unit_s": cal},
            "layers": layers,
        }


# --------------------------------------------------------------------------
# reporting

def metric_spec(kind: str) -> list[dict]:
    """The end_to_end or per_layer metrics that BENCHMARK.json declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def per_layer_metrics(layers: list[dict], walls: list[float], traced: list[float]) -> dict:
    out = {}
    for m in metric_spec("per_layer"):
        if m["name"] == "trace.overhead_s":
            value = (statistics.median(traced) - statistics.median(walls)
                     if walls and traced else None)
        else:
            value = statistics.median(l.get(m["name"], 0) for l in layers) if layers else None
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def summarise(name: str, seed: int, trace: bool, measured: dict, run: Run) -> dict:
    s = measured["samples"]
    failed, attempted = run.failed, max(run.attempted, 1)
    if trace:
        metrics = per_layer_metrics(measured["layers"], s["wall_s"], s["traced_wall_s"])
    else:
        metrics = {m["name"]: {"value": statistics.median(s[m["name"]]) if s[m["name"]]
                               else None, "unit": m["unit"]}
                   for m in metric_spec("end_to_end")}
    correct = failed == 0 and all(v["value"] is not None for v in metrics.values())
    lines = [f"workload {name} (seed {seed}, trace {int(trace)})"]
    for m, unit in PRINTED:
        if not s[m]:
            lines.append(f"  {m:16s} no samples")
            continue
        tail = tail_percentile(s[m])
        tail_text = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no tail percentile"
        lines.append(f"  {m:16s} median {statistics.median(s[m]):.4f} {unit}, "
                     f"{tail_text}, n={len(s[m])}")
    lines.append(f"  {'error_rate':16s} {failed / attempted:.4f} ({failed} of {attempted} runs)")
    for failure in run.failures:
        lines.append(f"  FAILED: {failure}")
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "samples": s,
        "failures": run.failures,
        "environment": {
            **(measured["environment"] or {}),
            "blas_setting": BLAS_SETTING,
            "git_commit": git_commit(),
            "workload_seed": seed,
        },
        "text": lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, trace)
    try:
        result = summarise(name, seed, trace, run.measure(seconds), run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    (RESULTS / f"{run.stem}.json").write_text(json.dumps(result, indent=1))
    return result


def write_reference() -> int:
    status = 0
    for name, workload in WORKLOADS.items():
        run = Run(name, DEFAULT_SEED, False)
        try:
            res = run.child()
            ok = res is not None and all(r["rc"] == 0 for r in res["runs"])
            for cfg, _ in run.configs:
                out, ref = run.dir / "artifacts" / cfg, REFERENCE / name / cfg
                problems = certificate_problems(out) if ok else ["run failed"]
                if problems:
                    print(f"{name}/{cfg}: not written: {problems} {run.failures}")
                    status = 1
                    continue
                shutil.rmtree(ref, ignore_errors=True)
                shutil.copytree(out, ref)
                print(f"{name}/{cfg}: reference written")
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/qthermo/cli.py", "configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"not a qthermo checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        print("\n".join(r["text"]))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
