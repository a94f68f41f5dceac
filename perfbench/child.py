"""One benchmark iteration, run in a fresh process.

    python3 perfbench/child.py JOB.json RESULT.json

The job names the config files, the monotonic time at which the parent
started this process, and whether to trace.  The child imports
``qthermo.cli``, validates every config with ``cli.load_config`` (the
set-up), then calls ``cli.run`` on each config in turn and writes the
timings, exit codes and peak resident set to RESULT.json.  A job with
``setup_only`` stops after the set-up and one timing of the calibration
kernel (calibrate.py).  Otherwise the kernel is timed after the set-up,
which is also before the first config, and after each config, so that
``cal_s`` has one entry more than ``runs``.  With ``trace`` the span tracer
is installed after the set-up, its spans are written to the job's
``spans`` file when the run ends, and their per-layer aggregate goes
into the result.  A job with ``environment`` also records the CPU count
and the library versions and BLAS thread count seen by the child.
"""

import json
import sys
import time


def environment() -> dict:
    """CPU count, interpreter, numpy/scipy and OpenBLAS as loaded here."""
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": None,
    }
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                env["blas_threads"] = int(getter())
                return env
    return env


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    from qthermo import cli

    for path in job["configs"]:
        cli.load_config(path)
    setup_s = time.monotonic() - job["t0"]
    import calibrate

    result = {"setup_s": setup_s, "runs": [], "cal_s": [calibrate.calibrate()]}
    if not job.get("setup_only"):
        tracer = None
        if job.get("trace"):
            import tracer as tracing

            tracer = tracing.Tracer(run_id=job["run_id"])
            tracer.install()
        try:
            for path in job["configs"]:
                t = time.perf_counter()
                rc = cli.run(path)
                result["runs"].append({"config": path, "rc": rc,
                                       "wall_s": time.perf_counter() - t})
                result["cal_s"].append(calibrate.calibrate())
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            with open(job["spans"], "w") as fh:
                fh.write("run_id,index,name,start,end,parent,error\n")
                for i, s in enumerate(tracer.spans):
                    fh.write(f"{s.run_id},{i},{s.name},{s.start!r},{s.end!r},"
                             f"{s.parent},{int(s.error)}\n")
            result["layers"] = tracing.aggregate(tracer.spans)
    import resource

    if job.get("environment"):
        result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
