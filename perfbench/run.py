"""rareweak benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload power_identity --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, with no install step.  The workload seed fixes every input.

``--trace 0`` starts fresh processes one after another for as long as the
next one, at the longest duration so far, still ends within ``--seconds``;
each sets up and calls ``rareweak.cli.main`` once, untraced.  It reports the
end-to-end metrics, medians over those processes.
``--trace 1`` runs it once
traced at one worker, then untraced at one and at two workers, and reports
the per-layer metrics, the tracing overhead and the parallel efficiency;
it ignores ``--seconds``.  Every run's CSV artifact is checked (see
``workloads.check_artifact``) and must be byte-identical to the first run's.

The last line of standard output is a JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every run succeeded and passed its checks; it is 2, with no JSON line, when
the package source is not next to this directory.  A record of the run
(environment, per-run wall time and sha256, metrics) and, when traced, every
span, are left under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # sibling modules; sys.path[0] is this directory
from layertrace import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
RUNNER_TIMEOUT_S = 120    # keeps the whole command inside its 180 s limit
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

UNITS = {"wall_s": "s", "replicates_per_s": "1/s", "gene_perms_per_s": "1/s",
         "setup_s": "s", "peak_rss_mb": "MB",
         **LAYER_METRICS, "bench.parallel_eff": "ratio", "trace.overhead_s": "s"}


def environment() -> dict:
    """Interpreter, libraries, BLAS and cores, with the BLAS thread variables as found."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy before 1.25 only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def runner(spec: dict) -> dict:
    """Run runner.py in its own process group and return its JSON.

    When a run failed, the tail of the runner's standard error, where the
    CLI writes its error line, is passed on.  BLAS threading is left as the environment sets it: pinning it would hide
    the oversubscription it causes next to the worker pool.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, str(HERE / "runner.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{spec['mode']} run exceeded {RUNNER_TIMEOUT_S} s")
    finally:
        # pool workers share the group; none may outlive the runner
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{spec['mode']} run exited with {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if any(r["rc"] != 0 for r in result["runs"]):
        print(err[-3000:], file=sys.stderr)
    return result


def check_runs(wl, runs: list[dict]) -> None:
    """Hash and check every run's artifact; a run fails on any problem."""
    first = None
    for r in runs:
        path = Path(r["out"]) / f"{wl.command}.csv"
        problems = [] if r["rc"] == 0 else [f"cli exited with {r['rc']}"]
        if path.is_file():
            data = path.read_bytes()
            r["sha256"] = hashlib.sha256(data).hexdigest()
            problems += workloads.check_artifact(wl, data.decode("utf-8"))
            first = first or r
            if r["sha256"] != first["sha256"]:
                problems.append(f"artifact differs from the {first['label']} run at "
                                f"{first['workers']} worker(s)")
        else:
            problems.append(f"no artifact {path.name}")
        r["problems"] = problems


def end_to_end(wl, runs: list[dict], setup: list[float], rss_mb: float) -> dict:
    walls = [r["wall_s"] for r in runs]
    return {
        "wall_s": statistics.median(walls),
        "replicates_per_s": statistics.median(wl.units / w for w in walls),
        "gene_perms_per_s": statistics.median(wl.units * wl.responses / w for w in walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }


def per_layer(result: dict) -> dict:
    walls = {(r["label"], r["workers"]): r["wall_s"] for r in result["runs"]}
    traced, untraced_1 = walls[("traced", 1)], walls[("untraced", 1)]
    pooled = walls[("untraced", workloads.POOL_WORKERS)]
    return {
        **result["layer"],
        # 1.0 is perfect scaling
        "bench.parallel_eff": untraced_1 / (workloads.POOL_WORKERS * pooled),
        "trace.overhead_s": traced - untraced_1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "rareweak" / "__init__.py").is_file():
        print(f"perfbench: no rareweak source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-s{args.seed}-{'trace' if args.trace else 'timed'}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    config = workloads.write_inputs(wl, args.seed, work)
    spec = {"workload": wl.name, "work": str(work), "config": str(config), "seed": args.seed}
    env = environment()
    print(f"perfbench {tag}: " + json.dumps(env))

    runs: list[dict] = []
    metrics: dict[str, float] = {}
    error = None
    try:
        if args.trace:
            result = runner({**spec, "mode": "trace"})
            runs = result["runs"]
            metrics = per_layer(result)
            if result["absent"]:
                print("absent (wrapped name or count missing): " + ", ".join(result["absent"]))
            shutil.copy(work / "spans.json", WORK_ROOT / f"{tag}.spans.json")
        else:
            # one fresh process per timed run, as each user command is one
            # process; each also yields one set-up sample
            setup, rss, longest = [], 0.0, 0.0
            start = time.monotonic()
            while not runs or (runs[-1]["rc"] == 0
                               and time.monotonic() - start + longest <= args.seconds):
                spawned = time.monotonic()
                result = runner({**spec, "mode": "timed"})
                longest = max(longest, time.monotonic() - spawned)
                setup.append(result["ready"] - spawned)
                runs += result["runs"]
                rss = max(rss, result["rss_self_mb"], result["rss_children_mb"])
            metrics = end_to_end(wl, runs, setup, rss)
    except (RuntimeError, KeyError, ValueError) as e:
        error = f"{type(e).__name__}: {e}"
        print(f"perfbench: {error}", file=sys.stderr)

    check_runs(wl, runs)
    for r in runs:
        status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
        print(f"  run {r['label']} workers={r['workers']} wall_s={r['wall_s']:.4f} "
              f"sha256={r.get('sha256', '-')} {status}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {UNITS[name]}")

    failed = sum(1 for r in runs if r["problems"])
    attempted = max(len(runs), 1)
    if error is not None:
        failed = attempted
    correct = failed == 0
    (WORK_ROOT / f"{tag}.json").write_text(json.dumps(
        {"env": env, "runs": runs, "error": error,
         "metrics": metrics}, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
