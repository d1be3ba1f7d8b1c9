"""One benchmark process: import rareweak from the checkout and drive ``cli.main``.

Started by ``run.py`` as ``python3 perfbench/runner.py '<json>'`` with keys
``mode``, ``workload``, ``work``, ``config`` and ``seed``.  The process
imports the package and fills its one-time caches, notes the monotonic
clock (shared by all processes of the machine) as the moment it was ready,
and then, by mode:

* ``timed``  runs the workload's command once, untraced, as a user's
  ``rareweak`` process would;
* ``trace``  runs it once traced at one worker, then untraced at one worker
  and at ``workloads.POOL_WORKERS``.

Prints one JSON line: the ready time, every run's wall time and artifact
directory, the peak RSS of this process and of its finished children, and
in trace mode the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (sibling module; sys.path[0] is this directory)


def _import_package():
    import rareweak
    import rareweak.cli

    where = Path(rareweak.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"imported rareweak from {where}, not from {ROOT / 'src'}")
    return rareweak


def _timed(main, argv: list[str]) -> tuple[int, float]:
    t0 = time.perf_counter()
    rc = main(argv)
    return rc, time.perf_counter() - t0


def main(spec: dict) -> dict:
    wl = workloads.WORKLOADS[spec["workload"]]
    work, config, seed = Path(spec["work"]), Path(spec["config"]), spec["seed"]
    mode = spec["mode"]

    rareweak = _import_package()
    cli_main = rareweak.cli.main
    tracer = None
    if mode == "trace":
        from layertrace import LAYER_METRICS, Tracer

        tracer = Tracer(pool_workers=workloads.POOL_WORKERS)
        tracer.install(rareweak)

    warm = workloads.warmup_args(wl, work, seed)
    if warm is not None:
        rc = tracer.call("cli.main", cli_main, warm)[0] if tracer else cli_main(warm)
        if rc != 0:
            raise SystemExit(f"warm-up exited with {rc}")
    result: dict = {"ready": time.monotonic()}
    runs = []

    def run(label: str, workers: int, traced: bool = False) -> None:
        out = work / "out" / f"{os.getpid()}-{len(runs)}-{label}"
        argv = workloads.cli_args(wl, config, out, seed, workers)
        if traced:
            rc, wall = tracer.call("cli.main", _timed, cli_main, argv)[0]
        else:
            rc, wall = _timed(cli_main, argv)
        runs.append({"label": label, "workers": workers, "rc": rc, "wall_s": wall, "out": str(out)})

    if mode == "timed":
        run("timed", wl.workers)
    else:
        run("traced", 1, traced=True)
        tracer.uninstall()
        run("untraced", 1)
        run("untraced", workloads.POOL_WORKERS)
        result["layer"] = tracer.layer_metrics()
        result["absent"] = sorted(tracer.absent & LAYER_METRICS.keys())
        tracer.dump(work / "spans.json")

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(runs=runs, rss_self_mb=self_kb / 1024, rss_children_mb=children_kb / 1024)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
