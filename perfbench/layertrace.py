"""Layer spans and counts for rareweak, recorded from outside the package.

For the length of a traced run, the tracer replaces the names through which
one rareweak module calls another (``bench.simulate_genotypes``,
``simgen.solve_latent_correlation``, ...) with wrappers that record a span:
name, start, end, parent span and root span (one root per ``cli.main``
call).  Spans stay in memory until :meth:`Tracer.dump`.  Counts are taken at
the same boundaries; the ones derived from array shapes rather than
observed (flops, bytes, draws) are marked "computed" where they are taken.
No library file changes.

A wrapped name that no longer exists, or a count whose arguments changed
shape, makes the metrics that depend on it absent instead of failing the
run, so a refactor of the package internals cannot break the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# every per-layer metric and its unit
LAYER_METRICS = {
    "simgen.simulate_genotypes.self_s": "s",
    "simgen.simulate_genotypes.calls": "count",
    "simgen.latent_draws": "count",
    "simgen.latent_solve.self_s": "s",
    "simgen.latent_solves": "count",
    "simgen.traits.self_s": "s",
    "rng.column_generators.self_s": "s",
    "rng.generators_built": "count",
    "core_stats.validate.self_s": "s",
    "bench.stats_kernel.self_s": "s",
    "bench.stats_kernel.calls": "count",
    "bench.stats_kernel.columns": "count",
    "bench.stats_kernel.gflop": "GFLOP",
    "bench.permute.self_s": "s",
    "bench.permutations": "count",
    "bench.response_matrix_mb": "MB",
    "bench.run_chunked.wall_s": "s",
    "bench.job_bytes": "B",
    "bench.replicate_ms.p50": "ms",
    "bench.replicate_ms.p99": "ms",
    "bench.replicate_ms.samples": "count",
    "detectors.hc_rows.self_s": "s",
    "detectors.hc_rows.rows": "count",
    "detectors.cholesky_lower.self_s": "s",
    "detectors.cholesky_lower.calls": "count",
    "cli.load_genotype_csv.self_s": "s",
    "cli.ingest_cells": "count",
    "cli.ingest_mb": "MB",
    "cli.write_artifact.self_s": "s",
    "cli.artifact_mb": "MB",
}


def _nbytes(obj) -> int:
    """Bytes of the NumPy arrays inside obj (tuples, lists and dict values)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(o) for o in obj.values())
    return 0


class Tracer:
    """In-memory span and count recorder for one traced process."""

    def __init__(self, pool_workers: int):
        # worker count of the untraced runs, for the computed job payload
        self.pool_workers = pool_workers
        self.spans: list[list] = []       # [name, start, end, parent, root]
        self.counts: dict[str, float] = defaultdict(float)
        self.replicate_ms: list[float] = []
        self.absent: set[str] = set()     # metrics that could not be taken
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._latent_cache = None
        self._latent_cache0 = 0

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name; returns (result, span)."""
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.spans[parent][4] if parent is not None else idx]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a wrapper recording span ``name``.

        ``count(tracer, arguments, result, span)`` runs after each call with
        the call's bound arguments; it names the metrics it feeds in
        ``count.metrics``, which become absent if it raises.
        """
        fn = getattr(owner, attr, None)
        fed = getattr(count, "metrics", ())
        if fn is None:
            self.absent.update({f"{name}.self_s", f"{name}.wall_s", f"{name}.calls", *fed})
            return
        sig = inspect.signature(fn) if count is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, span = tracer.call(name, fn, *args, **kwargs)
            if count is not None and not tracer.absent.issuperset(fed):
                try:
                    count(tracer, sig.bind(*args, **kwargs).arguments, result, span)
                except Exception:  # internals changed shape: drop the count, keep the run
                    tracer.absent.update(fed)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self, rareweak) -> None:
        """Wrap the cross-module call sites of an imported rareweak package."""
        bench, cli, simgen, core_stats = (getattr(rareweak, m, None)
                                          for m in ("bench", "cli", "simgen", "core_stats"))
        self.wrap(cli, "load_genotype_csv", "cli.load_genotype_csv", _count_ingest)
        self.wrap(cli, "_write_artifact", "cli.write_artifact", _count_artifact)
        self.wrap(cli, "rank_gene_sets", "bench.permute", _count_rank)
        self.wrap(bench, "_replicate_stats", "bench.permute", _count_replicate)
        self.wrap(bench, "_run_chunked", "bench.run_chunked", _count_jobs)
        self.wrap(bench, "_stats_for_columns", "bench.stats_kernel", _count_kernel)
        self.wrap(bench, "_hc_max_rows", "detectors.hc_rows", _count_hc)
        self.wrap(bench, "cholesky_lower", "detectors.cholesky_lower")
        self.wrap(bench, "simulate_genotypes", "simgen.simulate_genotypes", _count_draws)
        self.wrap(bench, "draw_signal_config", "simgen.traits")
        self.wrap(bench, "simulate_quantitative", "simgen.traits")
        self.wrap(simgen, "solve_latent_correlation", "simgen.latent_solve")
        self.wrap(simgen, "column_generators", "rng.column_generators", _count_generators)
        for cls in ("GenotypeMatrix", "Phenotype"):
            self.wrap(getattr(core_stats, cls, None), "__post_init__", "core_stats.validate")
        self._latent_cache = getattr(simgen, "_LATENT_CACHE", None)
        if isinstance(self._latent_cache, dict):
            self._latent_cache0 = len(self._latent_cache)
        else:
            self.absent.add("simgen.latent_solves")

    def uninstall(self) -> None:
        """Put back every wrapped name; later calls run untraced."""
        if isinstance(self._latent_cache, dict):
            self.counts["simgen.latent_solves"] = len(self._latent_cache) - self._latent_cache0
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS that could be taken.

        A span's self time is its duration minus its children's; spans of
        one thread nest without overlap, so the children's sum is their union.
        """
        child = np.zeros(len(self.spans))
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        values: dict[str, float] = defaultdict(float, self.counts)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            values[f"{name}.wall_s"] += end - start
            values[f"{name}.self_s"] += end - start - child[i]
            values[f"{name}.calls"] += 1
        reps = np.asarray(self.replicate_ms)
        values["bench.replicate_ms.samples"] = reps.size
        if reps.size:
            values["bench.replicate_ms.p50"] = float(np.percentile(reps, 50))
            values["bench.replicate_ms.p99"] = float(np.percentile(reps, 99))
        return {k: float(values[k]) for k in LAYER_METRICS if k not in self.absent}

    def dump(self, path: Path) -> None:
        """Write every span and count recorded, for inspection after the run."""
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "root"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }), encoding="utf-8")


# -- counts taken at the wrapped boundaries --------------------------------


def _feeds(*metrics: str):
    def mark(fn):
        fn.metrics = metrics
        return fn
    return mark


@_feeds("cli.ingest_cells", "cli.ingest_mb")
def _count_ingest(t: Tracer, a: dict, result, span) -> None:
    report = result.report
    t.counts["cli.ingest_cells"] += report.n_rows * (len(report.kept) + len(report.dropped))
    t.counts["cli.ingest_mb"] += os.path.getsize(a["path"]) / 1e6


@_feeds("cli.artifact_mb")
def _count_artifact(t: Tracer, a: dict, result, span) -> None:
    t.counts["cli.artifact_mb"] += len(a["text"].encode("utf-8")) / 1e6


def _count_permutations(t: Tracer, n: int, n_perms: int) -> None:
    t.counts["bench.permutations"] += n_perms
    # computed: the float64 response matrix, observed column plus permutations
    mb = n * (1 + n_perms) * 8 / 1e6
    t.counts["bench.response_matrix_mb"] = max(t.counts["bench.response_matrix_mb"], mb)


@_feeds("bench.permutations", "bench.response_matrix_mb")
def _count_rank(t: Tracer, a: dict, result, span) -> None:
    _count_permutations(t, np.asarray(getattr(a["y"], "values", a["y"])).size, a["n_perms"])


@_feeds("bench.permutations", "bench.response_matrix_mb",
        "bench.replicate_ms.p50", "bench.replicate_ms.p99", "bench.replicate_ms.samples")
def _count_replicate(t: Tracer, a: dict, result, span) -> None:
    _count_permutations(t, a["scenario"].n_samples, a["n_perms"])
    t.replicate_ms.append((span[2] - span[1]) * 1e3)


@_feeds("bench.job_bytes")
def _count_jobs(t: Tracer, a: dict, result, span) -> None:
    # computed: what the untraced run at pool_workers pickles, the arguments
    # once per job and the chunk results once
    n_items = a["n_items"]
    n_jobs = min(t.pool_workers, n_items) if t.pool_workers > 1 and n_items > 1 else 0
    if n_jobs:
        t.counts["bench.job_bytes"] += n_jobs * _nbytes(a["args"]) + _nbytes(result)


@_feeds("bench.stats_kernel.columns", "bench.stats_kernel.gflop")
def _count_kernel(t: Tracer, a: dict, result, span) -> None:
    (n, L), m = a["X"].shape, a["Y"].shape[1]
    # computed: the score cross-product, plus the correlation matrix and the
    # triangular solve when a covariance-based test is requested
    flops = 2.0 * n * L * m
    if set(a["needs"]) & {"LCT", "QT", "DT"}:
        flops += 2.0 * n * L * L + L * L * m
    t.counts["bench.stats_kernel.columns"] += m
    t.counts["bench.stats_kernel.gflop"] += flops / 1e9


@_feeds("detectors.hc_rows.rows")
def _count_hc(t: Tracer, a: dict, result, span) -> None:
    t.counts["detectors.hc_rows.rows"] += np.asarray(a["pvalues_rows"]).shape[0]


@_feeds("simgen.latent_draws")
def _count_draws(t: Tracer, a: dict, result, span) -> None:
    # computed: two latent normals per cell of the panel
    t.counts["simgen.latent_draws"] += 2 * result.entries.size


@_feeds("rng.generators_built")
def _count_generators(t: Tracer, a: dict, result, span) -> None:
    t.counts["rng.generators_built"] += len(result)
