"""The three benchmark workloads: their configs, generated inputs and output checks.

Every input is a pure function of the workload seed.  The program only ever
sees the generated files; it is driven through ``rareweak.cli.main`` with
the argument lists built here.  Why each workload exists, and which layers
it loads, is written up in ``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METHODS = ("HC", "HCm", "MinP", "LCT", "QT", "DT")
# worker count the traced run compares one worker against
POOL_WORKERS = 2
LEVEL = 0.05
# tolerance of the rejection-rate checks, in binomial Monte Carlo standard
# errors of a rate equal to the level
CHECK_SE = 4.0
# LCT sums the scores, which sparse signals barely move: its power in
# power_identity is about 0.09 (2000 replicates), too close to the level for
# 400 replicates to tell apart, so it is only required not to fall below it
WEAK_METHODS = ("LCT",)

# Monte Carlo protocol shared by both power workloads: the gate's power
# scenario (L=100, n=1000, q=0.4, alpha=0.76 -> 3 signals).
_SCENARIO = """\
scenario.L = 100
scenario.n = 1000
scenario.q = 0.4
scenario.alpha = 0.76
analysis.methods = {methods}
execution.level = {level}
""".format(methods=",".join(METHODS), level=LEVEL)

# rank_cli panel: n samples, genes of 5..40 SNPs, CLI-default permutations
RANK_SAMPLES = 2000
RANK_GENES = 60
RANK_PERMS = 10000
RANK_SIGNAL_GENE = "gene_01"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # rareweak subcommand timed
    workers: int          # worker count of the timed runs
    config: str           # config text; {work} becomes the input directory
    warmup: str | None    # ``simulate`` config that fills one-time caches
    units: int            # replicates (power) or gene sets (rank) per run
    responses: int        # 1 + permutations scored per unit


POWER_IDENTITY = Workload(
    name="power_identity",
    command="power",
    workers=1,
    config=_SCENARIO + """\
scenario.r = 0.65
scenario.ld = identity
execution.n_sims = 400
execution.perms_per_sim = 1
""",
    warmup=None,
    units=400,
    responses=2,
)

# Timed at one worker: at two, the pool's workers and their default BLAS
# threads oversubscribe two cores and one run's wall varies by +-15%, too
# much for a median of a few runs to settle.  The traced run still measures
# the pool at two workers (bench.parallel_eff, bench.job_bytes).
NULL_POLY = Workload(
    name="null_poly",
    command="power",
    workers=1,
    config=_SCENARIO + """\
scenario.beta = 0
scenario.ld = poly:0.5+1.0
execution.n_sims = 100
execution.perms_per_sim = 200
""",
    # same L, q and design as the timed runs, so the latent-correlation
    # solve and its Cholesky factor are cached before timing starts
    warmup="""\
scenario.L = 100
scenario.n = 2
scenario.q = 0.4
scenario.k = 1
scenario.beta = 0
scenario.ld = poly:0.5+1.0
""",
    units=100,
    responses=201,
)

RANK_CLI = Workload(
    name="rank_cli",
    command="rank",
    workers=2,
    config="""\
io.genotypes = {{work}}/genotypes.csv
io.phenotype = {{work}}/phenotype.csv
io.gene_map = {{work}}/gene_map.csv
analysis.methods = {methods}
""".format(methods=",".join(METHODS)),
    warmup=None,
    units=RANK_GENES,
    responses=1 + RANK_PERMS,
)

WORKLOADS = {w.name: w for w in (POWER_IDENTITY, NULL_POLY, RANK_CLI)}


def write_inputs(workload: Workload, seed: int, work: Path) -> Path:
    """Write the workload's config (and data files) into ``work``; return the config path."""
    work.mkdir(parents=True, exist_ok=True)
    if workload.warmup is not None:
        (work / "warmup.cfg").write_text(workload.warmup, encoding="utf-8")
    config = work / "run.cfg"
    if workload is RANK_CLI:
        write_rank_panel(seed, work)
    config.write_text(workload.config.replace("{work}", str(work)), encoding="utf-8")
    return config


def write_rank_panel(seed: int, work: Path) -> None:
    """Genotype, phenotype and gene-map CSVs for ``rank_cli``, from NumPy alone.

    The panel is drawn here rather than through ``rareweak.simgen`` so that a
    declared change to the package's random streams cannot change the inputs.
    About 1% of cells are NA (the impute path), and a few genes carry one
    constant or one mostly-missing column (the quality-control drop path).
    The first gene carries a strong additive signal, which every method must
    rank first.
    """
    rng = np.random.default_rng([seed, 0x7261])
    # the seed shuffles a fixed set of gene sizes, so the panel's width, and
    # with it the work per run, is the same for every seed
    sizes = rng.permutation(np.linspace(5, 40, RANK_GENES).round().astype(int))
    n_cols = int(sizes.sum())
    q = rng.uniform(0.05, 0.5, size=n_cols)
    geno = rng.binomial(2, q, size=(RANK_SAMPLES, n_cols)).astype(np.int8)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    signal = geno[:, :3].sum(axis=1).astype(np.float64)
    trait = signal - signal.mean() + rng.standard_normal(RANK_SAMPLES)

    missing = rng.random((RANK_SAMPLES, n_cols)) < 0.01
    # one QC casualty in each of genes 2..7, never a gene's only column
    for g in range(1, 7):
        col = int(starts[g] + sizes[g] - 1)
        if g % 2:
            geno[:, col] = 0
            missing[:, col] = False
        else:
            missing[:, col] = rng.random(RANK_SAMPLES) < 0.3

    cell = np.array(["0", "1", "2", "NA"])[np.where(missing, 3, geno)]
    ids = [f"snp_{j + 1:05d}" for j in range(n_cols)]
    with open(work / "genotypes.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(ids) + "\n")
        fh.writelines(",".join(row) + "\n" for row in cell)
    with open(work / "phenotype.csv", "w", encoding="utf-8") as fh:
        fh.write("phenotype\n")
        fh.writelines(repr(float(v)) + "\n" for v in trait)
    with open(work / "gene_map.csv", "w", encoding="utf-8") as fh:
        fh.write("gene,snp\n")
        for g, (start, size) in enumerate(zip(starts, sizes)):
            fh.writelines(f"gene_{g + 1:02d},{ids[j]}\n" for j in range(start, start + size))


def cli_args(workload: Workload, config: Path, out: Path, seed: int, workers: int) -> list[str]:
    return [workload.command, "--config", str(config), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out)]


def warmup_args(workload: Workload, work: Path, seed: int) -> list[str] | None:
    if workload.warmup is None:
        return None
    return ["simulate", "--config", str(work / "warmup.cfg"), "--seed", str(seed),
            "--out", str(work / "warmup")]


def check_artifact(workload: Workload, text: str) -> list[str]:
    """Problems found in one run's CSV; an empty list means the output is correct.

    The checks hold for any correct random stream, so a declared stream
    change does not trip them: null rejection rates within CHECK_SE binomial
    standard errors of the level, power more than CHECK_SE standard errors
    above it (WEAK_METHODS: not more than CHECK_SE below it), permutation
    p-values in [1/(1+P), 1], tie-averaged ranks summing to G(G+1)/2, and the
    planted gene at the p-value floor and the top rank for every method.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    if workload.command == "power":
        return _check_power(workload, rows)
    return _check_rank(rows)


def _check_power(workload: Workload, rows: list[dict]) -> list[str]:
    problems = []
    if [r["method"] for r in rows] != list(METHODS):
        return [f"power table lists methods {[r['method'] for r in rows]}"]
    null = workload is NULL_POLY
    n_sims = workload.units
    tol = CHECK_SE * math.sqrt(LEVEL * (1.0 - LEVEL) / n_sims)
    for r in rows:
        rate, method = float(r["power"]), r["method"]
        if int(r["n_sims"]) != n_sims:
            problems.append(f"{method}: n_sims {r['n_sims']} != {n_sims}")
        if null and abs(rate - LEVEL) > tol:
            problems.append(f"{method}: null rejection {rate} outside {LEVEL} +- {tol:.4f}")
        if not null and method in WEAK_METHODS and rate < LEVEL - tol:
            problems.append(f"{method}: power {rate} below {LEVEL} - {tol:.4f}")
        if not null and method not in WEAK_METHODS and rate <= LEVEL + tol:
            problems.append(f"{method}: power {rate} not above {LEVEL} + {tol:.4f}")
    return problems


def _check_rank(rows: list[dict]) -> list[str]:
    if len(rows) != RANK_GENES:
        return [f"ranking lists {len(rows)} genes, expected {RANK_GENES}"]
    problems = []
    floor = 1.0 / (1.0 + RANK_PERMS)
    for m in METHODS:
        p = np.array([float(r[f"pvalue_{m}"]) for r in rows])
        rank = np.array([float(r[f"rank_{m}"]) for r in rows])
        if np.any(p < floor - 1e-15) or np.any(p > 1.0):
            problems.append(f"{m}: p-values outside [{floor:.3g}, 1]")
        if abs(rank.mean() - (RANK_GENES + 1) / 2.0) > 1e-9:
            problems.append(f"{m}: mean rank {rank.mean()} != {(RANK_GENES + 1) / 2.0}")
        if rows[0]["gene"] != RANK_SIGNAL_GENE or p[0] != floor or rank[0] != rank.min():
            problems.append(f"{m}: planted gene {RANK_SIGNAL_GENE} not at the top")
    return problems
