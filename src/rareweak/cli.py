"""The ``rareweak`` command line: config-driven runs that emit CSV artifacts.

Subcommands: ``boundary`` (detectability curves), ``simulate`` (one synthetic
dataset), ``score`` (statistics on provided data), ``power`` / ``fdr``
(Monte Carlo studies), ``rank`` (permutation ranking of gene sets).
``score`` and ``rank`` also write ``ingest.csv``: what quality control did
to each genotype column (kept, imputed or dropped, with the reason).

Configs are flat ``key=value`` text with dotted keys and ``#`` comments:

    scenario.L=100
    scenario.n=1000
    scenario.alpha=0.76
    scenario.r=0.4,0.65,0.9
    execution.n_sims=500

Unknown keys are rejected.  Every artifact ``name.csv`` gets a
``name.meta.json`` sidecar holding the fully-resolved config, seed, RNG
algorithm, stream version (``rng_streams``) and environment (Python, NumPy,
SciPy, BLAS, cores), so a run can be reproduced from its outputs alone.  Exit codes: 0 ok, 2 config error
(including an output directory that cannot be written), 3 data error,
4 numeric failure (including a LAPACK error or running out of memory).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy
from scipy.stats import chi2 as _chi2

from . import __version__
from ._blas import managed as blas_managed, one_thread
from ._rng import RNG_ALGORITHM, RNG_STREAMS
from .bench import (
    METHOD_NAMES,
    Scenario,
    csv_text,
    empirical_power,
    fdr_curve,
    fdr_table_csv,
    gene_set_statistics,
    power_table_csv,
    rank_gene_sets,
    ranking_csv,
)
from .boundary import ArwScenario, boundary_curve
from .core_stats import GenotypeMatrix, Phenotype, marginal_stats
from .errors import (
    AllColumnsDroppedError,
    ConfigError,
    EmptyGeneError,
    MalformedCsvError,
    RareweakError,
    UnknownSnpIdError,
)
from .simgen import (
    CoefficientScheme,
    LdSpec,
    TraitModel,
    draw_signal_config,
    simulate_case_control,
    simulate_genotypes,
    simulate_quantitative,
    six_toeplitz_designs,
)

logger = logging.getLogger(__name__)

MISSING_TOKEN = "NA"


# ---------------------------------------------------------------------------
# config file handling


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}")


def _parse_float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}")
    if not np.isfinite(v):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return v


def _parse_float_list(s: str) -> list[float]:
    """Comma list, or an inclusive start:stop:count grid."""
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be start:stop:count, got {s!r}")
        start, stop = _parse_float(parts[0]), _parse_float(parts[1])
        count = _parse_int(parts[2])
        if count < 2:
            raise ConfigError(f"grid needs at least 2 points, got {count}")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [_parse_float(p) for p in s.split(",") if p.strip()]


def _parse_str_list(s: str) -> list[str]:
    return [p.strip() for p in s.split(",") if p.strip()]


def _parse_ld_one(s: str) -> LdSpec:
    """identity | toeplitz:b1[+b2...] | poly:scale+decay"""
    s = s.strip()
    if s == "identity":
        return LdSpec.identity()
    if s.startswith("toeplitz:"):
        bands = [_parse_float(b) for b in s[len("toeplitz:"):].split("+") if b]
        if not bands:
            raise ConfigError(f"toeplitz design needs band values, got {s!r}")
        return LdSpec.toeplitz(*bands)
    if s.startswith("poly:"):
        parts = [p for p in s[len("poly:"):].split("+") if p]
        if len(parts) != 2:
            raise ConfigError(f"poly design needs scale+decay, got {s!r}")
        return LdSpec.poly_decay(_parse_float(parts[0]), _parse_float(parts[1]))
    raise ConfigError(f"unknown ld design {s!r}")


def _parse_ld_list(s: str) -> list[tuple[str, LdSpec]]:
    if s.strip() == "six_designs":
        return list(six_toeplitz_designs())
    out = []
    for item in _parse_str_list(s):
        spec = _parse_ld_one(item)
        out.append((spec.name, spec))
    return out


def _parse_scheme(s: str) -> CoefficientScheme:
    s = s.strip()
    if s == "fixed":
        return CoefficientScheme.fixed()
    if s == "random_sign":
        return CoefficientScheme.random_sign()
    if s.startswith("uniform_range:"):
        parts = [p for p in s[len("uniform_range:"):].split("+") if p]
        if len(parts) != 2:
            raise ConfigError(f"uniform_range needs lo+hi, got {s!r}")
        return CoefficientScheme.uniform_range(_parse_float(parts[0]), _parse_float(parts[1]))
    raise ConfigError(f"unknown coefficient scheme {s!r}")


# key -> parser; each call site passes its own default, as a string, to
# Config.get.  Every key any subcommand understands must be listed here
_KNOWN_KEYS: dict[str, Callable[[str], object]] = {
    "scenario.L": _parse_int,
    "scenario.n": _parse_int,
    "scenario.q": _parse_float,
    "scenario.sigma": _parse_float,
    "scenario.alpha": _parse_float,
    "scenario.k": _parse_int,
    "scenario.r": _parse_float_list,
    "scenario.beta": _parse_float_list,
    "scenario.ld": _parse_ld_list,
    "scenario.scheme": _parse_scheme,
    "scenario.trait": str,
    "scenario.beta0": _parse_float,
    "scenario.n_case": _parse_int,
    "scenario.n_control": _parse_int,
    "boundary.alphas": _parse_float_list,
    "boundary.modes": _parse_str_list,
    "execution.seed": _parse_int,
    "execution.workers": _parse_int,
    "execution.n_sims": _parse_int,
    "execution.n_perms": _parse_int,
    "execution.perms_per_sim": _parse_int,
    "execution.level": _parse_float,
    "analysis.methods": _parse_str_list,
    "fdr.levels": _parse_float_list,
    "fdr.n_genes": _parse_int,
    "fdr.n_signal_genes": _parse_int,
    "rank.target_genes": _parse_str_list,
    "io.out": str,
    "io.genotypes": str,
    "io.phenotype": str,
    "io.gene_map": str,
    "ingest.max_missing": _parse_float,
    "ingest.hwe_min_pvalue": _parse_float,
    "ingest.maf_min": _parse_float,
}


@dataclass
class Config:
    """Raw key=value strings plus the path they came from."""

    raw: dict[str, str]
    path: str

    def has(self, key: str) -> bool:
        return key in self.raw

    def get(self, key: str, default: str | None = None) -> object:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"internal: unregistered key {key!r}")
        if key in self.raw:
            try:
                return _KNOWN_KEYS[key](self.raw[key])
            except ConfigError as e:
                raise ConfigError(f"{key}: {e}") from None
        if default is None:
            raise ConfigError(f"missing required key {key}")
        return _KNOWN_KEYS[key](default)

    def get_optional(self, key: str) -> object | None:
        return self.get(key) if key in self.raw else None


def load_config(path: str) -> Config:
    """Parse a flat key=value config file, rejecting unknown keys."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return Config(raw=raw, path=str(path))


# ---------------------------------------------------------------------------
# data ingestion


@dataclass(frozen=True)
class IngestReport:
    """What quality control did to a genotype file, column by column."""

    n_rows: int
    kept: tuple[str, ...]
    dropped: tuple[tuple[str, str], ...]        # (snp id, reason)
    imputed: tuple[tuple[str, int], ...]        # (snp id, cells imputed)
    snps: tuple[str, ...]                       # every column of the file, in order

    def log(self):
        for snp, reason in self.dropped:
            logger.info("ingest: dropped column %s (%s)", snp, reason)
        for snp, count in self.imputed:
            logger.info("ingest: imputed %d cell(s) in column %s", count, snp)

    def csv(self) -> str:
        """The ``ingest.csv`` artifact: snp, action and detail for every
        column of the file, in file order; action is kept, imputed (and
        kept) or dropped."""
        dropped, imputed = dict(self.dropped), dict(self.imputed)
        rows = []
        for snp in self.snps:
            if snp in dropped:
                rows.append((snp, "dropped", dropped[snp]))
            elif snp in imputed:
                rows.append((snp, "imputed",
                             f"{imputed[snp]}/{self.n_rows} cells set to the column mean"))
            else:
                rows.append((snp, "kept", ""))
        return csv_text(("snp", "action", "detail"), rows)


@dataclass(frozen=True)
class LoadedGenotypes:
    matrix: GenotypeMatrix
    snp_ids: tuple[str, ...]
    report: IngestReport


def _hwe_pvalue(column: np.ndarray) -> float:
    """One-degree chi-square test of {0,1,2} counts against binomial(2, q-hat)."""
    obs = np.array([np.sum(column == 0.0), np.sum(column == 1.0), np.sum(column == 2.0)],
                   dtype=np.float64)
    n = obs.sum()
    q = (obs[1] + 2.0 * obs[2]) / (2.0 * n)
    if q == 0.0 or q == 1.0:
        return 1.0
    exp = n * np.array([(1.0 - q) ** 2, 2.0 * q * (1.0 - q), q * q])
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(_chi2.sf(stat, df=1))


def load_genotype_csv(path: str, max_missing: float = 0.1,
                      hwe_min_pvalue: float | None = None,
                      maf_min: float | None = None) -> LoadedGenotypes:
    """Read a samples-by-SNPs CSV with an id header and NA for missing.

    Cells must be 0/1/2 or NA.  Columns are dropped when their missing rate
    exceeds ``max_missing``, when the optional HWE test falls below
    ``hwe_min_pvalue``, when the optional minor-allele frequency falls below
    ``maf_min``, or when they are constant; surviving NAs are imputed with
    the column mean of observed entries.  Nothing is altered silently: the
    returned report lists every drop and imputation count.
    """
    p = Path(path)
    if not p.is_file():
        raise MalformedCsvError(str(path), 0, f"genotype file not found: {path}")
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsvError(str(path), 1, f"{path}: empty file") from None
        ids = [h.strip() for h in header]
        if any(not h for h in ids):
            raise MalformedCsvError(str(path), 1, f"{path}:1: blank SNP id in header")
        if len(set(ids)) != len(ids):
            raise MalformedCsvError(str(path), 1, f"{path}:1: duplicate SNP ids in header")
        width = len(ids)
        rows: list[np.ndarray] = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != width:
                raise MalformedCsvError(str(path), lineno,
                                        f"{path}:{lineno}: expected {width} cells, got {len(rec)}")
            vals = np.empty(width)
            for j, cell in enumerate(rec):
                c = cell.strip()
                if c == MISSING_TOKEN:
                    vals[j] = np.nan
                elif c in ("0", "1", "2"):
                    vals[j] = float(c)
                else:
                    raise MalformedCsvError(str(path), lineno,
                                            f"{path}:{lineno}: cell {c!r} is not 0/1/2 or NA")
            rows.append(vals)
    if len(rows) < 2:
        raise MalformedCsvError(str(path), len(rows) + 1,
                                f"{path}: need at least 2 sample rows, got {len(rows)}")
    data = np.vstack(rows)
    n = data.shape[0]

    dropped: list[tuple[str, str]] = []
    imputed: list[tuple[str, int]] = []
    keep_cols: list[int] = []
    for j, snp in enumerate(ids):
        col = data[:, j]
        missing = np.isnan(col)
        n_missing = int(missing.sum())
        if n_missing / n > max_missing:
            dropped.append((snp, f"missing rate {n_missing}/{n} above {max_missing:g}"))
            continue
        observed = col[~missing]
        if observed.size == 0 or observed.max() == observed.min():
            dropped.append((snp, "constant"))
            continue
        if hwe_min_pvalue is not None:
            pv = _hwe_pvalue(observed)
            if pv < hwe_min_pvalue:
                dropped.append((snp, f"HWE p-value {pv:.3g} below {hwe_min_pvalue:g}"))
                continue
        if maf_min is not None:
            q = observed.mean() / 2.0
            if min(q, 1.0 - q) < maf_min:
                dropped.append((snp, f"MAF {min(q, 1.0 - q):.3g} below {maf_min:g}"))
                continue
        if n_missing:
            col[missing] = observed.mean()
            imputed.append((snp, n_missing))
        keep_cols.append(j)
    if not keep_cols:
        raise AllColumnsDroppedError(f"{path}: every column failed quality control")

    report = IngestReport(n_rows=n, kept=tuple(ids[j] for j in keep_cols),
                          dropped=tuple(dropped), imputed=tuple(imputed), snps=tuple(ids))
    report.log()
    return LoadedGenotypes(matrix=GenotypeMatrix(entries=data[:, keep_cols]),
                           snp_ids=report.kept, report=report)


def load_phenotype_csv(path: str, kind: str) -> Phenotype:
    """Read a one-column CSV (any header) into a phenotype of the given kind."""
    p = Path(path)
    if not p.is_file():
        raise MalformedCsvError(str(path), 0, f"phenotype file not found: {path}")
    values = []
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsvError(str(path), 1, f"{path}: empty file") from None
        if len(header) != 1:
            raise MalformedCsvError(str(path), 1, f"{path}:1: expected a single column")
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != 1:
                raise MalformedCsvError(str(path), lineno, f"{path}:{lineno}: expected one cell")
            try:
                values.append(float(rec[0].strip()))
            except ValueError:
                raise MalformedCsvError(str(path), lineno,
                                        f"{path}:{lineno}: cell {rec[0]!r} is not numeric") from None
    try:
        return Phenotype(values=np.asarray(values), kind=kind)  # type: ignore[arg-type]
    except RareweakError:
        raise
    except Exception as e:  # pragma: no cover
        raise MalformedCsvError(str(path), 0, f"{path}: {e}") from None


@dataclass(frozen=True)
class GeneMap:
    """Ordered gene -> column-index mapping over a loaded panel."""

    genes: tuple[tuple[str, tuple[int, ...]], ...]
    skipped: tuple[tuple[str, str], ...]   # (gene, snp id dropped by QC)

    def as_sequences(self) -> list[tuple[str, np.ndarray]]:
        return [(g, np.asarray(idx, dtype=np.int64)) for g, idx in self.genes]


def load_gene_map(path: str, kept_ids: Sequence[str],
                  all_ids: Sequence[str] | None = None) -> GeneMap:
    """Read a two-column (gene, snp) CSV and join it to kept panel columns.

    Ids absent from the original header are errors; ids dropped by quality
    control are skipped with a log line.  A SNP may belong to one gene only,
    and a gene whose SNPs were all dropped is an error.
    """
    p = Path(path)
    if not p.is_file():
        raise MalformedCsvError(str(path), 0, f"gene map not found: {path}")
    col_of = {snp: j for j, snp in enumerate(kept_ids)}
    known = set(all_ids) if all_ids is not None else set(kept_ids)
    order: list[str] = []
    members: dict[str, list[int]] = {}
    seen_pairs: set[tuple[str, str]] = set()
    owner: dict[str, str] = {}
    skipped: list[tuple[str, str]] = []
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsvError(str(path), 1, f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["gene", "snp"]:
            raise MalformedCsvError(str(path), 1, f"{path}:1: header must be gene,snp")
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != 2:
                raise MalformedCsvError(str(path), lineno, f"{path}:{lineno}: expected 2 cells")
            gene, snp = rec[0].strip(), rec[1].strip()
            if not gene or not snp:
                raise MalformedCsvError(str(path), lineno, f"{path}:{lineno}: blank gene or snp")
            if (gene, snp) in seen_pairs:
                continue
            seen_pairs.add((gene, snp))
            if snp not in known:
                raise UnknownSnpIdError(snp, f"{path}:{lineno}: unknown SNP id {snp!r}")
            if snp in owner and owner[snp] != gene:
                raise MalformedCsvError(str(path), lineno,
                                        f"{path}:{lineno}: SNP {snp!r} assigned to both "
                                        f"{owner[snp]!r} and {gene!r}")
            owner[snp] = gene
            if gene not in members:
                order.append(gene)
                members[gene] = []
            if snp in col_of:
                members[gene].append(col_of[snp])
            else:
                skipped.append((gene, snp))
                logger.info("gene map: %s/%s dropped by QC, skipping", gene, snp)
    for gene in order:
        if not members[gene]:
            raise EmptyGeneError(gene, f"{path}: gene {gene!r} has no surviving SNPs")
    return GeneMap(genes=tuple((g, tuple(members[g])) for g in order),
                   skipped=tuple(skipped))


# ---------------------------------------------------------------------------
# artifact writing


def _write_artifact(out_dir: Path, name: str, text: str, meta: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    csv_path.write_text(text, encoding="utf-8")
    sidecar = dict(meta)
    sidecar["artifact"] = csv_path.name
    sidecar["rng"] = RNG_ALGORITHM
    sidecar["rng_streams"] = RNG_STREAMS
    sidecar["version"] = __version__
    sidecar["env"] = _environment()
    (out_dir / f"{name}.meta.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    logger.info("wrote %s", csv_path)
    return csv_path


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _environment() -> dict:
    """Interpreter, NumPy, SciPy, BLAS and cores, with the BLAS thread variables as
    found and the thread count in effect during Monte Carlo work: 1 where
    ``_blas`` can set it, "unmanaged" where it cannot."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy before 1.25 only prints its config
        blas = {}
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "affinity": len(affinity) if affinity is not None else None,
        "blas_threads": {**{k: os.environ.get(k) for k in BLAS_THREAD_VARS},
                         "in_effect": 1 if blas_managed() else "unmanaged"},
    }


def _meta(command: str, cfg: Config, seed: int, workers: int) -> dict:
    return {"command": command, "config": dict(sorted(cfg.raw.items())),
            "seed": seed, "workers": workers}


# ---------------------------------------------------------------------------
# scenario assembly from config


def _resolve_workers(cfg: Config, override: int | None) -> int:
    if override is not None:
        return max(1, override)
    if cfg.has("execution.workers"):
        return max(1, cfg.get("execution.workers"))
    env = os.environ.get("RAREWEAK_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"RAREWEAK_WORKERS must be an integer, got {env!r}") from None
    return 1


def _trait_from_cfg(cfg: Config) -> TraitModel:
    kind = cfg.get("scenario.trait", "additive")
    if kind == "additive":
        return TraitModel.additive(cfg.get("scenario.sigma", "1.0"))
    if kind == "logistic":
        return TraitModel.logistic(cfg.get("scenario.beta0", "-2.0"),
                                   cfg.get("scenario.n_case"),
                                   cfg.get("scenario.n_control"))
    raise ConfigError(f"scenario.trait must be additive or logistic, got {kind!r}")


def _signal_counts_from_cfg(cfg: Config, L: int) -> int:
    from .boundary import signal_count

    if cfg.has("scenario.k"):
        if cfg.has("scenario.alpha"):
            raise ConfigError("give scenario.k or scenario.alpha, not both")
        return cfg.get("scenario.k")
    return signal_count(L, cfg.get("scenario.alpha"))


def _strengths_from_cfg(cfg: Config) -> tuple[str, list[float]]:
    """Either calibrated exponents (r) or raw coefficients (beta)."""
    if cfg.has("scenario.r") and cfg.has("scenario.beta"):
        raise ConfigError("give scenario.r or scenario.beta, not both")
    if cfg.has("scenario.r"):
        return "r", cfg.get("scenario.r")
    if cfg.has("scenario.beta"):
        return "beta", cfg.get("scenario.beta")
    raise ConfigError("missing scenario.r or scenario.beta")


def _scenarios_from_cfg(cfg: Config) -> list[Scenario]:
    """Cross product of strength grid and design list."""
    L = cfg.get("scenario.L")
    q = cfg.get("scenario.q")
    trait = _trait_from_cfg(cfg)
    scheme = cfg.get("scenario.scheme", "fixed")
    n_signals = _signal_counts_from_cfg(cfg, L)
    mode, strengths = _strengths_from_cfg(cfg)
    designs = cfg.get("scenario.ld", "identity")
    out = []
    for _, spec in designs:
        for s in strengths:
            if mode == "r":
                if trait.kind != "additive":
                    raise ConfigError("calibrated scenario.r needs an additive trait; "
                                      "give scenario.beta for logistic scenarios")
                sc = Scenario.from_strength(L=L, n=cfg.get("scenario.n"), q=q,
                                            sigma=trait.sigma, alpha=cfg.get("scenario.alpha"),
                                            r=s, ld=spec, scheme=scheme)
                if cfg.has("scenario.k"):
                    raise ConfigError("calibrated scenario.r derives the signal count "
                                      "from scenario.alpha; drop scenario.k")
            else:
                sc = Scenario(L=L, q=q, ld=spec, trait=trait, n_signals=n_signals,
                              base_beta=float(s), scheme=scheme,
                              n=cfg.get("scenario.n") if trait.kind == "additive" else None)
            out.append(sc)
    return out


def _methods_from_cfg(cfg: Config, trait_kind: str, default: str | None = None) -> list[str]:
    if default is None:
        default = ",".join(m for m in METHOD_NAMES
                           if not (m == "HCm" and trait_kind == "binary"))
    return cfg.get("analysis.methods", default)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_boundary(cfg: Config, out_dir: Path, seed: int, workers: int) -> list[Path]:
    alphas = cfg.get("boundary.alphas", "0.51:0.99:49")
    if any(not 0.5 < a < 1.0 for a in alphas):
        raise ConfigError("boundary.alphas entries must lie in (0.5, 1)")
    modes = cfg.get("boundary.modes", "optimal,minp")
    for m in modes:
        if m not in ("optimal", "minp"):
            raise ConfigError(f"boundary.modes entries must be optimal or minp, got {m!r}")
    scn = ArwScenario(L=cfg.get("scenario.L"), alpha=float(alphas[0]), r=1.0,
                      sigma=cfg.get("scenario.sigma", "1.0"), q=cfg.get("scenario.q"),
                      n=cfg.get("scenario.n"))
    rows = []
    for mode in modes:
        curve = boundary_curve(alphas, mode, scn)
        rows += [(a, r, b, h, mode) for a, r, b, h in curve.rows()]
    text = csv_text(("alpha", "r", "beta", "heritability", "mode"), rows)
    return [_write_artifact(out_dir, "boundary", text, _meta("boundary", cfg, seed, workers))]


def _cmd_simulate(cfg: Config, out_dir: Path, seed: int, workers: int) -> list[Path]:
    scenarios = _scenarios_from_cfg(cfg)
    if len(scenarios) != 1:
        raise ConfigError("simulate wants exactly one scenario; "
                          "use single-valued scenario.r/beta and scenario.ld")
    sc = scenarios[0]
    has_signal = sc.base_beta > 0.0 and sc.n_signals > 0
    signal = (draw_signal_config(sc.L, sc.n_signals, sc.scheme, sc.base_beta, seed=seed)
              if has_signal else None)
    if sc.trait.kind == "additive":
        X = simulate_genotypes(sc.n, sc.q, sc.ld, seed=seed, L=sc.L)
        if signal is None:
            from ._rng import TAG_TRAIT, substream

            y = Phenotype(values=sc.trait.sigma * substream(seed, TAG_TRAIT).standard_normal(sc.n))
        else:
            y = simulate_quantitative(X, signal, sc.trait.sigma, seed=seed)
    else:
        from .bench import _zero_signal

        X, y = simulate_case_control(sc.q, sc.ld, signal or _zero_signal(sc.L),
                                     sc.trait.beta0, sc.trait.n_case, sc.trait.n_control,
                                     seed=seed, L=sc.L)
    ids = [f"snp_{j + 1}" for j in range(sc.L)]
    geno_rows = [[int(v) for v in row] for row in X.entries]
    meta = _meta("simulate", cfg, seed, workers)
    meta["signal"] = {
        "support": [] if signal is None else [int(j) for j in signal.support],
        "beta": [] if signal is None else [float(signal.beta[j]) for j in signal.support],
    }
    out = [
        _write_artifact(out_dir, "genotypes", csv_text(ids, geno_rows), meta),
        _write_artifact(out_dir, "phenotype",
                        csv_text(("phenotype",),
                                 [[float(v)] for v in y.values]), meta),
    ]
    return out


def _load_panel(cfg: Config) -> tuple[LoadedGenotypes, Phenotype, str]:
    kind = cfg.get("scenario.trait", "additive")
    trait_kind = "binary" if kind == "logistic" else "quantitative"
    loaded = load_genotype_csv(
        cfg.get("io.genotypes"),
        max_missing=cfg.get("ingest.max_missing", "0.1"),
        hwe_min_pvalue=cfg.get_optional("ingest.hwe_min_pvalue"),
        maf_min=cfg.get_optional("ingest.maf_min"),
    )
    pheno = load_phenotype_csv(cfg.get("io.phenotype"), trait_kind)
    if pheno.n != loaded.matrix.n:
        raise MalformedCsvError(cfg.get("io.phenotype"), 0,
                                f"phenotype has {pheno.n} rows, genotypes {loaded.matrix.n}")
    return loaded, pheno, trait_kind


def _cmd_score(cfg: Config, out_dir: Path, seed: int, workers: int) -> list[Path]:
    loaded, pheno, trait_kind = _load_panel(cfg)
    stat_kind = "t" if trait_kind == "quantitative" else "d"
    marg = marginal_stats(loaded.matrix, pheno, stat_kind)
    marg_rows = [(snp, marg.values[j], marg.pvalues[j])
                 for j, snp in enumerate(loaded.snp_ids)]
    meta = _meta("score", cfg, seed, workers)
    artifacts = [_write_artifact(out_dir, "marginals",
                                 csv_text(("snp", "statistic", "pvalue"), marg_rows), meta)]

    if cfg.has("io.gene_map"):
        gm = load_gene_map(cfg.get("io.gene_map"), loaded.snp_ids, loaded.report.snps)
        gene_list = gm.as_sequences()
    else:
        gene_list = [("all", np.arange(loaded.matrix.n_snps, dtype=np.int64))]
    stats = gene_set_statistics(gene_list, loaded.matrix, pheno,
                                _methods_from_cfg(cfg, trait_kind))
    rows = [[name, idx.size] + [float(stats[m][gi]) for m in stats]
            for gi, (name, idx) in enumerate(gene_list)]
    header = ["gene", "snps"] + [f"stat_{m}" for m in stats]
    artifacts.append(_write_artifact(out_dir, "set_statistics", csv_text(header, rows), meta))
    artifacts.append(_write_artifact(out_dir, "ingest", loaded.report.csv(), meta))
    return artifacts


def _cmd_power(cfg: Config, out_dir: Path, seed: int, workers: int) -> list[Path]:
    scenarios = _scenarios_from_cfg(cfg)
    methods = _methods_from_cfg(cfg, scenarios[0].trait_kind)
    n_sims = cfg.get("execution.n_sims")
    level = cfg.get("execution.level", "0.05")
    perms = cfg.get("execution.perms_per_sim", "1")
    results = []
    for sc in scenarios:
        results += list(empirical_power(methods, sc, n_sims=n_sims, level=level,
                                        seed=seed, perms_per_sim=perms, workers=workers))
    return [_write_artifact(out_dir, "power", power_table_csv(results),
                            _meta("power", cfg, seed, workers))]


def _cmd_fdr(cfg: Config, out_dir: Path, seed: int, workers: int) -> list[Path]:
    scenarios = _scenarios_from_cfg(cfg)
    methods = _methods_from_cfg(cfg, scenarios[0].trait_kind, default="HC")
    curves = [fdr_curve(methods, sc, levels=cfg.get("fdr.levels", "0.02,0.05,0.1,0.15,0.2"),
                        n_sims=cfg.get("execution.n_sims"),
                        n_genes=cfg.get("fdr.n_genes"),
                        n_signal_genes=cfg.get("fdr.n_signal_genes"),
                        seed=seed, workers=workers)
              for sc in scenarios]
    return [_write_artifact(out_dir, "fdr", fdr_table_csv(curves),
                            _meta("fdr", cfg, seed, workers))]


def _cmd_rank(cfg: Config, out_dir: Path, seed: int, workers: int) -> list[Path]:
    loaded, pheno, trait_kind = _load_panel(cfg)
    gm = load_gene_map(cfg.get("io.gene_map"), loaded.snp_ids, loaded.report.snps)
    methods = _methods_from_cfg(cfg, trait_kind)
    ranking = rank_gene_sets(gm.as_sequences(), loaded.matrix, pheno, methods,
                             n_perms=cfg.get("execution.n_perms", "10000"),
                             seed=seed, workers=workers)
    meta = _meta("rank", cfg, seed, workers)
    artifacts = [_write_artifact(out_dir, "rank", ranking_csv(ranking), meta),
                 _write_artifact(out_dir, "ingest", loaded.report.csv(), meta)]
    targets = cfg.get_optional("rank.target_genes")
    if targets:
        averages = ranking.average_ranks(targets)
        rows = [(m, averages[m], len(targets)) for m in ranking.methods]
        artifacts.append(_write_artifact(out_dir, "rank_average",
                                         csv_text(("method", "mean_rank", "n_genes"), rows), meta))
    return artifacts


_COMMANDS: dict[str, Callable[[Config, Path, int, int], list[Path]]] = {
    "boundary": _cmd_boundary,
    "simulate": _cmd_simulate,
    "score": _cmd_score,
    "power": _cmd_power,
    "fdr": _cmd_fdr,
    "rank": _cmd_rank,
}


def run(command: str, cfg: Config, out_dir: str | Path = ".",
        seed: int | None = None, workers: int | None = None) -> list[Path]:
    """Execute one subcommand against a parsed config; returns artifact paths."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; know {sorted(_COMMANDS)}")
    eff_seed = seed if seed is not None else cfg.get("execution.seed", "0")
    eff_workers = _resolve_workers(cfg, workers)
    # overrides become part of the effective config so reruns from the
    # sidecar reproduce the same artifacts
    cfg.raw["execution.seed"] = str(eff_seed)
    cfg.raw["execution.workers"] = str(eff_workers)
    # one BLAS thread, as in the Monte Carlo chunks, so that no artifact's
    # last digits depend on the host's thread count
    with one_thread():
        return _COMMANDS[command](cfg, Path(out_dir), eff_seed, eff_workers)


def _emit_error(exc: Exception, code: int):
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)


DATA_ERRORS = (MalformedCsvError, AllColumnsDroppedError, UnknownSnpIdError, EmptyGeneError)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rareweak",
        description="Detection-boundary curves, simulation, and permutation "
                    "benchmarks for rare, weak genetic effects.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override execution.seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="override execution.workers (or RAREWEAK_WORKERS)")
    parser.add_argument("--out", default=None, help="output directory (default io.out or .)")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.get("io.out", ".")
        run(args.command, cfg, out_dir=out_dir, seed=args.seed, workers=args.workers)
    except ConfigError as e:
        _emit_error(e, 2)
        return 2
    except DATA_ERRORS as e:
        _emit_error(e, 3)
        return 3
    except RareweakError as e:
        _emit_error(e, 4)
        return 4
    except OSError as e:  # the output directory (--out / io.out) cannot be written
        _emit_error(e, 2)
        return 2
    except (np.linalg.LinAlgError, MemoryError) as e:  # raised below the package
        _emit_error(e, 4)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
