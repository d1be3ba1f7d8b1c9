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

Unknown keys are rejected.  Subcommands compute and return their CSV texts;
``run`` writes them.  It builds one sidecar per run, and every artifact
``name.csv`` gets it as ``name.meta.json``, identical but for ``artifact``:
the fully-resolved config (seed and worker overrides included), seed, RNG
algorithm, stream version (``rng_streams``) and environment (Python, NumPy,
SciPy, BLAS, cores), so a run can be reproduced from its outputs alone.
Exit codes: 0 ok, 2 config error (including an output directory that cannot
be written), 3 data error, 4 numeric failure (including a LAPACK error or
running out of memory).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import platform
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy
from scipy.special import chdtrc

from . import __version__
from ._blas import managed as blas_managed, one_thread
from ._rng import RNG_ALGORITHM, RNG_STREAMS
from .bench import (
    Scenario,
    _check_workers,
    _draw_replicate,
    _require_genes,
    csv_text,
    empirical_power,
    fdr_curve,
    fdr_table_csv,
    gene_set_statistics,
    methods_for,
    power_table_csv,
    rank_gene_sets,
    ranking_csv,
)
from .boundary import boundary_curve, signal_count
from .core_stats import GenotypeMatrix, Phenotype, marginal_stats
from .errors import (
    AllColumnsDroppedError,
    ConfigError,
    EmptyGeneError,
    MalformedCsvError,
    RareweakError,
    UnknownSnpIdError,
)
from .simgen import CoefficientScheme, LdSpec, TraitModel, six_toeplitz_designs

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
    return [_parse_float(p) for p in _parse_str_list(s)]


def _parse_str_list(s: str) -> list[str]:
    """Comma list of at least one non-blank item, each stripped."""
    items = [p.strip() for p in s.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"expected a comma list of at least one value, got {s!r}")
    return items


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


def _parse_ld_list(s: str) -> list[LdSpec]:
    if s.strip() == "six_designs":
        return list(six_toeplitz_designs())
    return [_parse_ld_one(item) for item in _parse_str_list(s)]


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


def _parse_trait(s: str) -> str:
    if s not in ("additive", "logistic"):
        raise ConfigError(f"must be additive or logistic, got {s!r}")
    return s


REQUIRED = object()  # the default of a key that must be given

# every key that any subcommand understands, declared once: key -> (parser,
# default), the default being its text, REQUIRED, or None (read when absent)
_KEYS: dict[str, tuple[Callable[[str], object], object]] = {
    "scenario.L": (_parse_int, REQUIRED),
    "scenario.n": (_parse_int, REQUIRED),
    "scenario.q": (_parse_float, REQUIRED),
    "scenario.sigma": (_parse_float, "1.0"),
    "scenario.alpha": (_parse_float, REQUIRED),
    "scenario.k": (_parse_int, None),
    "scenario.r": (_parse_float_list, None),
    "scenario.beta": (_parse_float_list, None),
    "scenario.ld": (_parse_ld_list, "identity"),
    "scenario.scheme": (_parse_scheme, "fixed"),
    "scenario.trait": (_parse_trait, "additive"),
    "scenario.beta0": (_parse_float, "-2.0"),
    "scenario.n_case": (_parse_int, REQUIRED),
    "scenario.n_control": (_parse_int, REQUIRED),
    "boundary.alphas": (_parse_float_list, "0.51:0.99:49"),
    "boundary.modes": (_parse_str_list, "optimal,minp"),
    "execution.seed": (_parse_int, "0"),
    "execution.workers": (_parse_int, "1"),
    "execution.n_sims": (_parse_int, REQUIRED),
    "execution.n_perms": (_parse_int, "10000"),
    "execution.perms_per_sim": (_parse_int, "1"),  # power and fdr
    "execution.level": (_parse_float, "0.05"),
    # its default depends on the subcommand and the trait: the caller passes it
    "analysis.methods": (_parse_str_list, REQUIRED),
    "fdr.levels": (_parse_float_list, "0.02,0.05,0.1,0.15,0.2"),
    "fdr.n_genes": (_parse_int, REQUIRED),
    "fdr.n_signal_genes": (_parse_int, REQUIRED),
    "rank.target_genes": (_parse_str_list, None),
    "io.out": (str, "."),
    "io.genotypes": (str, REQUIRED),
    "io.phenotype": (str, REQUIRED),
    "io.gene_map": (str, REQUIRED),
    "ingest.max_missing": (_parse_float, "0.1"),
    "ingest.hwe_min_pvalue": (_parse_float, None),
    "ingest.maf_min": (_parse_float, None),
}


@dataclass
class Config:
    """Raw key=value strings and the defaults ``get`` used."""

    raw: dict[str, str]
    defaults: dict[str, str] = field(default_factory=dict)

    def has(self, key: str) -> bool:
        return key in self.raw

    def get(self, key: str, default: str | None = None) -> object:
        """key's parsed value, else its ``_KEYS`` default's, recorded in
        ``defaults`` (None reads None, REQUIRED raises); ``default`` replaces
        the table's, for ``analysis.methods`` alone (see ``_KEYS``)."""
        if key not in _KEYS:
            raise ConfigError(f"internal: unregistered key {key!r}")
        parse, fallback = _KEYS[key]
        if key in self.raw:
            try:
                return parse(self.raw[key])
            except ConfigError as e:
                raise ConfigError(f"{key}: {e}") from None
        fallback = default or fallback
        if fallback is REQUIRED:
            raise ConfigError(f"missing required key {key}")
        if fallback is not None:
            self.defaults[key] = fallback
            return parse(fallback)
        return None


def load_config(path: str) -> Config:
    """Parse a flat key=value config file, rejecting unknown keys."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return Config(raw=raw)


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
    report: IngestReport


def _hwe_pvalues(counts: np.ndarray) -> np.ndarray:
    """1-df chi-square HWE tests of {0,1,2} count columns, each with two genotypes or more."""
    obs = counts.astype(np.float64)
    n = obs.sum(axis=0)
    q = (obs[1] + 2.0 * obs[2]) / (2.0 * n)
    exp = n * np.array([(1.0 - q) ** 2, 2.0 * q * (1.0 - q), q * q])
    return chdtrc(1, np.sum((obs - exp) ** 2 / exp, axis=0))


@contextmanager
def _csv_records(path: str, what: str) -> Iterator[tuple[list[str], Iterator]]:
    """Yield a UTF-8 CSV's header and its (line number, cells) records; a missing (``what``
    not found), empty, undecodable or unparseable file raises ``MalformedCsvError``."""
    p = Path(path)
    if not p.is_file():
        raise MalformedCsvError(str(path), 0, f"{what} not found: {path}")
    try:
        with p.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, strict=True)
            header = next(reader, None)
            if header is None:
                raise MalformedCsvError(str(path), 1, f"{path}: empty file")
            yield header, enumerate(reader, start=2)
    except UnicodeDecodeError as e:
        raise MalformedCsvError(str(path), 0, f"{path}: not UTF-8 text ({e.reason})") from None
    except csv.Error as e:
        line = reader.line_num
        raise MalformedCsvError(str(path), line, f"{path}:{line}: {e}") from None


# cell text -> genotype code: the allele count, or _NA_CODE for a missing
# cell; a cell not in it reads as _NO_CELL until stripped
_NA_CODE = 3
_CELLS = {"0": 0, "1": 1, "2": 2, MISSING_TOKEN: _NA_CODE}
_NO_CELL = 255


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

    Cells are read as one-byte codes, and quality control runs on that
    block; the float64 panel is built once, from the kept columns alone.
    A threshold outside its domain ([0, 1], or [0, 0.5] for ``maf_min``)
    raises ``ConfigError`` before the file is read.
    """
    for key, value, top in (("max_missing", max_missing, 1.0),
                            ("hwe_min_pvalue", hwe_min_pvalue, 1.0), ("maf_min", maf_min, 0.5)):
        if value is not None and not 0.0 <= value <= top:
            raise ConfigError(f"ingest.{key} must lie in [0, {top:g}], got {value:g}")
    with _csv_records(path, "genotype file") as (header, records):
        ids = [h.strip() for h in header]
        if any(not h for h in ids):
            raise MalformedCsvError(str(path), 1, f"{path}:1: blank SNP id in header")
        if len(set(ids)) != len(ids):
            raise MalformedCsvError(str(path), 1, f"{path}:1: duplicate SNP ids in header")
        width = len(ids)
        rows: list[np.ndarray] = []
        for lineno, rec in records:
            if len(rec) != width:
                raise MalformedCsvError(str(path), lineno,
                                        f"{path}:{lineno}: expected {width} cells, got {len(rec)}")
            row = np.fromiter(map(_CELLS.get, rec, repeat(_NO_CELL)), np.uint8, width)
            for j in np.flatnonzero(row == _NO_CELL):
                c = rec[j].strip()
                if c not in _CELLS:
                    raise MalformedCsvError(str(path), lineno,
                                            f"{path}:{lineno}: cell {c!r} is not 0/1/2 or NA")
                row[j] = _CELLS[c]
            rows.append(row)
    n = len(rows)
    if n < 2:
        raise MalformedCsvError(str(path), n + 1, f"{path}: need at least 2 sample rows, got {n}")
    codes = np.vstack(rows)
    del rows  # so that QC's temporaries and the panel are the peak, not the rows too

    counts = np.stack([np.count_nonzero(codes == g, axis=0) for g in range(_NA_CODE + 1)])
    n_missing = counts[_NA_CODE]
    # exact on integer cells: the sum and the count are whole numbers
    mean = (counts[1] + 2 * counts[2]) / np.maximum(n - n_missing, 1)
    too_missing = n_missing / n > max_missing
    constant = ~too_missing & (np.count_nonzero(counts[:_NA_CODE], axis=0) <= 1)
    drop = too_missing | constant
    pv = np.ones(width)
    if hwe_min_pvalue is not None:
        pv[~drop] = _hwe_pvalues(counts[:_NA_CODE, ~drop])
        drop |= pv < hwe_min_pvalue
    maf = np.minimum(mean / 2.0, 1.0 - mean / 2.0)
    if maf_min is not None:
        drop |= maf < maf_min

    dropped, imputed = [], []
    for j in np.flatnonzero(drop | (n_missing > 0)):
        snp = ids[j]
        if too_missing[j]:
            dropped.append((snp, f"missing rate {n_missing[j]}/{n} above {max_missing:g}"))
        elif constant[j]:
            dropped.append((snp, "constant"))
        elif hwe_min_pvalue is not None and pv[j] < hwe_min_pvalue:
            dropped.append((snp, f"HWE p-value {pv[j]:.3g} below {hwe_min_pvalue:g}"))
        elif drop[j]:
            dropped.append((snp, f"MAF {maf[j]:.3g} below {maf_min:g}"))
        else:
            imputed.append((snp, int(n_missing[j])))
    keep = np.flatnonzero(~drop)
    if not keep.size:
        raise AllColumnsDroppedError(f"{path}: every column failed quality control")
    codes = codes.take(keep, axis=1)
    entries = codes.astype(np.float64)
    np.copyto(entries, mean[keep], where=codes == _NA_CODE)

    report = IngestReport(n_rows=n, kept=tuple(ids[j] for j in keep),
                          dropped=tuple(dropped), imputed=tuple(imputed), snps=tuple(ids))
    report.log()
    return LoadedGenotypes(matrix=GenotypeMatrix(entries=entries), report=report)


def load_phenotype_csv(path: str, kind: str) -> Phenotype:
    """Read a one-column CSV (any header) into a phenotype of the given kind."""
    values = []
    with _csv_records(path, "phenotype file") as (header, records):
        if len(header) != 1:
            raise MalformedCsvError(str(path), 1, f"{path}:1: expected a single column")
        for lineno, rec in records:
            if len(rec) != 1:
                raise MalformedCsvError(str(path), lineno, f"{path}:{lineno}: expected one cell")
            try:
                values.append(float(rec[0].strip()))
            except ValueError:
                raise MalformedCsvError(str(path), lineno,
                                        f"{path}:{lineno}: cell {rec[0]!r} is not numeric") from None
    return Phenotype(values=np.asarray(values), kind=kind)  # type: ignore[arg-type]


def load_gene_map(path: str, kept_ids: Sequence[str],
                  all_ids: Sequence[str]) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Read a two-column (gene, snp) CSV and join it to kept panel columns:
    each gene, in first-seen order, with its kept columns' indices.

    Ids absent from the original header (``all_ids``) are errors; ids dropped
    by quality control are skipped with a log line.  A SNP may belong to one
    gene only (a repeated row is skipped), and a gene whose SNPs were all
    dropped is an error.
    """
    col_of = {snp: j for j, snp in enumerate(kept_ids)}
    known = set(all_ids)
    order: list[str] = []
    members: dict[str, list[int]] = {}
    owner: dict[str, str] = {}
    with _csv_records(path, "gene map") as (header, records):
        if [h.strip().lower() for h in header] != ["gene", "snp"]:
            raise MalformedCsvError(str(path), 1, f"{path}:1: header must be gene,snp")
        for lineno, rec in records:
            if len(rec) != 2:
                raise MalformedCsvError(str(path), lineno, f"{path}:{lineno}: expected 2 cells")
            gene, snp = rec[0].strip(), rec[1].strip()
            if not gene or not snp:
                raise MalformedCsvError(str(path), lineno, f"{path}:{lineno}: blank gene or snp")
            if snp not in known:
                raise UnknownSnpIdError(snp, f"{path}:{lineno}: unknown SNP id {snp!r}")
            if owner.get(snp) == gene:
                continue
            if snp in owner:
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
                logger.info("gene map: %s/%s dropped by QC, skipping", gene, snp)
    for gene in order:
        if not members[gene]:
            raise EmptyGeneError(gene, f"{path}: gene {gene!r} has no surviving SNPs")
    return tuple((g, tuple(members[g])) for g in order)


# ---------------------------------------------------------------------------
# artifact writing


def _write_artifact(out_dir: Path, name: str, text: str, meta: dict) -> Path:
    """Write ``name.csv`` holding text, and ``name.meta.json`` holding the
    run's sidecar ``meta`` plus the CSV's file name as ``artifact``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    csv_path.write_text(text, encoding="utf-8")
    (out_dir / f"{name}.meta.json").write_text(
        json.dumps({**meta, "artifact": csv_path.name}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
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


# ---------------------------------------------------------------------------
# scenario assembly from config


def _trait_from_cfg(cfg: Config) -> TraitModel:
    kind = cfg.get("scenario.trait")
    if kind == "additive":
        return TraitModel.additive(cfg.get("scenario.sigma"))
    return TraitModel.logistic(cfg.get("scenario.beta0"),
                               cfg.get("scenario.n_case"),
                               cfg.get("scenario.n_control"))


def _signal_counts_from_cfg(cfg: Config, L: int) -> int:
    if cfg.has("scenario.k"):
        if cfg.has("scenario.alpha"):
            raise ConfigError("give scenario.k or scenario.alpha, not both")
        return cfg.get("scenario.k")
    return signal_count(L, cfg.get("scenario.alpha"))


def _strengths_from_cfg(cfg: Config) -> tuple[str, list[float]]:
    """Either calibrated exponents (r) or raw coefficients (beta)."""
    if cfg.has("scenario.r") and cfg.has("scenario.beta"):
        raise ConfigError("give scenario.r or scenario.beta, not both")
    for mode in ("r", "beta"):
        if cfg.has(f"scenario.{mode}"):
            return mode, cfg.get(f"scenario.{mode}")
    raise ConfigError("missing scenario.r or scenario.beta")


def _scenarios_from_cfg(cfg: Config) -> list[Scenario]:
    """Cross product of strength grid and design list."""
    L = cfg.get("scenario.L")
    q = cfg.get("scenario.q")
    trait = _trait_from_cfg(cfg)
    scheme = cfg.get("scenario.scheme")
    n_signals = _signal_counts_from_cfg(cfg, L)
    mode, strengths = _strengths_from_cfg(cfg)
    if mode == "r" and trait.kind != "additive":
        raise ConfigError("calibrated scenario.r needs an additive trait; "
                          "give scenario.beta for logistic scenarios")
    if mode == "r" and cfg.has("scenario.k"):
        raise ConfigError("calibrated scenario.r derives the signal count "
                          "from scenario.alpha; drop scenario.k")
    out = []
    for spec in cfg.get("scenario.ld"):
        for s in strengths:
            if mode == "r":
                sc = Scenario.from_strength(L=L, n=cfg.get("scenario.n"), q=q,
                                            sigma=trait.sigma, alpha=cfg.get("scenario.alpha"),
                                            r=s, ld=spec, scheme=scheme)
            else:
                sc = Scenario(L=L, q=q, ld=spec, trait=trait, n_signals=n_signals,
                              base_beta=float(s), scheme=scheme,
                              n=cfg.get("scenario.n") if trait.kind == "additive" else None)
            out.append(sc)
    return out


def _methods_from_cfg(cfg: Config, trait_kind: str, default: str | None = None) -> list[str]:
    return cfg.get("analysis.methods", default or ",".join(methods_for(trait_kind)))


# ---------------------------------------------------------------------------
# subcommands: each computes, and returns its CSV texts by artifact name with
# the fields it adds to the run's sidecar; ``run`` writes them


def _cmd_boundary(cfg: Config, seed: int, workers: int) -> tuple[dict[str, str], dict]:
    alphas = cfg.get("boundary.alphas")
    if any(not 0.5 < a < 1.0 for a in alphas):
        raise ConfigError("boundary.alphas entries must lie in (0.5, 1)")
    modes = cfg.get("boundary.modes")
    for m in modes:
        if m not in ("optimal", "minp"):
            raise ConfigError(f"boundary.modes entries must be optimal or minp, got {m!r}")
    panel = (cfg.get("scenario.L"), cfg.get("scenario.n"), cfg.get("scenario.q"),
             cfg.get("scenario.sigma"))
    rows = []
    for mode in modes:
        curve = boundary_curve(alphas, mode, *panel)
        rows += [(a, r, b, h, mode) for a, r, b, h in curve.rows()]
    return {"boundary": csv_text(("alpha", "r", "beta", "heritability", "mode"), rows)}, {}


def _cmd_simulate(cfg: Config, seed: int, workers: int) -> tuple[dict[str, str], dict]:
    scenarios = _scenarios_from_cfg(cfg)
    if len(scenarios) != 1:
        raise ConfigError("simulate wants exactly one scenario; "
                          "use single-valued scenario.r/beta and scenario.ld")
    (X,), y, signal = _draw_replicate(scenarios[0], seed)
    ids = [f"snp_{j + 1}" for j in range(X.n_snps)]
    geno_rows = [[int(v) for v in row] for row in X.entries]
    texts = {"genotypes": csv_text(ids, geno_rows),
             "phenotype": csv_text(("phenotype",), [[float(v)] for v in y.values])}
    return texts, {"signal": {"support": [int(j) for j in signal.support],
                              "beta": [float(signal.beta[j]) for j in signal.support]}}


def _load_panel(cfg: Config) -> tuple[LoadedGenotypes, Phenotype, str]:
    trait_kind = "binary" if cfg.get("scenario.trait") == "logistic" else "quantitative"
    loaded = load_genotype_csv(
        cfg.get("io.genotypes"),
        max_missing=cfg.get("ingest.max_missing"),
        hwe_min_pvalue=cfg.get("ingest.hwe_min_pvalue"),
        maf_min=cfg.get("ingest.maf_min"),
    )
    pheno = load_phenotype_csv(cfg.get("io.phenotype"), trait_kind)
    if pheno.n != loaded.matrix.n:
        raise MalformedCsvError(cfg.get("io.phenotype"), 0,
                                f"phenotype has {pheno.n} rows, genotypes {loaded.matrix.n}")
    return loaded, pheno, trait_kind


def _cmd_score(cfg: Config, seed: int, workers: int) -> tuple[dict[str, str], dict]:
    loaded, pheno, trait_kind = _load_panel(cfg)
    stat_kind = "t" if trait_kind == "quantitative" else "d"
    marg = marginal_stats(loaded.matrix, pheno, stat_kind)
    marg_rows = [(snp, marg.values[j], marg.pvalues[j])
                 for j, snp in enumerate(loaded.report.kept)]
    if cfg.has("io.gene_map"):
        gene_list = load_gene_map(cfg.get("io.gene_map"), loaded.report.kept, loaded.report.snps)
    else:
        gene_list = [("all", range(loaded.matrix.n_snps))]
    stats = gene_set_statistics(gene_list, loaded.matrix, pheno,
                                _methods_from_cfg(cfg, trait_kind))
    rows = [[name, len(idx)] + [float(stats[m][gi]) for m in stats]
            for gi, (name, idx) in enumerate(gene_list)]
    header = ["gene", "snps"] + [f"stat_{m}" for m in stats]
    return {"marginals": csv_text(("snp", "statistic", "pvalue"), marg_rows),
            "set_statistics": csv_text(header, rows),
            "ingest": loaded.report.csv()}, {}


def _cmd_power(cfg: Config, seed: int, workers: int) -> tuple[dict[str, str], dict]:
    scenarios = _scenarios_from_cfg(cfg)
    methods = _methods_from_cfg(cfg, scenarios[0].trait_kind)
    n_sims = cfg.get("execution.n_sims")
    level = cfg.get("execution.level")
    perms = cfg.get("execution.perms_per_sim")
    results = []
    for sc in scenarios:
        results += list(empirical_power(methods, sc, n_sims=n_sims, level=level,
                                        seed=seed, perms_per_sim=perms, workers=workers))
    return {"power": power_table_csv(results)}, {}


def _cmd_fdr(cfg: Config, seed: int, workers: int) -> tuple[dict[str, str], dict]:
    scenarios = _scenarios_from_cfg(cfg)
    methods = _methods_from_cfg(cfg, scenarios[0].trait_kind, default="HC")
    curves = [fdr_curve(methods, sc, levels=cfg.get("fdr.levels"),
                        n_sims=cfg.get("execution.n_sims"),
                        n_genes=cfg.get("fdr.n_genes"),
                        n_signal_genes=cfg.get("fdr.n_signal_genes"),
                        seed=seed, perms_per_sim=cfg.get("execution.perms_per_sim"),
                        workers=workers)
              for sc in scenarios]
    return {"fdr": fdr_table_csv(curves)}, {}


def _cmd_rank(cfg: Config, seed: int, workers: int) -> tuple[dict[str, str], dict]:
    loaded, pheno, trait_kind = _load_panel(cfg)
    genes = load_gene_map(cfg.get("io.gene_map"), loaded.report.kept, loaded.report.snps)
    methods = _methods_from_cfg(cfg, trait_kind)
    targets = cfg.get("rank.target_genes")
    # a repeated or unknown target exits before any permutation is drawn
    _require_genes(targets or (), [gene for gene, _ in genes])
    ranking = rank_gene_sets(genes, loaded.matrix, pheno, methods,
                             n_perms=cfg.get("execution.n_perms"),
                             seed=seed, workers=workers)
    texts = {"rank": ranking_csv(ranking), "ingest": loaded.report.csv()}
    if targets:
        averages = ranking.average_ranks(targets)
        rows = [(m, averages[m], len(targets)) for m in ranking.methods]
        texts["rank_average"] = csv_text(("method", "mean_rank", "n_genes"), rows)
    return texts, {}


_COMMANDS: dict[str, Callable[[Config, int, int], tuple[dict[str, str], dict]]] = {
    "boundary": _cmd_boundary,
    "simulate": _cmd_simulate,
    "score": _cmd_score,
    "power": _cmd_power,
    "fdr": _cmd_fdr,
    "rank": _cmd_rank,
}


def run(command: str, cfg: Config, out_dir: str | Path = ".",
        seed: int | None = None, workers: int | None = None) -> list[Path]:
    """Execute one subcommand against a parsed config, leaving the config as
    given; writes each artifact with the run's one sidecar and returns their paths."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; know {sorted(_COMMANDS)}")
    eff_seed = seed if seed is not None else cfg.get("execution.seed")
    eff_workers = workers if workers is not None else cfg.get("execution.workers")
    _check_workers(eff_workers)
    # one BLAS thread, as in the Monte Carlo chunks, so that no artifact's
    # last digits depend on the host's thread count
    with one_thread():
        texts, fields = _COMMANDS[command](cfg, eff_seed, eff_workers)
    # after the command, so that the config holds every default it read; the
    # overrides join it, so that a rerun from the sidecar reproduces the artifacts
    config = {**cfg.defaults, **cfg.raw,
              "execution.seed": str(eff_seed), "execution.workers": str(eff_workers)}
    meta = {"command": command, "config": dict(sorted(config.items())),
            "seed": eff_seed, "workers": eff_workers, "rng": RNG_ALGORITHM,
            "rng_streams": RNG_STREAMS, "version": __version__, "env": _environment(), **fields}
    return [_write_artifact(Path(out_dir), name, text, meta) for name, text in texts.items()]


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
                        help="override execution.workers (default 1)")
    parser.add_argument("--out", default=None, help="output directory (default io.out or .)")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.get("io.out")
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
