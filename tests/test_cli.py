"""Config parsing, CSV ingestion, and the command-line entry point."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareweak import (
    METHOD_NAMES,
    CoefficientScheme,
    ConfigError,
    EmptyGeneError,
    LdSpec,
    MalformedCsvError,
    NonFiniteInputError,
    Scenario,
    TraitModel,
    UnknownSnpIdError,
)
from rareweak import _blas, bench, cli
from rareweak.cli import (
    Config,
    load_config,
    load_gene_map,
    load_genotype_csv,
    load_phenotype_csv,
    main,
    run,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- config files -------------------------------------------------------------


def test_config_parses_comments_and_grids(tmp_path):
    p = write(tmp_path / "a.cfg", """
# a comment
scenario.L = 100        # trailing comment
scenario.r = 0.4:0.9:3

execution.seed = 7
""")
    cfg = load_config(p)
    assert cfg.get("scenario.L") == 100
    assert cfg.get("scenario.r") == [0.4, 0.65, 0.9]
    assert cfg.get("execution.seed") == 7
    assert cfg.get("execution.workers") == 1
    assert cfg.get("ingest.maf_min") is None
    assert cfg.has("scenario.r") and not cfg.has("scenario.beta")


def test_config_rejects_unknown_duplicate_and_bare_lines(tmp_path):
    p = write(tmp_path / "a.cfg", "scenario.LL = 3\n")
    with pytest.raises(ConfigError, match=r"a\.cfg:1: unknown key"):
        load_config(p)
    p = write(tmp_path / "b.cfg", "scenario.L = 3\nscenario.L = 4\n")
    with pytest.raises(ConfigError, match=r"b\.cfg:2: duplicate key"):
        load_config(p)
    p = write(tmp_path / "c.cfg", "scenario.L\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:1: expected key=value"):
        load_config(p)
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.cfg"))


def test_config_value_coercion_errors_name_the_key():
    cfg = Config(raw={"scenario.L": "ten"})
    with pytest.raises(ConfigError, match="scenario.L"):
        cfg.get("scenario.L")
    with pytest.raises(ConfigError, match="missing required key scenario.q"):
        cfg.get("scenario.q")


def test_config_ld_and_scheme_values():
    cfg = Config(raw={"scenario.ld": "six_designs"})
    designs = cfg.get("scenario.ld")
    assert len(designs) == 6
    assert len({spec.name for spec in designs}) == 6
    cfg = Config(raw={"scenario.ld": "toeplitz:0.3+0.1",
                      "scenario.scheme": "uniform_range:0.5+1.5"})
    [spec] = cfg.get("scenario.ld")
    assert spec.bands == (0.3, 0.1)
    assert cfg.get("scenario.scheme").kind == "uniform_range"
    cfg = Config(raw={"scenario.ld": "spiral:1"})
    with pytest.raises(ConfigError):
        cfg.get("scenario.ld")


# --- genotype ingestion ---------------------------------------------------------


def geno_csv(tmp_path, text, name="g.csv"):
    return write(tmp_path / name, text)


def test_load_genotypes_preserves_values_exactly(tmp_path):
    p = geno_csv(tmp_path, "s1,s2\n0,2\n1,0\n2,1\n")
    loaded = load_genotype_csv(p)
    np.testing.assert_array_equal(loaded.matrix.entries, [[0, 2], [1, 0], [2, 1]])
    assert loaded.report.kept == ("s1", "s2")
    assert loaded.report.dropped == () and loaded.report.imputed == ()
    assert loaded.report.n_rows == 3


def test_load_genotypes_imputes_column_mean(tmp_path):
    p = geno_csv(tmp_path, "s1,s2\n0,0\nNA,1\n2,0\n1,1\n2,0\n1,1\n0,0\n1,1\n2,0\n1,1\n")
    loaded = load_genotype_csv(p)
    # observed s1 entries: 0,2,1,2,1,0,1,2,1 -> mean 10/9
    assert loaded.matrix.entries[1, 0] == pytest.approx(10.0 / 9.0)
    assert loaded.report.imputed == (("s1", 1),)


def test_load_genotypes_drops_high_missing_and_constant(tmp_path):
    rows = ["s1,s2,s3"]
    for i in range(10):
        rows.append(f"{'NA' if i < 3 else i % 3},{i % 2},1")
    p = geno_csv(tmp_path, "\n".join(rows) + "\n")
    loaded = load_genotype_csv(p)
    assert loaded.report.kept == ("s2",)
    reasons = dict(loaded.report.dropped)
    assert "missing rate" in reasons["s1"]
    assert reasons["s3"] == "constant"


def test_load_genotypes_optional_filters(tmp_path):
    # s1 violates Hardy-Weinberg badly (no heterozygotes), s2 is nearly
    # monomorphic, s3 is ordinary
    lines = ["s1,s2,s3"]
    for i in range(40):
        s1 = 0 if i < 20 else 2
        s2 = 1 if i == 0 else 0
        s3 = (0, 1, 1, 2)[i % 4]
        lines.append(f"{s1},{s2},{s3}")
    p = geno_csv(tmp_path, "\n".join(lines) + "\n")
    assert load_genotype_csv(p).report.kept == ("s1", "s2", "s3")
    assert load_genotype_csv(p, hwe_min_pvalue=0.01).report.kept == ("s2", "s3")
    assert load_genotype_csv(p, maf_min=0.05).report.kept == ("s1", "s3")


def test_load_genotypes_malformed(tmp_path):
    p = geno_csv(tmp_path, "s1,s2\n0,3\n1,1\n")
    with pytest.raises(MalformedCsvError, match="not 0/1/2 or NA") as ei:
        load_genotype_csv(p)
    assert ei.value.line == 2
    p = geno_csv(tmp_path, "s1,s2\n0\n", name="ragged.csv")
    with pytest.raises(MalformedCsvError, match="expected 2 cells"):
        load_genotype_csv(p)
    p = geno_csv(tmp_path, "s1,s1\n0,1\n1,1\n", name="dup.csv")
    with pytest.raises(MalformedCsvError, match="duplicate SNP ids"):
        load_genotype_csv(p)
    p = geno_csv(tmp_path, "s1,\n0,1\n1,1\n", name="blank.csv")
    with pytest.raises(MalformedCsvError, match="blank SNP id"):
        load_genotype_csv(p)
    p = geno_csv(tmp_path, "s1,s2\n0,1\n", name="short.csv")
    with pytest.raises(MalformedCsvError, match="at least 2 sample rows"):
        load_genotype_csv(p)
    with pytest.raises(MalformedCsvError, match="not found"):
        load_genotype_csv(str(tmp_path / "nope.csv"))


def test_csv_parser_errors_are_malformed_csv(tmp_path):
    p = geno_csv(tmp_path, "s1,s2\n0,1\n1," + "1" * 200_000 + "\n")
    with pytest.raises(MalformedCsvError, match="field larger than field limit") as ei:
        load_genotype_csv(p)
    assert ei.value.line == 3


def test_load_genotypes_all_dropped(tmp_path):
    from rareweak import AllColumnsDroppedError

    p = geno_csv(tmp_path, "s1\n1\n1\n1\n")
    with pytest.raises(AllColumnsDroppedError):
        load_genotype_csv(p)


def _reference_load_genotype_csv(path, max_missing=0.1, hwe_min_pvalue=None, maf_min=None):
    """The per-cell, per-column loader that ``load_genotype_csv`` replaced,
    kept as the reference the whole-block loader must reproduce."""
    import csv
    from pathlib import Path

    from scipy.stats import chi2

    from rareweak import AllColumnsDroppedError, GenotypeMatrix
    from rareweak.cli import IngestReport, LoadedGenotypes

    def hwe_pvalue(column):
        obs = np.array([np.sum(column == 0.0), np.sum(column == 1.0), np.sum(column == 2.0)],
                       dtype=np.float64)
        n = obs.sum()
        q = (obs[1] + 2.0 * obs[2]) / (2.0 * n)
        if q == 0.0 or q == 1.0:
            return 1.0
        exp = n * np.array([(1.0 - q) ** 2, 2.0 * q * (1.0 - q), q * q])
        stat = float(np.sum((obs - exp) ** 2 / exp))
        return float(chi2.sf(stat, df=1))

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
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != width:
                raise MalformedCsvError(str(path), lineno,
                                        f"{path}:{lineno}: expected {width} cells, got {len(rec)}")
            vals = np.empty(width)
            for j, cell in enumerate(rec):
                c = cell.strip()
                if c == "NA":
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

    dropped, imputed, keep_cols = [], [], []
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
            pv = hwe_pvalue(observed)
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
    return LoadedGenotypes(matrix=GenotypeMatrix(entries=data[:, keep_cols]), report=report)


def _panel_cells():
    """Header plus 60 rows of cells: NAs scattered over most columns, one
    constant column, one column that is entirely NA, and frequencies from
    rare to common so that the HWE and MAF filters both drop some columns."""
    rng = np.random.default_rng(2024)
    q = np.array([0.03, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.45, 0.25])
    geno = rng.binomial(2, q, size=(60, q.size))
    geno[:30, 7], geno[30:, 7] = 0, 2           # no heterozygotes: fails HWE
    cells = geno.astype(str).astype(object)
    cells[rng.random(cells.shape) < 0.05] = "NA"
    cells[:, 4] = "1"
    cells[:, 5] = "NA"
    return [[f"s{j}" for j in range(q.size)]] + [list(row) for row in cells]


def _render(cells, form):
    if form == "padded":
        cells = [[f" {c}" if (i + j) % 3 == 1 else f"{c} " if (i + j) % 3 == 2 else c
                  for j, c in enumerate(row)] for i, row in enumerate(cells)]
    elif form == "quoted":
        cells = [[f'"{c}"' if (i + j) % 2 else c for j, c in enumerate(row)]
                 for i, row in enumerate(cells)]
    eol = "\r\n" if form == "crlf" else "\n"
    text = eol.join(",".join(row) for row in cells)
    return text if form == "no_final_newline" else text + eol


@pytest.mark.parametrize("qc", [{}, {"max_missing": 1.0},
                                {"hwe_min_pvalue": 0.2, "maf_min": 0.15}])
@pytest.mark.parametrize("form", ["plain", "crlf", "padded", "quoted", "no_final_newline"])
def test_load_genotypes_matches_the_per_cell_reference(tmp_path, form, qc):
    p = geno_csv(tmp_path, _render(_panel_cells(), form))
    got, want = load_genotype_csv(p, **qc), _reference_load_genotype_csv(p, **qc)
    assert got.matrix.entries.tobytes() == want.matrix.entries.tobytes()
    assert got.report == want.report
    assert got.report.csv() == want.report.csv()
    reasons = {r.split()[0] for _, r in got.report.dropped}
    assert reasons == ({"missing", "constant"} if not qc
                       else {"constant"} if "max_missing" in qc
                       else {"missing", "constant", "HWE", "MAF"})


@pytest.mark.parametrize("text", [
    "s1,s2,s3\n0, 1,3\n1,1,1\n",            # a literal 3 after a padded cell
    "s1,s2\n0,1\n1,x\n1\n",                # a bad cell on a line above a ragged line
    "s1,s2\r\n0,1\r\n1,1\r\n2\r\n",         # a ragged row
])
def test_load_genotypes_fails_like_the_per_cell_reference(tmp_path, text):
    p = geno_csv(tmp_path, text)
    with pytest.raises(MalformedCsvError) as got:
        load_genotype_csv(p)
    with pytest.raises(MalformedCsvError) as want:
        _reference_load_genotype_csv(p)
    assert (got.value.line, str(got.value)) == (want.value.line, str(want.value))


def test_load_genotypes_holds_the_panel_about_once(tmp_path):
    # QC runs on one-byte codes and the float64 panel is built once, from the
    # kept columns: 1.31 x the returned block's bytes on this panel, against
    # 2.32 x for float64 rows, their stacked block and a copy of its kept columns
    import tracemalloc

    rng = np.random.default_rng(31)
    n, L = 500, 300
    geno = rng.binomial(2, rng.uniform(0.05, 0.5, L), size=(n, L))
    cells = np.array(["0", "1", "2", "NA"])[np.where(rng.random((n, L)) < 0.02, 3, geno)]
    cells[:, 3] = "1"             # constant: dropped
    cells[: n // 2, 7] = "NA"     # mostly missing: dropped
    p = geno_csv(tmp_path, ",".join(f"snp_{j}" for j in range(L)) + "\n"
                 + "".join(",".join(row) + "\n" for row in cells))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = load_genotype_csv(p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [snp for snp, _ in got.report.dropped] == ["snp_3", "snp_7"] and got.report.imputed
    assert peak <= 1.6 * got.matrix.entries.nbytes


@pytest.mark.parametrize("seed", [1, 23])
def test_load_genotypes_matches_the_reference_on_the_benchmark_panel(tmp_path, monkeypatch, seed):
    import importlib.util

    # read only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    workloads.write_rank_panel(seed, tmp_path)
    got = load_genotype_csv(tmp_path / "genotypes.csv").matrix.entries
    want = _reference_load_genotype_csv(tmp_path / "genotypes.csv").matrix.entries
    assert got.tobytes() == want.tobytes()
    assert got.flags["C_CONTIGUOUS"] and want.flags["C_CONTIGUOUS"]


# --- phenotype and gene map -----------------------------------------------------


def test_load_phenotype(tmp_path):
    p = write(tmp_path / "y.csv", "y\n1.5\n-0.25\n3\n")
    y = load_phenotype_csv(p, "quantitative")
    np.testing.assert_array_equal(y.values, [1.5, -0.25, 3.0])
    p = write(tmp_path / "b.csv", "status\n0\n1\n1\n")
    assert load_phenotype_csv(p, "binary").n_case == 2
    p = write(tmp_path / "bad.csv", "y\nnope\n")
    with pytest.raises(MalformedCsvError, match="not numeric"):
        load_phenotype_csv(p, "quantitative")
    p = write(tmp_path / "half.csv", "y\n0.5\n1\n")
    with pytest.raises(NonFiniteInputError):
        load_phenotype_csv(p, "binary")
    p = write(tmp_path / "wide.csv", "a,b\n1,2\n")
    with pytest.raises(MalformedCsvError, match="single column"):
        load_phenotype_csv(p, "quantitative")


def test_gene_map_joins_and_dedupes(tmp_path):
    p = write(tmp_path / "m.csv", "gene,snp\nG1,s1\nG1,s3\nG1,s1\nG2,s2\n")
    genes = load_gene_map(p, kept_ids=("s1", "s2", "s3"), all_ids=("s1", "s2", "s3"))
    assert genes == (("G1", (0, 2)), ("G2", (1,)))


def test_gene_map_skips_qc_dropped_but_rejects_unknown(tmp_path):
    p = write(tmp_path / "m.csv", "gene,snp\nG1,s1\nG1,s2\n")
    genes = load_gene_map(p, kept_ids=("s1",), all_ids=("s1", "s2"))
    assert genes == (("G1", (0,)),)
    with pytest.raises(UnknownSnpIdError) as ei:
        load_gene_map(p, kept_ids=("s1",), all_ids=("s1",))
    assert ei.value.snp_id == "s2"


def test_gene_map_errors(tmp_path):
    p = write(tmp_path / "m.csv", "gene,snp\nG1,s1\nG2,s1\n")
    with pytest.raises(MalformedCsvError, match="assigned to both"):
        load_gene_map(p, kept_ids=("s1",), all_ids=("s1",))
    p = write(tmp_path / "h.csv", "gene,rsid\nG1,s1\n")
    with pytest.raises(MalformedCsvError, match="header must be gene,snp"):
        load_gene_map(p, kept_ids=("s1",), all_ids=("s1",))
    p = write(tmp_path / "e.csv", "gene,snp\nG1,s2\n")
    with pytest.raises(EmptyGeneError) as ei:
        load_gene_map(p, kept_ids=("s1",), all_ids=("s1", "s2"))
    assert ei.value.gene == "G1"


# --- subcommands end to end -------------------------------------------------


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_boundary_command(tmp_path, capsys):
    cfg = write(tmp_path / "b.cfg", """
scenario.L = 100
scenario.q = 0.4
scenario.n = 1000
boundary.alphas = 0.55:0.95:9
""")
    out = tmp_path / "out"
    assert main(["boundary", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "boundary.csv")
    by_mode = {"optimal": {}, "minp": {}}
    for row in rows:
        by_mode[row["mode"]][row["alpha"]] = float(row["r"])
    assert len(by_mode["optimal"]) == 9
    for a, r_opt in by_mode["optimal"].items():
        assert by_mode["minp"][a] >= r_opt
    meta = json.loads((out / "boundary.meta.json").read_text())
    assert meta["command"] == "boundary"
    assert meta["artifact"] == "boundary.csv"
    assert meta["config"]["boundary.alphas"] == "0.55:0.95:9"


def test_boundary_rejects_alpha_outside_range(tmp_path, capsys):
    cfg = write(tmp_path / "b.cfg",
                "scenario.L = 100\nscenario.q = 0.4\nscenario.n = 1000\n"
                "boundary.alphas = 0.3,0.8\n")
    assert main(["boundary", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and err["exit_code"] == 2


def simulate_cfg(tmp_path, extra=""):
    return write(tmp_path / "sim.cfg", f"""
scenario.L = 12
scenario.n = 80
scenario.q = 0.4
scenario.k = 3
scenario.beta = 0.9
execution.seed = 5
{extra}
""")


def test_simulate_score_rank_flow(tmp_path):
    cfg = simulate_cfg(tmp_path)
    out = tmp_path / "run1"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    meta = json.loads((out / "genotypes.meta.json").read_text())
    support = meta["signal"]["support"]
    assert len(support) == 3 and all(0 <= j < 12 for j in support)
    assert meta["signal"]["beta"] == [0.9, 0.9, 0.9]

    geno = read_csv(out / "genotypes.csv")
    assert len(geno) == 80
    assert set(geno[0].keys()) == {f"snp_{j}" for j in range(1, 13)}
    assert all(v in ("0", "1", "2") for row in geno for v in row.values())

    genes = "\n".join(f"G{j // 3 + 1},snp_{j + 1}" for j in range(12))
    gmap = write(tmp_path / "genes.csv", "gene,snp\n" + genes + "\n")
    cfg2 = write(tmp_path / "an.cfg", f"""
scenario.L = 12
io.genotypes = {out / 'genotypes.csv'}
io.phenotype = {out / 'phenotype.csv'}
io.gene_map = {gmap}
scenario.q = 0.4
analysis.methods = HC,QT
execution.n_perms = 200
""")
    out2 = tmp_path / "run2"
    assert main(["score", "--config", cfg2, "--out", str(out2)]) == 0
    marg = read_csv(out2 / "marginals.csv")
    assert [r["snp"] for r in marg] == [f"snp_{j}" for j in range(1, 13)]
    assert all(0.0 < float(r["pvalue"]) <= 1.0 for r in marg)
    sets = read_csv(out2 / "set_statistics.csv")
    assert [r["gene"] for r in sets] == ["G1", "G2", "G3", "G4"]
    assert all(r["snps"] == "3" for r in sets)
    assert all("stat_HC" in r and "stat_QT" in r for r in sets)

    assert main(["rank", "--config", cfg2, "--out", str(out2), "--seed", "3"]) == 0
    rank = read_csv(out2 / "rank.csv")
    for mname in ("HC", "QT"):
        ranks = [float(r[f"rank_{mname}"]) for r in rank]
        assert sum(ranks) == pytest.approx(10.0)  # 4 genes
        assert all(float(r[f"pvalue_{mname}"]) >= 1.0 / 201.0 for r in rank)


@pytest.mark.parametrize("command", ["rank", "score"])
def test_ingest_report_is_written_as_an_artifact(tmp_path, command):
    rng = np.random.default_rng(89)
    geno = rng.binomial(2, 0.4, size=(40, 5)).astype(str)
    geno[:, 1] = "1"          # constant: dropped
    geno[[3, 17], 3] = "NA"   # two missing cells: imputed
    ids = [f"snp_{j + 1}" for j in range(5)]
    write(tmp_path / "g.csv", ",".join(ids) + "\n" + "".join(",".join(r) + "\n" for r in geno))
    write(tmp_path / "p.csv",
          "phenotype\n" + "".join(f"{float(v)!r}\n" for v in rng.standard_normal(40)))
    write(tmp_path / "m.csv", "gene,snp\n" + "".join(f"G{j // 3},{s}\n" for j, s in enumerate(ids)))
    cfg = write(tmp_path / "a.cfg", f"""
io.genotypes = {tmp_path / 'g.csv'}
io.phenotype = {tmp_path / 'p.csv'}
io.gene_map = {tmp_path / 'm.csv'}
analysis.methods = HC,QT
execution.n_perms = 100
""")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert (out / "ingest.csv").read_text() == (
        "snp,action,detail\n"
        "snp_1,kept,\n"
        "snp_2,dropped,constant\n"
        "snp_3,kept,\n"
        "snp_4,imputed,2/40 cells set to the column mean\n"
        "snp_5,kept,\n")
    assert json.loads((out / "ingest.meta.json").read_text())["command"] == command


def test_sidecar_config_reproduces_run(tmp_path):
    cfg = simulate_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "11"]) == 0
    meta = json.loads((out1 / "genotypes.meta.json").read_text())
    replay = write(tmp_path / "replay.cfg",
                   "\n".join(f"{k} = {v}" for k, v in meta["config"].items()) + "\n")
    assert main(["simulate", "--config", replay, "--out", str(out2)]) == 0
    assert (out1 / "genotypes.csv").read_bytes() == (out2 / "genotypes.csv").read_bytes()
    assert (out1 / "phenotype.csv").read_bytes() == (out2 / "phenotype.csv").read_bytes()


def test_sidecar_holds_the_effective_config(tmp_path):
    path = write(tmp_path / "p.cfg", "scenario.L = 10\nscenario.n = 60\nscenario.q = 0.4\n"
                 "scenario.alpha = 0.76\nscenario.r = 0.9\nexecution.n_sims = 400\n")
    cfg = load_config(path)
    run("power", cfg, out_dir=tmp_path / "a", seed=3)
    config = json.loads((tmp_path / "a" / "power.meta.json").read_text())["config"]
    assert {"execution.level": "0.05", "execution.perms_per_sim": "1", "scenario.ld": "identity",
            "scenario.scheme": "fixed", "scenario.trait": "additive", "scenario.sigma": "1.0",
            "analysis.methods": ",".join(METHOD_NAMES)}.items() <= config.items()
    assert not cfg.has("execution.level")  # a default read is not a key given
    replay = write(tmp_path / "replay.cfg", "".join(f"{k} = {v}\n" for k, v in config.items()))
    assert main(["power", "--config", replay, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "power.csv").read_bytes() == (tmp_path / "b" / "power.csv").read_bytes()


def test_unknown_trait_is_a_config_error(tmp_path, capsys):
    cfg = _panel_files(tmp_path, ["0.3", "-0.7", "1.1", "0.2"])
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("scenario.trait = Logistic\n")
    assert main(["score", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "scenario.trait" in err["message"]


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats is most of an import's time and memory, and nothing needs it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, rareweak.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout.strip() == "False"


def test_simulate_null_when_beta_zero(tmp_path):
    cfg = write(tmp_path / "n.cfg",
                "scenario.L = 8\nscenario.n = 50\nscenario.q = 0.3\n"
                "scenario.k = 2\nscenario.beta = 0\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "phenotype.meta.json").read_text())
    assert meta["signal"] == {"support": [], "beta": []}


def test_simulate_logistic_panel(tmp_path):
    cfg = write(tmp_path / "l.cfg", """
scenario.L = 8
scenario.q = 0.3
scenario.k = 2
scenario.beta = 0.4
scenario.trait = logistic
scenario.n_case = 30
scenario.n_control = 20
""")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    pheno = [r["phenotype"] for r in read_csv(out / "phenotype.csv")]
    assert pheno == ["1"] * 30 + ["0"] * 20


def test_power_command_worker_independence(tmp_path):
    cfg = write(tmp_path / "p.cfg", """
scenario.L = 10
scenario.n = 80
scenario.q = 0.4
scenario.alpha = 0.76
scenario.r = 0.5,1.5
analysis.methods = HC
execution.n_sims = 100
execution.perms_per_sim = 4
execution.level = 0.05
execution.seed = 2
""")
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["power", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["power", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    assert (out1 / "power.csv").read_bytes() == (out2 / "power.csv").read_bytes()
    rows = read_csv(out1 / "power.csv")
    assert [float(r["r_or_beta"]) for r in rows] == [0.5, 1.5]
    assert float(rows[1]["power"]) >= float(rows[0]["power"])


def test_fdr_command(tmp_path):
    cfg = write(tmp_path / "f.cfg", """
scenario.L = 8
scenario.n = 60
scenario.q = 0.4
scenario.k = 2
scenario.beta = 0.6
fdr.levels = 0.1,0.2
fdr.n_genes = 6
fdr.n_signal_genes = 2
execution.n_sims = 3
execution.perms_per_sim = 12
execution.seed = 4
""")
    out = tmp_path / "out"
    assert main(["fdr", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "fdr.csv")
    assert len(rows) == 2 and all(r["method"] == "HC" for r in rows)
    assert all(0.0 <= float(r["fdr"]) <= 1.0 for r in rows)
    assert all(r["n_signal_genes"] == "2" for r in rows)


def test_fdr_under_the_pooled_null_floor_exits_4(tmp_path, capsys):
    # 3 simulations x 6 genes x 11 permutations = 198 draws, under 20 / 0.1
    cfg = write(tmp_path / "f.cfg", """
scenario.L = 8
scenario.n = 60
scenario.q = 0.4
scenario.k = 2
scenario.beta = 0.6
fdr.levels = 0.1,0.2
fdr.n_genes = 6
fdr.n_signal_genes = 2
execution.n_sims = 3
execution.perms_per_sim = 11
""")
    assert main(["fdr", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "TooFewPermutationsError" and err["exit_code"] == 4
    assert "need at least 200" in err["message"]
    assert not (tmp_path / "out").exists()


def test_exit_codes(tmp_path, capsys):
    missing = write(tmp_path / "m.cfg",
                    "scenario.L = 4\nscenario.q = 0.4\n"
                    f"io.genotypes = {tmp_path / 'no.csv'}\n"
                    f"io.phenotype = {tmp_path / 'no2.csv'}\n")
    assert main(["score", "--config", missing, "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "MalformedCsvError" and err["exit_code"] == 3

    both = write(tmp_path / "r.cfg",
                 "scenario.L = 10\nscenario.n = 50\nscenario.q = 0.4\n"
                 "scenario.alpha = 0.76\nscenario.r = 0.5\nscenario.beta = 0.5\n"
                 "execution.n_sims = 100\n")
    assert main(["power", "--config", both, "--out", str(tmp_path)]) == 2

    small = write(tmp_path / "s.cfg",
                  "scenario.L = 10\nscenario.n = 50\nscenario.q = 0.4\n"
                  "scenario.k = 2\nscenario.beta = 0.5\nexecution.n_sims = 5\n")
    assert main(["power", "--config", small, "--out", str(tmp_path)]) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "BadSampleSizeError" and err["exit_code"] == 4

    no_genes = write(tmp_path / "g.cfg",
                     "scenario.L = 10\nscenario.n = 50\nscenario.q = 0.4\n"
                     "scenario.k = 2\nscenario.beta = 0.5\nexecution.n_sims = 5\n"
                     "fdr.n_genes = 0\nfdr.n_signal_genes = 0\n")
    assert main(["fdr", "--config", no_genes, "--out", str(tmp_path)]) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "BadSampleSizeError" and "n_genes" in err["message"]

    # an allele frequency outside (0, 1), through the API and the command line
    with pytest.raises(NonFiniteInputError):
        Scenario(L=10, q=1.5, ld=LdSpec.identity(), trait=TraitModel.additive(1.0),
                 n_signals=2, base_beta=0.5, scheme=CoefficientScheme.fixed(), n=50)
    bad_q = write(tmp_path / "q.cfg",
                  "scenario.L = 10\nscenario.n = 50\nscenario.q = 1.5\n"
                  "scenario.k = 2\nscenario.beta = 0.5\nexecution.n_sims = 100\n")
    assert main(["power", "--config", bad_q, "--out", str(tmp_path / "q")]) == 4
    payloads = []
    for line in capsys.readouterr().err.splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            pass
    assert len(payloads) == 1
    assert payloads[0]["error"] == "NonFiniteInputError" and payloads[0]["exit_code"] == 4


@pytest.mark.parametrize("bad_file,exit_code", [("g.csv", 3), ("p.csv", 3), ("m.csv", 3),
                                                 ("a.cfg", 2)])
def test_undecodable_input_exits_with_one_json_line(tmp_path, capsys, bad_file, exit_code):
    cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(5).normal(size=40)])
    path = tmp_path / bad_file
    path.write_bytes(path.read_bytes() + b"\xff\n")
    assert main(["rank", "--config", cfg, "--out", str(tmp_path / "out")]) == exit_code
    payloads = []
    for line in capsys.readouterr().err.splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            pass
    assert len(payloads) == 1
    assert payloads[0]["exit_code"] == exit_code
    assert payloads[0]["message"].endswith("not UTF-8 text (invalid start byte)")


def _with_bom(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def test_bom_genotype_ids_reach_the_artifacts_without_it(tmp_path):
    cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(5).normal(size=40)])
    _with_bom(tmp_path / "g.csv")
    cfg = write(tmp_path / "a.cfg",
                "".join(ln + "\n" for ln in Path(cfg).read_text().splitlines()
                        if not ln.startswith("io.gene_map")))
    out = tmp_path / "out"
    assert main(["score", "--config", cfg, "--out", str(out)]) == 0
    for artifact in ("marginals.csv", "ingest.csv"):
        assert [ln.split(",")[0] for ln in (out / artifact).read_text().splitlines()[1:3]] == [
            "snp_1", "snp_2"], artifact


@pytest.mark.parametrize("bom_file", ["g.csv", "p.csv", "m.csv", "a.cfg"])
def test_a_leading_bom_is_accepted_on_every_input(tmp_path, bom_file):
    # a BOM genotype header once named "\ufeffsnp_1", which the gene map's
    # snp_1 did not match; a BOM config once named "\ufeffio.genotypes"
    cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(5).normal(size=40)])
    assert main(["rank", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    _with_bom(tmp_path / bom_file)
    assert main(["rank", "--config", cfg, "--out", str(tmp_path / "bom")]) == 0
    for artifact in ("rank.csv", "ingest.csv"):
        assert (tmp_path / "bom" / artifact).read_bytes() == (tmp_path / "plain" / artifact).read_bytes()


def test_a_repeated_target_gene_exits_2(tmp_path, capsys):
    cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(5).normal(size=40)])
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("rank.target_genes = G0,G0,G1\n")
    assert main(["rank", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    payload = _one_payload(capsys)
    assert payload["error"] == "ConfigError" and "'G0'" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_an_unknown_target_gene_exits_3_before_any_ranking(tmp_path, capsys, monkeypatch):
    cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(5).normal(size=40)])
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("rank.target_genes = G0,G9\n")

    def no_ranking(*args, **kwargs):
        raise AssertionError("ranked before the target genes were checked")

    monkeypatch.setattr(cli, "rank_gene_sets", no_ranking)
    assert main(["rank", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert _one_payload(capsys) == {"error": "EmptyGeneError", "message": "unknown gene(s) ['G9']",
                                    "exit_code": 3}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rank", "score"])
@pytest.mark.parametrize("key,value", [("ingest.max_missing", "-0.5"), ("ingest.max_missing", "1.5"),
                                       ("ingest.maf_min", "0.9"), ("ingest.maf_min", "-0.1"),
                                       ("ingest.hwe_min_pvalue", "1.5"),
                                       ("ingest.hwe_min_pvalue", "-1")])
def test_an_ingest_threshold_outside_its_domain_exits_2(tmp_path, capsys, command, key, value):
    # each once dropped every column and exited 3, blaming the data
    cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(5).normal(size=40)])
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write(f"{key} = {value}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    payload = _one_payload(capsys)
    assert payload["error"] == "ConfigError" and payload["message"].startswith(f"{key} must lie in")
    assert not (tmp_path / "out").exists()


def test_ingest_thresholds_at_their_domains_edges_are_accepted(tmp_path):
    # s1 is exactly in HWE (p-value 1) with MAF 0.5; s2 has MAF 0.375 and is not
    p = geno_csv(tmp_path, "s1,s2\n0,1\n1,2\n1,1\n2,1\n")
    for qc in ({"max_missing": 1.0, "hwe_min_pvalue": 0.0, "maf_min": 0.5},
               {"max_missing": 0.0, "hwe_min_pvalue": 1.0, "maf_min": 0.0}):
        assert load_genotype_csv(p, **qc).report.kept == ("s1",), qc


def _one_payload(capsys):
    payloads = []
    for line in capsys.readouterr().err.splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            pass
    assert len(payloads) == 1
    return payloads[0]


_POWER_BASE = ("scenario.L = 10\nscenario.n = 50\nscenario.q = 0.4\nscenario.k = 2\n"
               "scenario.beta = 0.5\nexecution.n_sims = 100\nexecution.perms_per_sim = 4\n")
_BOUNDARY_BASE = "scenario.L = 100\nscenario.q = 0.4\nscenario.n = 1000\n"
_FDR_BASE = _POWER_BASE + "fdr.n_genes = 4\nfdr.n_signal_genes = 1\n"


def _without(base, key):
    return "".join(ln + "\n" for ln in base.splitlines() if not ln.startswith(key))


# every key that _parse_float_list or _parse_str_list reads, with a command that reads it
_LIST_KEYS = [
    ("power", "scenario.r", _without(_POWER_BASE, "scenario.beta").replace(
        "scenario.k = 2", "scenario.alpha = 0.76")),
    ("power", "scenario.beta", _without(_POWER_BASE, "scenario.beta")),
    ("power", "scenario.ld", _POWER_BASE),
    ("power", "analysis.methods", _POWER_BASE),
    ("boundary", "boundary.alphas", _BOUNDARY_BASE),
    ("boundary", "boundary.modes", _BOUNDARY_BASE),
    ("fdr", "fdr.levels", _FDR_BASE),
    ("rank", "rank.target_genes", None),
]


def test_the_empty_list_cases_cover_every_list_key():
    parsers = {cli._parse_float_list, cli._parse_str_list, cli._parse_ld_list}
    assert {k for k, (f, _) in cli._KEYS.items() if f in parsers} == {k for _, k, _ in _LIST_KEYS}


@pytest.mark.parametrize("command,key,base", _LIST_KEYS, ids=[key for _, key, _ in _LIST_KEYS])
@pytest.mark.parametrize("value", ["", " , "], ids=["empty", "blank_items"])
def test_an_empty_list_value_exits_2_naming_the_key(tmp_path, capsys, command, key, base, value):
    if base is None:
        cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(5).normal(size=40)])
        base = Path(cfg).read_text(encoding="utf-8")
    cfg = write(tmp_path / "e.cfg", f"{base}{key} ={value}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    payload = _one_payload(capsys)
    assert payload["error"] == "ConfigError" and payload["message"].startswith(f"{key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "power"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_a_negative_seed_exits_2_with_one_json_line(tmp_path, capsys, command, where):
    cfg = write(tmp_path / "s.cfg", _POWER_BASE + ("execution.seed = -1\n" if where == "config" else ""))
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(argv + (["--seed", "-1"] if where == "flag" else [])) == 2
    assert _one_payload(capsys) == {"error": "ConfigError", "exit_code": 2,
                                    "message": "seed must be a non-negative integer, got -1"}
    assert not (tmp_path / "out").exists()


def _stray_quote_in_phenotype(tmp_path):
    cells = [f"{v:.6f}" for v in np.random.default_rng(5).normal(size=40)]
    cells[2] = '"1.5"3'                    # the lenient dialect read 1.53
    return _panel_files(tmp_path, cells), tmp_path / "p.csv", 4, "',' expected after '\"'"


def _open_quote_at_the_end_of_the_genotypes(tmp_path):
    cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(5).normal(size=40)])
    path = tmp_path / "g.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-2] + '"1', encoding="utf-8")   # read as if the quote closed
    return cfg, path, 41, "unexpected end of data"


@pytest.mark.parametrize("files", [_stray_quote_in_phenotype,
                                   _open_quote_at_the_end_of_the_genotypes])
def test_malformed_quoting_exits_3_with_the_line(tmp_path, capsys, files):
    cfg, path, line, reason = files(tmp_path)
    assert main(["rank", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    payload = _one_payload(capsys)
    assert payload["error"] == "MalformedCsvError" and payload["exit_code"] == 3
    assert payload["message"] == f"{path}:{line}: {reason}"


def test_calibrated_strengths_with_a_signal_count_exit_2(tmp_path, capsys):
    cfg = write(tmp_path / "k.cfg", "scenario.L = 10\nscenario.n = 50\nscenario.q = 0.4\n"
                "scenario.k = 2\nscenario.r = 0.5\nexecution.n_sims = 100\n")
    assert main(["power", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert _one_payload(capsys) == {
        "error": "ConfigError", "exit_code": 2,
        "message": "calibrated scenario.r derives the signal count from scenario.alpha; "
                   "drop scenario.k"}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("methods", ["HC,MinP,QT", "HC,MinP"])
def test_constant_simulated_response_exits_4_with_one_json_line(tmp_path, capsys, methods, workers):
    cfg = write(tmp_path / "c.cfg", "scenario.L = 10\nscenario.n = 50\nscenario.q = 0.4\n"
                "scenario.k = 2\nscenario.beta = 0\nscenario.sigma = 0\n"
                f"analysis.methods = {methods}\nexecution.n_sims = 100\n"
                "execution.perms_per_sim = 4\n")
    out = tmp_path / "out"
    assert main(["power", "--config", cfg, "--out", str(out), "--workers", workers]) == 4
    payloads = []
    for line in capsys.readouterr().err.splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            pass
    assert payloads == [{"error": "ConstantColumnError", "message": "response is constant",
                         "exit_code": 4}]
    assert not (out / "power.csv").exists()


def test_unwritable_output_directory_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "b.cfg", "scenario.L = 100\nscenario.q = 0.4\nscenario.n = 1000\n")
    blocker = write(tmp_path / "taken", "not a directory\n")
    assert main(["boundary", "--config", cfg, "--out", f"{blocker}/sub"]) == 2
    payloads = []
    for line in capsys.readouterr().err.splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            pass
    assert len(payloads) == 1
    assert payloads[0]["error"] == "NotADirectoryError" and payloads[0]["exit_code"] == 2


def test_sidecar_records_environment(tmp_path):
    cfg = write(tmp_path / "b.cfg", "scenario.L = 100\nscenario.q = 0.4\nscenario.n = 1000\n")
    out = tmp_path / "out"
    assert main(["boundary", "--config", cfg, "--out", str(out)]) == 0
    env = json.loads((out / "boundary.meta.json").read_text())["env"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "cpu_count", "affinity", "blas_threads"}
    assert env["numpy"] == np.__version__
    assert "OPENBLAS_NUM_THREADS" in env["blas_threads"]


def test_sidecar_records_blas_threads_in_effect(tmp_path, monkeypatch):
    cfg = write(tmp_path / "b.cfg", "scenario.L = 100\nscenario.q = 0.4\nscenario.n = 1000\n")
    assert main(["boundary", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    env = json.loads((tmp_path / "a" / "boundary.meta.json").read_text())["env"]
    assert env["blas_threads"]["in_effect"] == (1 if _blas.managed() else "unmanaged")
    monkeypatch.setattr(cli, "blas_managed", lambda: False)
    assert main(["boundary", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    env = json.loads((tmp_path / "b" / "boundary.meta.json").read_text())["env"]
    assert env["blas_threads"]["in_effect"] == "unmanaged"


def test_every_sidecar_records_the_stream_version(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", simulate_cfg(tmp_path), "--out", str(out)]) == 0
    sidecars = sorted(out.glob("*.meta.json"))
    assert [p.name for p in sidecars] == ["genotypes.meta.json", "phenotype.meta.json"]
    for path in sidecars:
        meta = json.loads(path.read_text())
        assert meta["rng"] == "philox4x64" and meta["rng_streams"] == 3


def test_run_leaves_the_config_it_is_given_unchanged(tmp_path):
    cfg = load_config(simulate_cfg(tmp_path))
    raw = dict(cfg.raw)
    run("simulate", cfg, out_dir=tmp_path / "out", seed=11, workers=2)
    assert cfg.raw == raw
    # the overrides reach the sidecar's config, not the caller's
    config = json.loads((tmp_path / "out" / "genotypes.meta.json").read_text())["config"]
    assert config["execution.seed"] == "11" and config["execution.workers"] == "2"


@pytest.mark.parametrize("command,targets,artifacts", [
    ("score", "", ["marginals", "set_statistics", "ingest"]),
    ("rank", "rank.target_genes = G1\n", ["rank", "ingest", "rank_average"]),
])
def test_the_sidecars_of_one_run_differ_only_in_artifact(tmp_path, command, targets, artifacts):
    cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(3).normal(size=40)])
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write(targets)
    paths = run(command, load_config(cfg), out_dir=tmp_path / "out", seed=4)
    assert [p.name for p in paths] == [f"{a}.csv" for a in artifacts]
    metas = [json.loads(p.with_suffix(".meta.json").read_text()) for p in paths]
    assert [m.pop("artifact") for m in metas] == [p.name for p in paths]
    assert all(m == metas[0] for m in metas)
    assert metas[0]["command"] == command and metas[0]["seed"] == 4


def test_latent_matrix_not_pd_exits_4_with_one_json_line(tmp_path, capsys):
    # every pairwise toeplitz(0.3) target is attainable at q = 0.1, but
    # their latent correlation matrix is not positive definite
    cfg = write(tmp_path / "rare.cfg", "scenario.L = 20\nscenario.n = 50\nscenario.q = 0.1\n"
                "scenario.k = 2\nscenario.beta = 0.5\nscenario.ld = toeplitz:0.3\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    payloads = []
    for line in capsys.readouterr().err.splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            pass
    assert len(payloads) == 1
    assert payloads[0]["error"] == "LatentNotPDError" and payloads[0]["exit_code"] == 4
    assert "toeplitz(0.3) at L=20, q in [0.1, 0.1]" in payloads[0]["message"]
    assert "leading minor 6" in payloads[0]["message"]


def test_workers_resolution_order(tmp_path):
    def resolved(extra, *flag):
        out = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
        assert main(["simulate", "--config", simulate_cfg(tmp_path, extra),
                     "--out", str(out), *flag]) == 0
        return json.loads((out / "genotypes.meta.json").read_text())["workers"]

    # the flag, then execution.workers, then 1
    assert resolved("") == 1
    assert resolved("execution.workers = 3") == 3
    assert resolved("execution.workers = 3", "--workers", "2") == 2


@pytest.mark.parametrize("flag", ["--workers=0", "--workers=-3"])
def test_a_worker_flag_below_one_exits_2_without_an_artifact(tmp_path, capsys, flag):
    cfg = write(tmp_path / "p.cfg", _POWER_BASE)
    assert main(["power", "--config", cfg, "--out", str(tmp_path / "out"), flag]) == 2
    payload = _one_payload(capsys)
    assert payload["error"] == "ConfigError" and "workers" in payload["message"]
    assert flag.split("=")[1] in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["power", "rank"])
def test_a_configured_worker_count_below_one_exits_2_without_an_artifact(tmp_path, capsys,
                                                                          command):
    if command == "rank":
        base = Path(_panel_files(tmp_path, [f"{v:.6f}" for v in
                                            np.random.default_rng(5).normal(size=40)])).read_text()
    else:
        base = _POWER_BASE
    cfg = write(tmp_path / "w.cfg", base + "execution.workers = 0\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    payload = _one_payload(capsys)
    assert payload["error"] == "ConfigError" and "got 0" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_every_key_default_is_declared_once_and_parses():
    # a text default parses with its own key's parser; a REQUIRED key is
    # reported missing; any other key reads None when absent
    for key, (parse, default) in cli._KEYS.items():
        cfg = Config(raw={})
        if default is cli.REQUIRED:
            with pytest.raises(ConfigError, match=f"missing required key {key}"):
                cfg.get(key)
        elif default is None:
            assert cfg.get(key) is None and key not in cfg.defaults
        else:
            assert isinstance(default, str)
            # by repr: an LdSpec compares by identity
            assert repr(cfg.get(key)) == repr(parse(default))
            assert cfg.defaults == {key: default}


def test_run_requires_known_command(tmp_path):
    cfg = Config(raw={})
    with pytest.raises(ConfigError, match="unknown command"):
        run("zap", cfg, out_dir=tmp_path)


def _panel_files(tmp_path, phenotype_cells, geno=None):
    if geno is None:
        geno = np.random.default_rng(83).binomial(2, 0.4, size=(len(phenotype_cells), 6))
    ids = [f"snp_{j + 1}" for j in range(6)]
    write(tmp_path / "g.csv", ",".join(ids) + "\n"
          + "".join(",".join(str(v) for v in row) + "\n" for row in geno))
    write(tmp_path / "p.csv", "phenotype\n" + "".join(f"{c}\n" for c in phenotype_cells))
    write(tmp_path / "m.csv", "gene,snp\n" + "".join(f"G{j // 3},{s}\n" for j, s in enumerate(ids)))
    return write(tmp_path / "a.cfg", f"""
io.genotypes = {tmp_path / 'g.csv'}
io.phenotype = {tmp_path / 'p.csv'}
io.gene_map = {tmp_path / 'm.csv'}
analysis.methods = HC,MinP,LCT
execution.n_perms = 100
""")


@pytest.mark.parametrize("command", ["rank", "score"])
@pytest.mark.parametrize("cells,error", [
    (["1.5"] * 40, "ConstantColumnError"),
    (["0.3"] * 20 + ["nan"] + ["-0.7"] * 19, "NonFiniteInputError"),
    (["0.3", "-0.7"], "BadSampleSizeError"),  # every t score would read 0
])
def test_uninformative_phenotype_exits_4(tmp_path, capsys, command, cells, error):
    cfg = _panel_files(tmp_path, cells)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    payloads = []
    for line in capsys.readouterr().err.splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            pass
    assert len(payloads) == 1
    assert payloads[0]["error"] == error and payloads[0]["exit_code"] == 4
    assert not (tmp_path / "out").exists()


def test_phenotype_collinear_with_a_snp_exits_4(tmp_path, capsys):
    # the phenotype is SNP 5, a 0/2 column of 64 samples, so |rho| is exactly
    # 1 and no t score exists
    geno = np.random.default_rng(89).binomial(2, 0.4, size=(64, 6))
    geno[:, 4] = np.tile([0, 2], 32)
    cfg = _panel_files(tmp_path, [f"{v}.0" for v in geno[:, 4]], geno)
    assert main(["rank", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    payload = _one_payload(capsys)
    assert payload["error"] == "DegenerateCorrelationError" and payload["exit_code"] == 4
    assert "index 4" in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not _blas.managed(), reason="this BLAS's thread count cannot be set")
@pytest.mark.parametrize("command", ["score", "simulate"])
def test_score_and_simulate_run_with_one_blas_thread(tmp_path, two_blas_threads,
                                                     blas_threads_seen, command):
    before = _blas.thread_counts()
    if command == "score":
        cfg = _panel_files(tmp_path, [f"{v:.6f}" for v in np.random.default_rng(3).normal(size=40)])
        logs = [blas_threads_seen(cli, "marginal_stats"),
                blas_threads_seen(bench, "_correlations")]
    else:
        cfg = write(tmp_path / "s.cfg", "scenario.L = 6\nscenario.n = 40\nscenario.q = 0.4\n"
                    "scenario.k = 1\nscenario.beta = 0\nscenario.ld = toeplitz:0.2\n")
        logs = [blas_threads_seen(bench, "simulate_genotypes")]
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert all(seen and all(counts and set(counts) == {1} for counts in seen) for seen in logs)
    assert _blas.thread_counts() == before


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("Matrix is not positive definite"),
                                 MemoryError("Unable to allocate 74.5 GiB")])
def test_lapack_and_memory_errors_exit_4(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "empirical_power", fail)
    cfg = write(tmp_path / "p.cfg",
                "scenario.L = 10\nscenario.n = 50\nscenario.q = 0.4\n"
                "scenario.k = 2\nscenario.beta = 0.5\nexecution.n_sims = 100\n")
    assert main(["power", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    payloads = []
    for line in capsys.readouterr().err.splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            pass
    assert len(payloads) == 1
    assert payloads[0] == {"error": type(exc).__name__, "message": str(exc), "exit_code": 4}
    assert not (tmp_path / "out").exists()


# --- degenerate panels through the command line ----------------------------------


@st.composite
def degenerate_runs(draw):
    """A small panel whose columns may be constant, duplicated or all NA, a
    response that may hold one group only, and the command run on it."""
    n = draw(st.sampled_from([2, 3, 4, 12]))
    columns = draw(st.lists(st.sampled_from(["random", "constant", "duplicate", "all_na"]),
                            min_size=1, max_size=5))
    binary = draw(st.booleans())
    one_group = binary and draw(st.booleans())
    command = draw(st.sampled_from(["rank", "score"]))
    return n, columns, binary, one_group, command, draw(st.integers(0, 2**32 - 1))


def _write_degenerate_panel(d, n, columns, binary, one_group, seed):
    rng = np.random.default_rng(seed)
    cells = []
    for kind in columns:
        if kind == "constant":
            cells.append([str(rng.integers(0, 3))] * n)
        elif kind == "all_na":
            cells.append(["NA"] * n)
        elif kind == "duplicate" and cells:
            cells.append(cells[rng.integers(len(cells))])
        else:
            cells.append([str(v) for v in rng.integers(0, 3, n)])
    ids = [f"snp_{j}" for j in range(len(cells))]
    write(d / "g.csv", ",".join(ids) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells)))
    if one_group:
        y = [str(rng.integers(0, 2))] * n
    elif binary:
        y = [str(v) for v in rng.integers(0, 2, n)]
    else:
        y = [repr(float(v)) for v in rng.standard_normal(n)]
    write(d / "p.csv", "phenotype\n" + "".join(f"{v}\n" for v in y))
    write(d / "m.csv", "gene,snp\n" + "".join(f"G{j % 2},{s}\n" for j, s in enumerate(ids)))
    return write(d / "a.cfg", f"""
io.genotypes = {d / 'g.csv'}
io.phenotype = {d / 'p.csv'}
io.gene_map = {d / 'm.csv'}
scenario.trait = {'logistic' if binary else 'additive'}
execution.n_perms = 100
""")


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(degenerate_runs())
def test_degenerate_panels_exit_cleanly(run_args):
    # each run ends in finite p-values in (0, 1], or in one JSON error line
    # with a documented exit code: never a traceback, a NaN or a warning
    n, columns, binary, one_group, command, seed = run_args
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        cfg = _write_degenerate_panel(d, n, columns, binary, one_group, seed)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", cfg, "--out", str(d / "out")])
        payloads = []
        for line in stderr.getvalue().splitlines():
            try:
                payloads.append(json.loads(line))
            except ValueError:
                pass
        if code != 0:
            assert code in (2, 3, 4) and len(payloads) == 1
            assert payloads[0]["exit_code"] == code
            return
        assert not payloads
        table = read_csv(d / "out" / ("rank.csv" if command == "rank" else "marginals.csv"))
        p = np.array([float(v) for row in table for k, v in row.items() if k.startswith("pvalue")])
        assert p.size and np.all(np.isfinite(p)) and np.all((p > 0.0) & (p <= 1.0))
        if command == "score":
            stats = read_csv(d / "out" / "set_statistics.csv")
            assert all(np.isfinite(float(v)) for row in stats for k, v in row.items()
                       if k.startswith("stat_"))
