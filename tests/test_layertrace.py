"""The names that the benchmark's layer tracer wraps or reads still exist.

``perfbench/layertrace.py`` replaces package names with timing wrappers and
reads ``simgen._LATENT_CACHE``; a name that is gone makes its metrics absent
rather than failing the benchmark.  This test runs one small ``power`` and
one small ``rank`` under the tracer, so a rename shows up here instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import rareweak
import rareweak.cli
from rareweak import simgen

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


@pytest.fixture
def layertrace(monkeypatch):
    # read only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rank_files(tmp_path):
    rng = np.random.default_rng(5)
    n, L = 60, 8
    cells = rng.binomial(2, 0.4, size=(n, L)).astype(str)
    cells[rng.random((n, L)) < 0.02] = "NA"
    ids = [f"snp_{j + 1}" for j in range(L)]
    (tmp_path / "g.csv").write_text(",".join(ids) + "\n"
                                    + "".join(",".join(row) + "\n" for row in cells))
    (tmp_path / "p.csv").write_text("phenotype\n" + "".join(
        f"{float(v)!r}\n" for v in rng.standard_normal(n)))
    (tmp_path / "m.csv").write_text("gene,snp\n" + "".join(
        f"G{j // 4},{s}\n" for j, s in enumerate(ids)))
    (tmp_path / "rank.cfg").write_text("".join(
        f"io.{key} = {tmp_path / name}\n"
        for key, name in (("genotypes", "g.csv"), ("phenotype", "p.csv"), ("gene_map", "m.csv")))
        + "execution.n_perms = 100\n")
    return tmp_path / "rank.cfg"


def test_every_traced_name_is_present(layertrace, tmp_path, monkeypatch):
    # an empty factor cache, so the latent solve runs under the tracer and a
    # full cache cannot hide the new factor; not raising, so that a cache
    # under another name fails the count below rather than this line
    monkeypatch.setattr(simgen, "_LATENT_CACHE", {}, raising=False)
    (tmp_path / "power.cfg").write_text(
        "scenario.L = 10\nscenario.n = 60\nscenario.q = 0.4\nscenario.k = 2\n"
        "scenario.beta = 0.3\nscenario.ld = poly:0.45+1.2\n"
        "execution.n_sims = 100\nexecution.perms_per_sim = 4\n")
    rank_cfg = _rank_files(tmp_path)
    tracer = layertrace.Tracer(pool_workers=2)
    tracer.install(rareweak)
    try:
        for command, cfg in (("power", tmp_path / "power.cfg"), ("rank", rank_cfg)):
            argv = [command, "--config", str(cfg), "--seed", "3", "--workers", "1",
                    "--out", str(tmp_path / command)]
            assert tracer.call("cli.main", rareweak.cli.main, argv)[0] == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    layer = tracer.layer_metrics()
    assert set(layertrace.LAYER_METRICS) <= set(layer)
    assert layer["simgen.latent_solves"] == 1
    assert any(span[0] == "simgen.latent_solve" for span in tracer.spans)
