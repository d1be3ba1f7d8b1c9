"""The random streams behind the CLI's artifacts, pinned.

The digests below are sha256 sums of artifacts written by small ``power``,
``fdr`` and ``simulate`` runs.  They were taken before the Monte Carlo
replicate draw was gathered into ``bench._draw_replicate``, so a refactor
that moves any draw (panel, signal, trait noise, case/control sampling or
permutation) fails here.  A declared change to the stream layout updates
them together with ``_rng.RNG_STREAMS``.

The module also checks where stream knowledge sits: the purpose tags that
lay out simulated panels and traits are named only by ``_rng`` and
``simgen``, and ``bench`` names only the tags that split a run into
replicates, genes and permutations.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from rareweak import bench, cli
from rareweak.cli import main
from rareweak.core_stats import _unit_response

SEED = 7

_PANEL = "scenario.L = 12\nscenario.q = 0.3\nscenario.k = 3\n"

POWER_CFG = _PANEL + """\
scenario.n = 80
scenario.beta = 0,0.4
scenario.ld = identity,poly:0.5+1.0
execution.n_sims = 100
execution.perms_per_sim = 4
"""

POWER_LOGISTIC_CFG = _PANEL + """\
scenario.trait = logistic
scenario.n_case = 30
scenario.n_control = 40
scenario.beta = 0,0.6
execution.n_sims = 100
execution.perms_per_sim = 4
"""

FDR_CFG = _PANEL + """\
scenario.n = 80
scenario.beta = 0.5
scenario.ld = identity,poly:0.5+1.0
analysis.methods = HC,QT
fdr.levels = 0.1,0.2
fdr.n_genes = 8
fdr.n_signal_genes = 3
execution.n_sims = 3
"""

_TRAITS = {
    "additive": "scenario.n = 50\n",
    "logistic": "scenario.trait = logistic\nscenario.n_case = 20\nscenario.n_control = 30\n",
}
_LDS = {"identity": "identity", "poly": "poly:0.5+1.0"}


def _simulate_cfg(trait, ld, beta):
    return _PANEL + _TRAITS[trait] + f"scenario.ld = {_LDS[ld]}\nscenario.beta = {beta}\n"


PINNED = {
    "power": {
        "power.csv": "5f1cd65e8a18d38c8db5a2e833d8fe2fafde47f992e822668c434b735d766c93",
    },
    "power_logistic": {
        "power.csv": "1847cd67231c04b2a9e4c4e2bd94175462496f4090c499f816272e4b9adc38f0",
    },
    "fdr": {
        "fdr.csv": "e29f546a8e797fc3743c18cc1c659778b6898b1eaeed239be0fe5c369c73c019",
    },
    "additive-identity-0": {
        "genotypes.csv": "ce0bdbe7308e10b5ca0d4b853cf7f78fc2b028458ad7d1e99bcbee98a5391ae8",
        "phenotype.csv": "7c0a65dfc1596a1caf481c155b132898d9334021e14bf7b6924fb811990da9a0",
    },
    "additive-identity-0.6": {
        "genotypes.csv": "ce0bdbe7308e10b5ca0d4b853cf7f78fc2b028458ad7d1e99bcbee98a5391ae8",
        "phenotype.csv": "fa710219cefed2670f77ba3f22593a4b46cc6d7ea7ec9d4f805913c8bd152f69",
    },
    "additive-poly-0": {
        "genotypes.csv": "d5924c7d099859a4fdfe5daf231858aba22ee29383e09388e3aac47b2ee05e07",
        "phenotype.csv": "7c0a65dfc1596a1caf481c155b132898d9334021e14bf7b6924fb811990da9a0",
    },
    "additive-poly-0.6": {
        "genotypes.csv": "d5924c7d099859a4fdfe5daf231858aba22ee29383e09388e3aac47b2ee05e07",
        "phenotype.csv": "14b7871615007f3af6c6c97b86a1b9d3644cb3c38179cb4e1986cfb9a0aabd7b",
    },
    "logistic-identity-0": {
        "genotypes.csv": "f2d621c0340a75dfb902f969dd671382351e146d380b4bde0a1a8dfd4f6b9419",
        "phenotype.csv": "e4c4c3f171a71a22ac6ba380ee82fbb5eb9ad6a7b0c5a2110d063f933e8f3d94",
    },
    "logistic-identity-0.6": {
        "genotypes.csv": "10ad13bbddcb583de49fd932efb30faded34c3356e7dd435ea354a10be32bfd4",
        "phenotype.csv": "e4c4c3f171a71a22ac6ba380ee82fbb5eb9ad6a7b0c5a2110d063f933e8f3d94",
    },
    "logistic-poly-0": {
        "genotypes.csv": "f6aa498ac4800f259cbb59f86589ef7813298206da0416deb28d619c44c5163a",
        "phenotype.csv": "e4c4c3f171a71a22ac6ba380ee82fbb5eb9ad6a7b0c5a2110d063f933e8f3d94",
    },
    "logistic-poly-0.6": {
        "genotypes.csv": "363727e8b7157c98babb089fbcfb9d950eab65701fdb03b4ca369d8a13b42924",
        "phenotype.csv": "e4c4c3f171a71a22ac6ba380ee82fbb5eb9ad6a7b0c5a2110d063f933e8f3d94",
    },
}

RUNS = {
    "power": ("power", POWER_CFG),
    "power_logistic": ("power", POWER_LOGISTIC_CFG),
    "fdr": ("fdr", FDR_CFG),
    **{f"{trait}-{ld}-{beta}": ("simulate", _simulate_cfg(trait, ld, beta))
       for trait in _TRAITS for ld in _LDS for beta in ("0", "0.6")},
}


def _run(tmp_path, name):
    command, text = RUNS[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / name
    assert main([command, "--config", str(cfg), "--seed", str(SEED), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", list(RUNS))
def test_artifacts_match_their_pinned_digests(tmp_path, name):
    out = _run(tmp_path, name)
    for artifact, digest in PINNED[name].items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact


@pytest.mark.parametrize("name", ["additive-poly-0.6", "additive-identity-0",
                                  "logistic-identity-0.6", "logistic-poly-0"])
def test_simulate_writes_what_a_power_replicate_scores(tmp_path, monkeypatch, name):
    out = _run(tmp_path, name)
    X = np.loadtxt(out / "genotypes.csv", delimiter=",", skiprows=1, ndmin=2)
    y = np.loadtxt(out / "phenotype.csv", delimiter=",", skiprows=1)
    scenario, = cli._scenarios_from_cfg(cli.load_config(str(tmp_path / f"{name}.cfg")))
    panels, responses = [], []
    prepare, draw = bench._prepared_block, bench._permutation_slabs

    def panel_recorder(Xr, *args, **kwargs):
        panels.append(Xr)
        return prepare(Xr, *args, **kwargs)

    def response_recorder(u, *args):
        responses.append(u)
        return draw(u, *args)

    monkeypatch.setattr(bench, "_prepared_block", panel_recorder)
    monkeypatch.setattr(bench, "_permutation_slabs", response_recorder)
    bench._replicate_stats(scenario, frozenset({"HC"}), SEED, 1)
    (Xr,), (u,) = panels, responses
    assert Xr.tobytes() == X.tobytes()
    assert u.tobytes() == _unit_response(y).tobytes()


SRC = Path(bench.__file__).resolve().parent
_LAYOUT_TAGS = {"TAG_GENOTYPE", "TAG_SIGNAL", "TAG_TRAIT", "TAG_CASE_CONTROL"}
_SPLIT_TAGS = {"TAG_PERMUTE", "TAG_REPLICATE", "TAG_GENE"}
# module -> the purpose tags it may name; a module not listed may name none
_MAY_NAME = {"_rng": _LAYOUT_TAGS | _SPLIT_TAGS, "simgen": _LAYOUT_TAGS, "bench": _SPLIT_TAGS}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_only_the_stream_owners_name_the_purpose_tags(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = {n for n in _names(tree) if n in _LAYOUT_TAGS | _SPLIT_TAGS}
    assert named <= _MAY_NAME.get(path.stem, set())
