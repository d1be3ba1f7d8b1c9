"""The package's public surface and the typed refusals of its value types."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import rareweak
from rareweak import (CoefficientScheme, DimensionMismatchError, LdSpec, RareweakError, Scenario,
                      TraitModel)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(rareweak.__file__).resolve().parent

# public names that neither the package nor the release gate calls yet, each
# with the reason it stays
KEPT = {
    "hc_discretized": "ROADMAP item 1(b) gives it a phase.csv column",
    "hc_grid_start": "ROADMAP item 1(b): the discretised scan's lowest cutoff",
    "check_row_sparsity": "ROADMAP item 1(c) refuses exact calibration where it fails",
    "min_pvalue": "one-call form of MinP, which every artifact writes",
    "empirical_correlation": "one-call form of the panel correlation that QT and DT whiten by",
    "linear_combination_test": "one-call form of LCT, which every artifact writes",
    "permutation_cutoff": "one-call form of the permutation-calibrated cutoff power.csv writes",
}


def _error_class(obj) -> bool:
    return inspect.isclass(obj) and issubclass(obj, RareweakError)


def _referenced_names(paths) -> set[str]:
    """Every name and attribute that the code of these files reads; comments
    and strings do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_public_names_resolve_once_and_removed_spellings_stay_gone():
    names = rareweak.__all__
    assert [n for n in names if not hasattr(rareweak, n)] == []
    assert len(set(names)) == len(names)
    for module, gone in (("boundary", "ArwScenario"), ("detectors", "EmpiricalCorrelation"),
                         ("boundary", "r_from_beta"), ("boundary", "classify_regime"),
                         ("boundary", "PhasePoint"), ("boundary", "Regime"),
                         ("detectors", "bh_select"), ("core_stats", "normal_sf")):
        assert gone not in names and not hasattr(rareweak, gone)
        assert not hasattr(getattr(rareweak, module), gone)


def test_every_public_function_and_class_has_a_caller_or_a_reason():
    used = _referenced_names([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"])
    used |= _referenced_names([ROOT / "tests" / "test_acceptance.py"])
    objects = {n: getattr(rareweak, n) for n in rareweak.__all__}
    public = [n for n, obj in objects.items()
              if (inspect.isfunction(obj) or inspect.isclass(obj)) and not _error_class(obj)]
    assert [n for n in public if n not in used and n not in KEPT] == []
    # an entry leaves the map once its name is no longer public or gains a caller
    assert [n for n in KEPT if n not in public or n in used] == []


def _readme_api() -> dict[str, str]:
    """README's public API list: each listed name and the module it is listed under."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        module, *names = re.findall(r"`([^`]+)`", bullet)
        for name in names:
            assert name not in listed, name
            listed[name] = module
    return listed


def test_readme_lists_the_public_api_by_module():
    listed = _readme_api()
    errors = {n for n in rareweak.__all__ if _error_class(getattr(rareweak, n))}
    # the error classes are summarised by their base
    assert set(listed) == (set(rareweak.__all__) - errors) | {"RareweakError"}
    assert errors == {n for n, obj in vars(rareweak.errors).items() if _error_class(obj)}
    for name, module in listed.items():
        home = rareweak if module == "rareweak" else importlib.import_module(f"rareweak.{module}")
        assert getattr(home, name) is getattr(rareweak, name), (name, module)


def test_scenario_refuses_an_array_allele_frequency():
    with pytest.raises(DimensionMismatchError, match="scalar"):
        Scenario(L=3, q=np.array([0.2, 0.3, 0.4]), ld=LdSpec.identity(),
                 trait=TraitModel.additive(1.0), n_signals=1, base_beta=0.1,
                 scheme=CoefficientScheme.fixed(), n=100)
