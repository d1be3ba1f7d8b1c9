"""The package's public surface and the typed refusals of its value types."""

import numpy as np
import pytest

import rareweak
from rareweak import CoefficientScheme, DimensionMismatchError, LdSpec, Scenario, TraitModel


def test_public_names_resolve_once_and_removed_spellings_stay_gone():
    names = rareweak.__all__
    assert [n for n in names if not hasattr(rareweak, n)] == []
    assert len(set(names)) == len(names)
    for module, gone in (("boundary", "ArwScenario"), ("detectors", "EmpiricalCorrelation")):
        assert gone not in names and not hasattr(rareweak, gone)
        assert not hasattr(getattr(rareweak, module), gone)


def test_scenario_refuses_an_array_allele_frequency():
    with pytest.raises(DimensionMismatchError, match="scalar"):
        Scenario(L=3, q=np.array([0.2, 0.3, 0.4]), ld=LdSpec.identity(),
                 trait=TraitModel.additive(1.0), n_signals=1, base_beta=0.1,
                 scheme=CoefficientScheme.fixed(), n=100)
