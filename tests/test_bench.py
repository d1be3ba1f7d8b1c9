"""Permutation-calibrated power, FDR, and ranking machinery."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rareweak import (
    METHOD_NAMES,
    BadSampleSizeError,
    CoefficientScheme,
    ConfigError,
    ConstantColumnError,
    DegenerateCorrelationError,
    DimensionMismatchError,
    EmptyGeneError,
    EmptyGroupError,
    LdSpec,
    MonomorphicColumnError,
    NonFiniteInputError,
    Phenotype,
    Scenario,
    TooFewPermutationsError,
    TraitModel,
    case_control_zscores,
    decorrelation_test,
    empirical_correlation,
    empirical_power,
    fdr_curve,
    fdr_table_csv,
    higher_criticism,
    linear_combination_test,
    marginal_correlations,
    marginal_stats,
    methods_for,
    permutation_cutoff,
    power_table_csv,
    pvalues_two_sided,
    quadratic_test,
    rank_gene_sets,
    ranking_csv,
    simulate_genotypes,
)
from rareweak import _blas, bench
from rareweak.bench import _pooled_cutoff, _stats_for_columns, csv_text, gene_set_statistics
from rareweak.core_stats import _unit_response, validated_inputs


def quick_scenario(r=0.9, L=30, n=200, scheme=None, ld=None):
    return Scenario.from_strength(L=L, n=n, q=0.4, sigma=1.0, alpha=0.76, r=r,
                                  ld=ld or LdSpec.identity(),
                                  scheme=scheme or CoefficientScheme.fixed())


# --- cutoff conventions -------------------------------------------------------


def test_pooled_cutoff_is_ceiling_order_statistic():
    nulls = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    # ceil(0.95 * 5) = 5th order statistic
    assert _pooled_cutoff(nulls, 0.05) == 5.0
    # ceil(0.5 * 5) = 3rd
    assert _pooled_cutoff(nulls, 0.5) == 3.0
    assert _pooled_cutoff(np.array([7.0]), 0.05) == 7.0


def test_pooled_cutoff_does_not_mutate_input():
    nulls = np.array([5.0, 1.0, 3.0])
    _pooled_cutoff(nulls, 0.5)
    np.testing.assert_array_equal(nulls, [5.0, 1.0, 3.0])


def test_permutation_cutoff_degenerate_null():
    # single column with |centered value| equal across samples: every
    # permutation of y yields the same two-sided score, so the null is a
    # point mass and the cutoff equals the observed statistic
    X = np.array([[0.0], [0.0], [2.0], [2.0]])
    y = np.array([1.0, 1.0, 1.0, 5.0])
    from rareweak.bench import _stats_for_columns

    observed = _stats_for_columns(X, _unit_response(y)[:, None], "quantitative",
                                  ("HC",))["HC"][0]
    cut = permutation_cutoff("HC", X, y, n_perms=40, level=0.5, seed=1)
    assert cut == pytest.approx(observed, rel=1e-12)


def test_permutation_cutoff_determinism_and_guard():
    rng = np.random.default_rng(5)
    X = rng.binomial(2, 0.4, size=(60, 10)).astype(float)
    y = rng.standard_normal(60)
    a = permutation_cutoff("QT", X, y, n_perms=400, level=0.05, seed=9)
    b = permutation_cutoff("QT", X, y, n_perms=400, level=0.05, seed=9)
    assert a == b
    with pytest.raises(TooFewPermutationsError):
        permutation_cutoff("QT", X, y, n_perms=399, level=0.05, seed=9)


def test_permutation_cutoff_calibrates_fresh_permutations():
    # cutoff from 1e4 permutations should reject fresh permuted responses
    # at the nominal rate
    rng = np.random.default_rng(17)
    X = rng.binomial(2, 0.4, size=(250, 25)).astype(float)
    y = rng.standard_normal(250)
    cut = permutation_cutoff("HC", X, y, n_perms=10_000, level=0.05, seed=3)

    from rareweak.bench import _stats_for_columns

    fresh = np.empty((250, 2000))
    frng = np.random.default_rng(999)
    for i in range(2000):
        fresh[:, i] = _unit_response(y[frng.permutation(250)])
    stats = _stats_for_columns(X, fresh, "quantitative", ("HC",))["HC"]
    rate = float(np.mean(stats > cut))
    assert 0.04 <= rate <= 0.06


# --- the batched kernel against the m = 1 public functions -------------------


@pytest.mark.parametrize("trait_kind", ["quantitative", "binary"])
def test_kernel_columns_match_public_scalar_functions(trait_kind):
    rng = np.random.default_rng(71)
    n, L, m = 150, 12, 6
    X = rng.binomial(2, 0.4, size=(n, L)).astype(float)
    if trait_kind == "quantitative":
        Y = rng.standard_normal((n, m))
    else:
        labels = np.repeat([1.0, 0.0], [60, n - 60])
        Y = np.column_stack([rng.permutation(labels) for _ in range(m)])
    needs = methods_for(trait_kind)
    kernel = _stats_for_columns(X, np.column_stack([_unit_response(c) for c in Y.T]),
                                trait_kind, needs)
    sigma = empirical_correlation(X)

    def hc(scores):
        return higher_criticism(pvalues_two_sided(scores)).value

    for j in range(m):
        if trait_kind == "quantitative":
            scores = marginal_stats(X, Y[:, j], "t").values
            want = {"HCm": hc(marginal_stats(X, Y[:, j], "r").values)}
        else:
            scores = case_control_zscores(X, Y[:, j])
            want = {}
        want.update(HC=hc(scores), MinP=np.abs(scores).max(),
                    LCT=abs(linear_combination_test(scores, sigma)),
                    QT=quadratic_test(scores, sigma), DT=decorrelation_test(scores, sigma))
        assert set(want) == set(kernel)
        for name, value in want.items():
            assert kernel[name][j] == pytest.approx(value, rel=1e-12), (name, j)


# --- entry validation ---------------------------------------------------------


@pytest.fixture
def no_permutations(monkeypatch):
    """Fails the test if a permutation is ever drawn: patches the one drawing site."""
    def refuse(*args):
        raise AssertionError("permutations drawn before the inputs were validated")
    monkeypatch.setattr(bench, "_permutation_slabs", refuse)


def _bad_responses(n):
    nan = np.random.default_rng(73).standard_normal(n)
    nan[5] = np.nan
    return [(np.full(n, 2.5), ConstantColumnError), (nan, NonFiniteInputError)]


def test_rank_rejects_constant_or_nonfinite_response(no_permutations):
    X, y = rank_panel()
    for bad, error in _bad_responses(y.size):
        for methods in (["HC"], ["MinP"], ["LCT"]):
            with pytest.raises(error) as err:
                rank_gene_sets([("a", [0, 1]), ("b", [2, 3])], X, bad, methods,
                               n_perms=100, seed=1)
            if error is ConstantColumnError:
                assert err.value.index == -1
    # valid inputs reach the drawing site, so the fixture would catch a draw
    # made before validation
    with pytest.raises(AssertionError, match="permutations drawn"):
        rank_gene_sets([("a", [0, 1]), ("b", [2, 3])], X, y, ["HC"], n_perms=100, seed=1)
    with pytest.raises(AssertionError, match="permutations drawn"):
        permutation_cutoff("HC", X, y, n_perms=400, level=0.05, seed=1)


def test_permutation_cutoff_rejects_constant_or_nonfinite_response(no_permutations):
    X, y = rank_panel()
    for bad, error in _bad_responses(y.size):
        with pytest.raises(error):
            permutation_cutoff("HC", X, bad, n_perms=400, level=0.05, seed=1)
    with pytest.raises(ConstantColumnError):
        permutation_cutoff("HC", X, Phenotype(values=np.full(y.size, 2.5)),
                           n_perms=400, level=0.05, seed=1)


def test_raw_panel_is_validated_at_entry(no_permutations):
    X, y = rank_panel()
    X[3, 4] = 7.0
    with pytest.raises(NonFiniteInputError):
        rank_gene_sets([("a", [3, 4])], X, y, ["HC"], n_perms=100, seed=1)
    with pytest.raises(NonFiniteInputError):
        permutation_cutoff("HC", X, y, n_perms=400, level=0.05, seed=1)


def test_one_group_labels_raise_empty_group_error(no_permutations):
    X, _ = rank_panel()
    for labels in (np.ones(X.shape[0]), np.zeros(X.shape[0])):
        with pytest.raises(EmptyGroupError):
            permutation_cutoff("HC", X, Phenotype(values=labels, kind="binary"),
                               n_perms=400, level=0.05, seed=1)


def test_kernel_one_group_labels_fail_the_constant_response_check():
    # the kernel reads unit responses, and one-group labels have none
    X, _ = rank_panel()
    for labels in (np.ones(X.shape[0]), np.zeros(X.shape[0])):
        with pytest.raises(ConstantColumnError) as err:
            _unit_response(labels)
        assert err.value.index == -1


def test_gene_columns_are_checked_before_any_draw_naming_the_panel_column(no_permutations):
    X, y = rank_panel()
    genes = [("a", [0, 1, 2]), ("b", [7, 3, 5])]
    constant = X.copy()
    constant[:, 5] = 1.0
    with pytest.raises(ConstantColumnError) as err:
        rank_gene_sets(genes, constant, y, ["HC"], n_perms=100, seed=1)
    assert err.value.index == 5
    labels = Phenotype(values=np.arange(X.shape[0]) % 2.0, kind="binary")
    monomorphic = X.copy()
    monomorphic[:, 7] = 0.0
    with pytest.raises(MonomorphicColumnError) as err:
        rank_gene_sets(genes, monomorphic, labels, ["HC"], n_perms=100, seed=1)
    assert err.value.index == 7
    # a chunk checks its whole block at once, a binary panel's frequencies
    # before its spreads: a monomorphic column in a later gene comes first
    monomorphic[:, 1] = 1.0
    with pytest.raises(MonomorphicColumnError) as err:
        rank_gene_sets(genes, monomorphic, labels, ["HC"], n_perms=100, seed=1)
    assert err.value.index == 7



@pytest.mark.parametrize("genes, message", [
    ([("a", [0, 1]), ("b", [2, 3]), ("a", [4, 5])], "gene 'a' is given twice"),
    ([("b", [2, 3]), ("a", [0, 1, 0])], "gene 'a' lists a column index twice"),
], ids=["gene_twice", "column_twice"])
def test_a_repeated_gene_or_column_is_refused_before_any_draw(no_permutations, genes, message):
    # a repeated column would weigh its SNP twice, and make QT's Cholesky fail
    X, y = rank_panel()
    with pytest.raises(DimensionMismatchError, match=message):
        gene_set_statistics(genes, X, y, ["HC", "QT"])
    with pytest.raises(DimensionMismatchError, match=message):
        rank_gene_sets(genes, X, y, ["HC"], n_perms=100, seed=1)


def collinear_panel():
    """64 samples whose response is panel column 4, a 0/2 column whose
    standardised form is exactly +-1/8, so that its correlation with the
    response is exactly 1."""
    X, _ = rank_panel(seed=53, n=64, L=8)
    X[:, 4] = np.tile([0.0, 2.0], 32)
    return X, X[:, 4].copy()


@pytest.mark.parametrize("methods", [["HC", "MinP"], ["QT", "DT"]])
def test_a_response_collinear_with_a_column_raises_naming_it(methods):
    # |rho| = 1 has no t score: not an infinite MinP, nor a bare ValueError
    # from the triangular solve
    X, y = collinear_panel()
    genes = [("a", [0, 1]), ("b", [6, 4, 2])]
    with pytest.raises(DegenerateCorrelationError) as err:
        gene_set_statistics(genes, X, y, methods)
    assert err.value.index == 4
    with pytest.raises(DegenerateCorrelationError) as err:
        rank_gene_sets(genes, X, y, methods, n_perms=100, seed=1)
    assert err.value.index == 4
    with pytest.raises(DegenerateCorrelationError):
        marginal_stats(X, y, "t")


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("trait_kind", ["quantitative", "binary"])
def test_overlapping_genes_out_of_order_match_the_per_gene_kernel(trait_kind, workers):
    # columns 2 and 3 sit in two genes each, and the gene map is neither in
    # name nor in column order: the chunk's gathered block holds them twice
    X, y = rank_panel(seed=97, n=150, L=10)
    if trait_kind == "binary":
        y = Phenotype(values=(y > 0).astype(float), kind="binary")
    genes = [("c", [9, 2, 8]), ("a", [0, 1, 2, 3]), ("b", [5, 3, 4])]
    needs = methods_for(trait_kind)
    n_perms, seed = 300, 4
    Xa, yv, kind = validated_inputs(X, y)
    names, slices = bench._gene_columns(genes, Xa.shape[1])
    chunks = bench._run_chunked(bench._gene_chunk, len(names), workers, Xa, yv, n_perms, seed,
                                slices, kind, needs)
    u = _unit_response(yv)
    Y = np.column_stack([u, next(bench._permutation_slabs(u, n_perms, seed, n_perms))])
    scored = gene_set_statistics(genes, X, y, needs)
    assert list(scored) == list(needs)  # ``score`` writes its columns in this order
    for gi, (_, idx) in enumerate(genes):
        per_gene = _stats_for_columns(Xa[:, np.sort(idx)], Y, kind, needs)
        for m in needs:
            observed, exceed = (np.concatenate([c[k][m] for c in chunks])[gi] for k in (0, 1))
            # bit for bit what ``score`` writes, whatever chunk the gene is in
            assert observed == scored[m][gi], (m, gi)
            t0 = per_gene[m][0]
            assert observed == pytest.approx(t0, rel=1e-12, abs=0.0), (m, gi)
            # the same exceedance count, so the same p-value
            reach = np.count_nonzero(per_gene[m][1:] >= t0 - bench._TIE_RTOL * max(1.0, abs(t0)))
            assert exceed == reach, (m, gi)


# --- method bookkeeping -------------------------------------------------------


def test_method_id_validation():
    with pytest.raises(ConfigError, match="unknown method 'HCX'"):
        bench._as_methods(["HCX"], "quantitative")
    assert "HCm" in methods_for("quantitative")
    assert "HCm" not in methods_for("binary")
    assert methods_for("quantitative") == METHOD_NAMES


def test_kernels_return_statistics_in_request_order():
    # neither METHOD_NAMES order nor string-hash order: the order asked for
    needs = ("QT", "HC", "MinP")
    assert bench._as_methods(list(needs), "binary") == needs
    rng = np.random.default_rng(7)
    X = rng.binomial(2, 0.4, size=(80, 6)).astype(float)
    Y = np.column_stack([_unit_response(rng.standard_normal(80)) for _ in range(3)])
    assert tuple(_stats_for_columns(X, Y, "quantitative", needs)) == needs
    assert tuple(bench._replicate_stats(quick_scenario(L=12, n=80), needs, 5, 3)) == needs


def test_binary_scenario_rejects_correlation_variant():
    sc = Scenario(L=10, q=0.4, ld=LdSpec.identity(),
                  trait=TraitModel.logistic(-2.0, 50, 50),
                  n_signals=2, base_beta=0.2, scheme=CoefficientScheme.fixed())
    with pytest.raises(ConfigError):
        empirical_power(["HCm"], sc, n_sims=100, level=0.5, seed=1)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_a_non_finite_coefficient_is_refused(beta):
    # nan passed both sign checks and ran as a null scenario
    with pytest.raises(NonFiniteInputError, match=repr(beta)):
        Scenario(L=10, q=0.4, ld=LdSpec.identity(), trait=TraitModel.additive(1.0),
                 n_signals=2, base_beta=beta, scheme=CoefficientScheme.fixed(), n=50)


def test_duplicate_methods_rejected():
    with pytest.raises(ConfigError):
        empirical_power(["HC", "HC"], quick_scenario(), n_sims=100, level=0.5, seed=1)


# --- power --------------------------------------------------------------------


def test_a_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="non-negative"):
        empirical_power(["HC"], quick_scenario(L=8, n=60), n_sims=100, level=0.05, seed=-1,
                        perms_per_sim=4)


def test_power_requires_minimum_scale():
    with pytest.raises(BadSampleSizeError):
        empirical_power(["HC"], quick_scenario(), n_sims=99, level=0.05, seed=1)
    with pytest.raises(TooFewPermutationsError):
        empirical_power(["HC"], quick_scenario(), n_sims=100, level=0.05,
                        seed=1, perms_per_sim=1)   # pooled 100 < 20/0.05


@pytest.mark.parametrize("workers", [1, 2])
def test_power_of_a_constant_simulated_response_is_refused(workers):
    # sigma = 0 with no signal: every simulated response is constant
    sc = Scenario(L=10, q=0.4, ld=LdSpec.identity(), trait=TraitModel.additive(0.0),
                  n_signals=2, base_beta=0.0, scheme=CoefficientScheme.fixed(), n=50)
    for methods in (["HC", "MinP", "QT"], ["HC", "MinP"]):
        with pytest.raises(ConstantColumnError) as err:
            empirical_power(methods, sc, n_sims=100, level=0.05, seed=1, perms_per_sim=4,
                            workers=workers)
        assert err.value.index == -1 and str(err.value) == "response is constant"


def test_power_null_scenario_matches_level():
    # 99% binomial band around 0.05 with 100 simulations
    results = empirical_power(["HC", "HCm", "MinP", "LCT", "QT", "DT"],
                              quick_scenario().null(), n_sims=100, level=0.05,
                              seed=11, perms_per_sim=20)
    for res in results:
        assert 0.0 <= res.power <= 0.106, f"{res.method}: null power {res.power}"


def test_power_saturates_far_above_boundary():
    sc = Scenario.from_strength(L=100, n=1000, q=0.4, sigma=1.0, alpha=0.76,
                                r=4.0, ld=LdSpec.identity())
    results = empirical_power(["HC", "MinP"], sc, n_sims=100, level=0.05,
                              seed=13, perms_per_sim=4)
    for res in results:
        assert res.power >= 0.99, f"{res.method}: power {res.power}"


def test_power_determinism_and_worker_independence():
    sc = quick_scenario(L=20, n=150)
    base = empirical_power(["HC", "QT"], sc, n_sims=100, level=0.1,
                           seed=21, perms_per_sim=2)
    again = empirical_power(["HC", "QT"], sc, n_sims=100, level=0.1,
                            seed=21, perms_per_sim=2)
    split = empirical_power(["HC", "QT"], sc, n_sims=100, level=0.1,
                            seed=21, perms_per_sim=2, workers=2)
    for a, b, c in zip(base, again, split):
        assert (a.power, a.cutoff) == (b.power, b.cutoff) == (c.power, c.cutoff)
    assert power_table_csv(base) == power_table_csv(split)


def test_power_retains_replicate_statistics_on_request():
    sc = quick_scenario(L=15, n=120)
    res = empirical_power(["HC"], sc, n_sims=100, level=0.1, seed=31,
                          perms_per_sim=2, retain=True)[0]
    assert res.observed.shape == (100,)
    assert res.nulls.shape == (200,)
    assert res.power == pytest.approx(float(np.mean(res.observed > res.cutoff)))


# --- FDR ----------------------------------------------------------------------


def test_fdr_all_genes_signal_gives_zero():
    sc = quick_scenario(L=10, n=120)
    curve = fdr_curve(["HC"], sc, levels=[0.1, 0.3], n_sims=4,
                      n_genes=12, n_signal_genes=12, seed=41, perms_per_sim=5)
    np.testing.assert_array_equal(curve.fdr, 0.0)
    assert np.all(curve.mean_rejections >= 0.0)


def test_fdr_all_genes_null_gives_one_when_rejections_occur():
    sc = quick_scenario(L=10, n=120).null()
    curve = fdr_curve(["HC"], sc, levels=[0.3], n_sims=6,
                      n_genes=30, n_signal_genes=0, seed=43)
    # at level 0.3 with 30 null genes each simulation all but surely rejects
    assert curve.mean_rejections[0, 0] > 0
    assert curve.fdr[0, 0] == pytest.approx(1.0)


def test_fdr_validation():
    sc = quick_scenario(L=10, n=120)
    with pytest.raises(ConfigError):
        fdr_curve(["HC"], sc, levels=[], n_sims=2, n_genes=4, n_signal_genes=1, seed=1)
    with pytest.raises(ConfigError):
        fdr_curve(["HC"], sc, levels=[1.2], n_sims=2, n_genes=4, n_signal_genes=1, seed=1)
    binary = Scenario(L=10, q=0.4, ld=LdSpec.identity(),
                      trait=TraitModel.logistic(-2.0, 30, 30),
                      n_signals=2, base_beta=0.2, scheme=CoefficientScheme.fixed())
    with pytest.raises(ConfigError):
        fdr_curve(["HC"], binary, levels=[0.1], n_sims=2, n_genes=4,
                  n_signal_genes=1, seed=1)


def test_fdr_determinism_across_workers():
    sc = quick_scenario(L=8, n=100)
    a = fdr_curve(["HC", "QT"], sc, levels=[0.1, 0.2], n_sims=6,
                  n_genes=10, n_signal_genes=3, seed=47, perms_per_sim=4, workers=1)
    b = fdr_curve(["HC", "QT"], sc, levels=[0.1, 0.2], n_sims=6,
                  n_genes=10, n_signal_genes=3, seed=47, perms_per_sim=4, workers=3)
    np.testing.assert_array_equal(a.fdr, b.fdr)
    np.testing.assert_array_equal(a.cutoffs, b.cutoffs)
    assert fdr_table_csv([a]) == fdr_table_csv([b])


def test_fdr_at_one_gene_is_a_power_run():
    # one gene that carries the signal: the FDR replicate is the power replicate
    sc = quick_scenario(L=10, n=120)
    power = empirical_power(["HC", "QT"], sc, n_sims=100, level=0.2, seed=53)
    curve = fdr_curve(["HC", "QT"], sc, levels=[0.2], n_sims=100, n_genes=1,
                      n_signal_genes=1, seed=53, perms_per_sim=1)
    for mi, res in enumerate(power):
        assert curve.cutoffs[mi, 0] == res.cutoff
        assert curve.mean_rejections[mi, 0] == res.power


def test_an_fdr_pool_under_the_floor_is_refused_before_any_panel_is_drawn(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a panel was drawn")
    monkeypatch.setattr(bench, "simulate_genotypes", refuse)
    sc = quick_scenario(L=8, n=100)
    # 2 simulations x 4 genes x 12 permutations = 96 draws, under 20 / 0.2,
    # the floor of the smallest level
    for perms in (12, 0):
        with pytest.raises(TooFewPermutationsError, match="need at least 100"):
            fdr_curve(["HC"], sc, levels=[0.5, 0.2], n_sims=2, n_genes=4, n_signal_genes=1,
                      seed=3, perms_per_sim=perms)
    with pytest.raises(AssertionError, match="a panel was drawn"):  # 104 draws pass
        fdr_curve(["HC"], sc, levels=[0.5, 0.2], n_sims=2, n_genes=4, n_signal_genes=1,
                  seed=3, perms_per_sim=13)


@pytest.mark.parametrize("n_genes", [0, -2])
def test_an_fdr_run_with_no_genes_is_refused_before_any_panel_is_drawn(monkeypatch, n_genes):
    def refuse(*args, **kwargs):
        raise AssertionError("a panel was drawn")
    monkeypatch.setattr(bench, "simulate_genotypes", refuse)
    sc = quick_scenario(L=8, n=100)
    # refused as a gene count, not as the empty pool or signal count it leads to
    with pytest.raises(BadSampleSizeError, match=f"need n_genes >= 1, got {n_genes}"):
        fdr_curve(["HC"], sc, levels=[0.2], n_sims=2, n_genes=n_genes, n_signal_genes=0,
                  seed=3, perms_per_sim=13)


# --- gene ranking -------------------------------------------------------------


def rank_panel(seed=51, n=200, L=12):
    rng = np.random.default_rng(seed)
    X = rng.binomial(2, 0.4, size=(n, L)).astype(float)
    y = rng.standard_normal(n)
    return X, y


def test_rank_identical_genes_share_averaged_rank():
    X, y = rank_panel()
    genes = [("a", [0, 1, 2]), ("b", [0, 1, 2]), ("c", [0, 1, 2])]
    ranking = rank_gene_sets(genes, X, y, ["HC"], n_perms=100, seed=3)
    np.testing.assert_allclose(ranking.ranks[0], [2.0, 2.0, 2.0])


def test_rank_sum_and_pvalue_floor():
    X, y = rank_panel(seed=53, L=20)
    genes = [(f"g{i}", list(range(4 * i, 4 * i + 4))) for i in range(5)]
    ranking = rank_gene_sets(genes, X, y, ["HC", "QT", "DT"], n_perms=200, seed=7)
    G = 5
    for mi in range(3):
        assert ranking.ranks[mi].sum() == pytest.approx(G * (G + 1) / 2)
        assert np.all(ranking.pvalues[mi] >= 1.0 / 201.0)


def test_rank_validation():
    X, y = rank_panel()
    with pytest.raises(TooFewPermutationsError):
        rank_gene_sets([("a", [0])], X, y, ["HC"], n_perms=99, seed=1)
    with pytest.raises(EmptyGeneError):
        rank_gene_sets([("a", [])], X, y, ["HC"], n_perms=100, seed=1)


def test_rank_determinism_across_workers():
    X, y = rank_panel(seed=59, L=16)
    genes = [(f"g{i}", list(range(4 * i, 4 * i + 4))) for i in range(4)]
    a = rank_gene_sets(genes, X, y, ["HC", "MinP"], n_perms=150, seed=5, workers=1)
    b = rank_gene_sets(genes, X, y, ["HC", "MinP"], n_perms=150, seed=5, workers=2)
    np.testing.assert_array_equal(a.pvalues, b.pvalues)
    assert ranking_csv(a) == ranking_csv(b)


def test_binary_rank_determinism_across_workers():
    X, _ = rank_panel(seed=71, L=16)
    labels = np.random.default_rng(71).integers(0, 2, X.shape[0]).astype(float)
    y = Phenotype(values=labels, kind="binary")
    genes = [(f"g{i}", list(range(4 * i, 4 * i + 4))) for i in range(4)]
    a = rank_gene_sets(genes, X, y, ["HC", "MinP", "LCT"], n_perms=150, seed=5, workers=1)
    b = rank_gene_sets(genes, X, y, ["HC", "MinP", "LCT"], n_perms=150, seed=5, workers=2)
    np.testing.assert_array_equal(a.pvalues, b.pvalues)
    assert ranking_csv(a) == ranking_csv(b)
    # the labels reach the case/control contrast uncentred
    observed = gene_set_statistics(genes, X, y, ["MinP"])["MinP"]
    for gi, (_, idx) in enumerate(genes):
        want = np.abs(case_control_zscores(X[:, idx], y)).max()
        assert observed[gi] == pytest.approx(want, rel=1e-12)


def test_callers_arrays_are_never_written():
    X, y = rank_panel(seed=67, L=12)
    Xa, yv, _ = validated_inputs(X, y)
    assert np.shares_memory(Xa, X) and np.shares_memory(yv, y)
    X0, y0 = X.tobytes(), y.tobytes()
    genes = [("a", [0, 1, 2]), ("b", [3, 4, 5, 6]), ("c", [7, 8])]
    for workers in (1, 2):
        rank_gene_sets(genes, X, y, ["HC", "HCm", "LCT"], n_perms=100, seed=3, workers=workers)
    gene_set_statistics(genes, X, y, ["HC", "QT"])
    permutation_cutoff("HC", X, y, n_perms=400, level=0.05, seed=1)
    marginal_correlations(X, y)
    assert X.tobytes() == X0 and y.tobytes() == y0


def test_rank_pool_ships_no_response_matrix(monkeypatch):
    X, y = rank_panel(seed=73, L=16)
    shipped = []
    real = bench._run_chunked

    def spy(fn, n_items, workers, *args, **kwargs):
        for a in args:
            shipped.extend(a if isinstance(a, tuple) else [a])
        return real(fn, n_items, workers, *args, **kwargs)

    monkeypatch.setattr(bench, "_run_chunked", spy)
    genes = [(f"g{i}", list(range(4 * i, 4 * i + 4))) for i in range(4)]
    rank_gene_sets(genes, X, y, ["HC"], n_perms=300, seed=5, workers=2)
    arrays = [a for a in shipped if isinstance(a, np.ndarray)]
    assert arrays
    assert max(a.nbytes for a in arrays) <= X.nbytes


def _chunk_bounds(lo, hi):
    return lo, hi


def test_pool_starts_one_worker_per_job(monkeypatch):
    # a stand-in pool that records its size and runs the jobs here, so that
    # no process is started whatever worker count is asked for
    started = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(bench, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(bench, "_POOL_CALL", None)  # the initializer sets it in this process
    X, y = rank_panel(seed=73, L=12)
    genes = [(f"g{i}", list(range(4 * i, 4 * i + 4))) for i in range(3)]
    wide = rank_gene_sets(genes, X, y, ["HC", "QT"], n_perms=100, seed=5, workers=500)
    assert started == [3]
    one = rank_gene_sets(genes, X, y, ["HC", "QT"], n_perms=100, seed=5, workers=1)
    assert ranking_csv(wide) == ranking_csv(one)
    assert bench._run_chunked(_chunk_bounds, 5, 10**15) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert bench._run_chunked(_chunk_bounds, 7, 2) == [(0, 3), (3, 7)]
    assert started == [3, 5, 2]


def test_pool_jobs_carry_their_bounds_alone(monkeypatch):
    # the panel reaches a pool process once, through its initializer; a job
    # is its (lo, hi) and nothing else
    received = []

    class SpyPool(bench.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            jobs = [list(it) for it in iterables]
            received.extend(jobs[0])
            return super().map(fn, *jobs, **kwargs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SpyPool)
    X, y = rank_panel(seed=73, L=16)
    genes = [(f"g{i}", list(range(4 * i, 4 * i + 4))) for i in range(4)]
    pooled = rank_gene_sets(genes, X, y, ["HC", "QT"], n_perms=300, seed=5, workers=2)
    one = rank_gene_sets(genes, X, y, ["HC", "QT"], n_perms=300, seed=5, workers=1)
    assert ranking_csv(pooled) == ranking_csv(one)
    assert received == [(0, 2), (2, 4)]
    assert all(type(bound) is int for job in received for bound in job)


def test_ranking_is_the_same_at_any_worker_count():
    # genes of uneven sizes, so that column-weighted chunks differ from
    # chunks of equal gene counts
    X, y = rank_panel(seed=41, L=24)
    sizes = [9, 1, 2, 6, 3, 1, 2]
    ends = np.cumsum(sizes)
    genes = [(f"g{i}", list(range(end - size, end))) for i, (size, end) in enumerate(zip(sizes, ends))]
    texts = {ranking_csv(rank_gene_sets(genes, X, y, methods_for("quantitative"), n_perms=200,
                                        seed=9, workers=workers)) for workers in (1, 2, 3)}
    assert len(texts) == 1


@pytest.mark.parametrize("weights,k,want", [
    ([100, 1, 1], 3, [0, 1, 2, 3]),        # searchsorted on the targets would empty chunk 2
    ([1, 1, 100], 3, [0, 1, 2, 3]),
    ([1] * 10 + [10] * 10, 2, [0, 14, 20]),  # 50 and 60 columns; by gene count, 10 and 100
    ([1] * 7, 2, [0, 3, 7]),                 # a tie goes to the lower boundary
    ([3, 3], 1, [0, 2]),
])
def test_cuts_are_column_weighted_and_leave_no_chunk_empty(weights, k, want):
    assert bench._cuts(weights, k) == want


def test_cuts_cover_every_item_in_balanced_contiguous_chunks():
    rng = np.random.default_rng(17)
    for _ in range(300):
        weights = rng.integers(1, 41, size=int(rng.integers(1, 60)))
        k = int(rng.integers(1, weights.size + 1))
        cuts = bench._cuts(weights, k)
        assert cuts[0] == 0 and cuts[-1] == weights.size and len(cuts) == k + 1
        assert all(a < b for a, b in zip(cuts, cuts[1:]))  # contiguous, none empty
        if weights.size >= 20 and k <= 3:  # no weight outgrows a share
            shares = [weights[a:b].sum() for a, b in zip(cuts, cuts[1:])]
            assert max(abs(s - weights.sum() / k) for s in shares) <= weights.max()
    assert bench._run_chunked(_chunk_bounds, 3, 3, weights=[1, 1, 100]) == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
def test_pool_ranks_alike_under_every_start_method(start_method):
    # under spawn and forkserver (Python 3.14's default on Linux) the pool
    # processes receive the chunk function and its arguments by pickle
    src = str(Path(bench.__file__).resolve().parents[1])
    code = f"""
import multiprocessing, sys
import numpy as np
from rareweak import rank_gene_sets, ranking_csv
multiprocessing.set_start_method({start_method!r})
rng = np.random.default_rng(29)
X = rng.binomial(2, 0.4, size=(120, 10)).astype(float)
y = rng.standard_normal(120)
genes = [("a", [0, 1, 2, 3, 4, 5]), ("b", [6, 7]), ("c", [8, 9])]
texts = [ranking_csv(rank_gene_sets(genes, X, y, ["HC", "QT"], n_perms=200, seed=3, workers=w))
         for w in (1, 2)]
sys.stdout.write(texts[1] if texts[0] == texts[1] else "the 2-worker ranking differs")
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    rng = np.random.default_rng(29)
    X = rng.binomial(2, 0.4, size=(120, 10)).astype(float)
    y = rng.standard_normal(120)
    genes = [("a", [0, 1, 2, 3, 4, 5]), ("b", [6, 7]), ("c", [8, 9])]
    assert done.stdout == ranking_csv(rank_gene_sets(genes, X, y, ["HC", "QT"], n_perms=200, seed=3))


# --- streamed permutations ------------------------------------------------------


def pinned_panel():
    rng = np.random.default_rng(95)
    X = rng.binomial(2, 0.3, size=(150, 16)).astype(float)
    y = rng.standard_normal(150)
    labels = rng.permutation(np.repeat([1.0, 0.0], [60, 90]))
    return X, y, labels


# sha256 of ranking_csv on pinned_panel and permutation_cutoff values, as
# computed from one (n, 1 + n_perms) response block before ranking and the
# cutoff were streamed in slabs; the power digests below hash each
# replicate's observed statistic from its own product
PINNED_RANK_SHA256 = {
    "quantitative": "07ec5bb956c17cd1cc7f910cbee135acd58297684f34af77792d90dce5971d2f",
    "binary": "16648192600072cb436837427de4a8ba809f31bfb27767db41a169b4a9d20b0c",
}
PINNED_CUTOFF = {"quantitative": 25.90965505937148, "binary": 1.7383208161612385}
PINNED_POWER_SHA256 = {
    "quantitative": "3886d258e03b31168239923a4455e18ddcecbfa708129f920ef82d8d515ba382",
    "binary": "ada34dabbe0673dcf1d54a530eee55e89c9726ffb33932844e28d71214b19be6",
}


def _pinned_inputs(trait_kind):
    X, y, labels = pinned_panel()
    if trait_kind == "binary":
        return X, Phenotype(values=labels, kind="binary"), ["HC", "MinP", "LCT", "QT", "DT"]
    return X, y, list(METHOD_NAMES)


def _slab_columns(monkeypatch, n, width):
    monkeypatch.setattr(bench, "_SLAB_BYTES", 8 * n * width)
    assert bench._slab_width(n) == width


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("width", [7, 64, 301])
@pytest.mark.parametrize("trait_kind", ["quantitative", "binary"])
def test_streamed_ranking_matches_the_pinned_block_result(monkeypatch, trait_kind, width, workers):
    X, y, methods = _pinned_inputs(trait_kind)
    _slab_columns(monkeypatch, X.shape[0], width)
    genes = [(f"g{i}", list(range(4 * i, 4 * i + 4))) for i in range(4)]
    ranking = rank_gene_sets(genes, X, y, methods, n_perms=300, seed=5, workers=workers)
    digest = hashlib.sha256(ranking_csv(ranking).encode("utf-8")).hexdigest()
    assert digest == PINNED_RANK_SHA256[trait_kind]


@pytest.mark.parametrize("width", [7, 64, 2001])
@pytest.mark.parametrize("trait_kind", ["quantitative", "binary"])
def test_streamed_cutoff_matches_the_pinned_block_result(monkeypatch, trait_kind, width):
    X, y, _ = _pinned_inputs(trait_kind)
    _slab_columns(monkeypatch, X.shape[0], width)
    method = "QT" if trait_kind == "quantitative" else "HC"
    cut = permutation_cutoff(method, X, y, n_perms=2000, level=0.05, seed=9)
    assert cut == PINNED_CUTOFF[trait_kind]


def pinned_power_scenario(trait_kind):
    if trait_kind == "binary":
        return Scenario(L=12, q=0.3, ld=LdSpec.identity(), trait=TraitModel.logistic(-1.0, 60, 90),
                        n_signals=2, base_beta=0.5, scheme=CoefficientScheme.fixed())
    return quick_scenario(L=12, n=150)


# 20 permutations per replicate: each width splits them with no one-column
# slab, which a matrix-vector product would score with other rounding; the
# observed statistic is its own product, whatever the width
@pytest.mark.parametrize("width", [3, 7, 21])
@pytest.mark.parametrize("trait_kind", ["quantitative", "binary"])
def test_streamed_power_matches_the_pinned_block_result(monkeypatch, trait_kind, width):
    _slab_columns(monkeypatch, 150, width)
    methods = methods_for(trait_kind)
    results = empirical_power(methods, pinned_power_scenario(trait_kind), n_sims=100,
                              level=0.05, seed=9, perms_per_sim=20, retain=True)
    digest = hashlib.sha256(power_table_csv(results).encode("utf-8"))
    for res in results:
        digest.update(res.observed.tobytes())
        digest.update(res.nulls.tobytes())
    assert digest.hexdigest() == PINNED_POWER_SHA256[trait_kind]


def test_no_kernel_call_sees_more_than_one_slab(monkeypatch):
    X, y = rank_panel(seed=79, n=120, L=8)
    width = 700
    _slab_columns(monkeypatch, X.shape[0], width)
    seen = []
    real = bench._correlations

    def recorder(Z, Y):
        seen.append(Y.shape[1])
        return real(Z, Y)

    monkeypatch.setattr(bench, "_correlations", recorder)
    genes = [("a", [0, 1, 2, 3]), ("b", [4, 5, 6, 7])]
    rank_gene_sets(genes, X, y, ["HC", "QT"], n_perms=10_000, seed=3)
    # one product per slab scores every gene of the chunk, and one width-1
    # product per gene its observed statistic
    assert max(seen) <= width and sum(seen) == 10_000 + len(genes)
    seen.clear()
    permutation_cutoff("LCT", X, y, n_perms=10_000, level=0.05, seed=3)
    assert max(seen) <= width and sum(seen) == 10_001
    # a power replicate whose P permutations span two slabs prepares its panel
    # once, and scores its observed statistic by a product of its own
    seen.clear()
    prepared = []
    prepare = bench._prepared_block
    monkeypatch.setattr(bench, "_prepared_block",
                        lambda *args, **kwargs: prepared.append(1) or prepare(*args, **kwargs))
    empirical_power(["HC", "QT"], quick_scenario(L=8, n=120), n_sims=100, level=0.05,
                    seed=3, perms_per_sim=1000)
    assert max(seen) <= width and sum(seen) == 100 * 1001 and len(seen) == 300
    assert len(prepared) == 100


# --- observed statistics --------------------------------------------------------


def power_identity_scenario():
    # the power_identity workload's scenario: L = 100, n = 1000, r = 0.65
    return quick_scenario(r=0.65, L=100, n=1000)


def test_a_replicates_observed_statistic_does_not_depend_on_its_permutation_count():
    needs = methods_for("quantitative")
    for i in range(5):
        rep_seed = bench.derive_seed(1, bench.TAG_REPLICATE, i)
        first = bench._replicate_stats(power_identity_scenario(), needs, rep_seed, 1)
        for perms in (3, 200):
            again = bench._replicate_stats(power_identity_scenario(), needs, rep_seed, perms)
            for m in needs:
                assert again[m][0, 0] == first[m][0, 0], (m, i, perms)


@pytest.mark.parametrize("scenario", [
    power_identity_scenario(),
    quick_scenario(L=20, n=150, ld=LdSpec.poly_decay(0.5, 1.0)),
    Scenario(L=12, q=0.3, ld=LdSpec.identity(), trait=TraitModel.logistic(-1.0, 60, 90),
             n_signals=2, base_beta=0.5, scheme=CoefficientScheme.fixed()),
], ids=["identity", "poly", "logistic"])
def test_a_replicates_observed_statistic_is_what_score_writes(scenario):
    needs = methods_for(scenario.trait_kind)
    for i in range(3):
        rep_seed = bench.derive_seed(1, bench.TAG_REPLICATE, i)
        (X,), y, _ = bench._draw_replicate(scenario, rep_seed)
        scored = gene_set_statistics([("all", range(scenario.L))], X, y, needs)
        with _blas.one_thread():  # as every power chunk runs
            stats = bench._replicate_stats(scenario, needs, rep_seed, 4)
        for m in needs:
            assert stats[m][0, 0] == scored[m][0], (m, i)


def test_a_cutoff_does_not_depend_on_the_panels_memory_order():
    X, y = rank_panel(seed=61, n=150, L=12)
    for method in ("HC", "QT", "DT", "MinP", "LCT"):
        cut = permutation_cutoff(method, X, y, n_perms=400, level=0.05, seed=2)
        assert permutation_cutoff(method, np.asfortranarray(X), y, n_perms=400,
                                  level=0.05, seed=2) == cut, method


@pytest.mark.parametrize("trait_kind", ["quantitative", "binary"])
def test_no_statistic_depends_on_the_panels_memory_order(trait_kind):
    # a column-major panel once moved the last bits of most marginal scores
    # and correlations; GenotypeMatrix now lays out every panel row-major
    rng = np.random.default_rng(29)
    X = rng.binomial(2, 0.35, size=(600, 40)).astype(float)
    X[rng.random(X.shape) < 0.02] = 0.7  # imputed cells: not every product is exact
    y = rng.integers(0, 2, 600).astype(float) if trait_kind == "binary" else rng.standard_normal(600)
    F = np.asfortranarray(X)
    assert F.flags["F_CONTIGUOUS"] and not F.flags["C_CONTIGUOUS"]
    kinds = ("r_sigma", "r", "t") if trait_kind == "quantitative" else ("d",)
    for kind in kinds:
        a, b = (marginal_stats(P, y, kind, sigma=1.0) for P in (X, F))
        assert a.values.tobytes() == b.values.tobytes(), kind
        assert a.pvalues.tobytes() == b.pvalues.tobytes(), kind
    assert empirical_correlation(X).tobytes() == empirical_correlation(F).tobytes()
    if trait_kind == "binary":
        assert case_control_zscores(X, y).tobytes() == case_control_zscores(F, y).tobytes()
    needs = methods_for(trait_kind)
    genes = [("a", range(0, 12)), ("b", range(8, 30)), ("c", [39, 3, 17])]
    a, b = (gene_set_statistics(genes, P, y, needs) for P in (X, F))
    for m in needs:
        assert a[m].tobytes() == b[m].tobytes(), m
    for m in ("HC", "QT"):
        assert permutation_cutoff(m, X, y, n_perms=400, level=0.05, seed=4) == \
            permutation_cutoff(m, F, y, n_perms=400, level=0.05, seed=4), m


# (n, genes, SNPs per gene, methods): the first makes the product large next
# to the statistics, so a slab or product kept a slab too long shows; the
# second makes the statistics large next to the slab, so statistics kept
# while the next slab is scored show
@pytest.mark.parametrize("n, n_genes, size, methods", [
    (400, 15, 4, ("HC",)),
    (200, 40, 1, METHOD_NAMES),
])
def test_a_ranking_chunk_holds_one_slab_at_a_time(monkeypatch, n, n_genes, size, methods):
    width, n_perms = 500, 1500  # three slabs
    _slab_columns(monkeypatch, n, width)
    X, y = rank_panel(seed=83, n=n, L=n_genes * size)
    slices = tuple(np.arange(g * size, (g + 1) * size) for g in range(n_genes))
    tracemalloc.start()
    try:
        bench._gene_chunk(X, y, n_perms, 3, slices, "quantitative", methods, 0, n_genes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    W = n_genes * size
    # Z, one slab, one product and one slab's statistics, plus 64 KiB for a
    # permutation's index, its gathered copy and the interpreter's own objects
    bound = 8 * (n * W + n * width + W * width + n_genes * width * len(methods)) + 2**16
    assert peak <= bound


def _blocks_of_three_genes(monkeypatch, n, L):
    """Slab bytes patched so that a replicate's block holds 3 genes of L SNPs
    and a slab 3 L permutations."""
    _slab_columns(monkeypatch, n, 3 * L)
    assert bench._slab_width(n * L) == 3


def test_a_replicate_scores_its_genes_in_blocks_on_one_permutation_pass_each(monkeypatch):
    n, L, G, P = 100, 10, 8, 70
    _blocks_of_three_genes(monkeypatch, n, L)
    scenario = quick_scenario(L=L, n=n, ld=LdSpec.poly_decay(0.5, 1.0))
    needs = methods_for("quantitative")
    passes, widths = [], []
    draw, prepare = bench._permutation_slabs, bench._prepared_block

    def pass_recorder(*args):
        passes.append(1)
        return draw(*args)

    def width_recorder(X, *args, **kwargs):
        widths.append(X.shape[1])
        return prepare(X, *args, **kwargs)

    monkeypatch.setattr(bench, "_permutation_slabs", pass_recorder)
    monkeypatch.setattr(bench, "_prepared_block", width_recorder)
    stats = bench._replicate_stats(scenario, needs, 17, P, G, 2)
    # blocks of 3, 3 and 2 genes: one pass of the stream each, not one per gene
    assert len(passes) == 3 and widths == [3 * L, 3 * L, 2 * L]
    assert all(stats[m].shape == (G, 1 + P) for m in needs)
    panels, y, _ = bench._draw_replicate(scenario, 17, G, 2)
    for g, X in enumerate(panels):
        alone = bench._response_stats(X.entries, (slice(None),), y.values, "quantitative",
                                      needs, P, 17)
        for m in needs:
            assert stats[m][g].tobytes() == alone[m][0].tobytes(), (m, g)


@pytest.mark.parametrize("n_genes", [8, 30])
@pytest.mark.parametrize("methods", [("HC",), METHOD_NAMES])
def test_a_replicate_holds_one_block_at_a_time(monkeypatch, n_genes, methods):
    n, L, n_perms = 400, 10, 90  # blocks of 3 genes, three slabs per block
    _blocks_of_three_genes(monkeypatch, n, L)
    scenario = quick_scenario(L=L, n=n)
    tracemalloc.start()
    try:
        bench._replicate_stats(scenario, methods, 5, n_perms, n_genes, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    W = width = 3 * L
    # a block's panel entries and its Z, one slab, one product and one slab's
    # statistics; the replicate's statistics twice (per block, then joined);
    # one panel's draw (its Philox words, counts and entries); 64 KiB for the
    # interpreter's own objects
    bound = (8 * (2 * n * W + n * width + W * width + 3 * width * len(methods))
             + 2 * 8 * n_genes * (1 + n_perms) * len(methods) + 4 * 8 * n * L + 2**16)
    assert peak <= bound


def test_scoring_leaves_the_callers_panel_unchanged():
    X, y = rank_panel(seed=87, n=150, L=12)
    assert X.dtype == np.float64 and X.flags["C_CONTIGUOUS"]
    assert validated_inputs(X, y)[0] is X  # the caller's own array reaches the kernels
    before = X.copy()
    for method in ("HC", "QT"):
        permutation_cutoff(method, X, y, n_perms=400, level=0.05, seed=2)
    gene_set_statistics([("a", range(6)), ("b", range(4, 12))], X, y, list(METHOD_NAMES))
    assert X.tobytes() == before.tobytes()


def test_slab_width_follows_the_byte_budget():
    for n in (2, 150, 2000, 5000):
        width = bench._slab_width(n)
        assert 8 * n * width <= bench._SLAB_BYTES < 8 * n * (width + 1)
    assert bench._slab_width(bench._SLAB_BYTES) == 1


def imputed_case_control_panel():
    """40 samples, 40 genes of 3 SNPs at q = 0.2, about 1% of cells imputed
    with the column mean: many permutations tie the observed case counts."""
    rng = np.random.default_rng(8)
    X = rng.binomial(2, 0.2, size=(40, 120)).astype(float)
    missing = rng.random(X.shape) < 0.01
    for j in range(X.shape[1]):
        X[missing[:, j], j] = X[~missing[:, j], j].mean()
    labels = np.zeros(40)
    labels[rng.permutation(40)[:20]] = 1.0
    return X, Phenotype(values=labels, kind="binary")


def test_tied_permuted_statistics_count_whatever_the_column_order():
    # HC, MinP, LCT and QT do not depend on the order of a gene's columns in
    # exact arithmetic, so neither may their p-values; DT whitens by a
    # Cholesky factor, which the order changes, so a gene's columns are
    # sorted before any statistic sees them
    X, y = imputed_case_control_panel()
    genes = [(f"g{i}", list(range(3 * i, 3 * i + 3))) for i in range(40)]
    reversed_genes = [(name, idx[::-1]) for name, idx in genes]
    methods = ["HC", "MinP", "LCT", "QT", "DT"]
    a = rank_gene_sets(genes, X, y, methods, n_perms=1000, seed=8)
    b = rank_gene_sets(reversed_genes, X, y, methods, n_perms=1000, seed=8)
    np.testing.assert_array_equal(a.pvalues, b.pvalues)


def _blas_threads_chunk(lo, hi):
    return _blas.thread_counts()


@pytest.mark.skipif(not _blas.managed(), reason="this BLAS's thread count cannot be set")
@pytest.mark.parametrize("workers", [1, 2])
def test_chunks_run_with_one_blas_thread(two_blas_threads, workers):
    before = _blas.thread_counts()
    chunks = bench._run_chunked(_blas_threads_chunk, 4, workers)
    assert len(chunks) == workers
    assert all(counts and set(counts) == {1} for counts in chunks)
    assert _blas.thread_counts() == before


@pytest.mark.skipif(not _blas.managed(), reason="this BLAS's thread count cannot be set")
def test_blas_cap_restores_after_an_error(two_blas_threads):
    before = _blas.thread_counts()
    with pytest.raises(ZeroDivisionError):
        with _blas.one_thread():
            assert set(_blas.thread_counts()) == {1}
            1 / 0
    assert _blas.thread_counts() == before


@pytest.mark.skipif(not _blas.managed(), reason="this BLAS's thread count cannot be set")
@pytest.mark.parametrize("call", [
    lambda X, y: permutation_cutoff("LCT", X, y, n_perms=400, level=0.05, seed=5),
    lambda X, y: gene_set_statistics([("a", [0, 1, 2]), ("b", [3, 4, 5])], X, y, ["HC", "QT"]),
], ids=["permutation_cutoff", "gene_set_statistics"])
def test_work_outside_the_chunks_runs_with_one_blas_thread(two_blas_threads, blas_threads_seen,
                                                          call):
    before = _blas.thread_counts()
    seen = blas_threads_seen(bench, "_correlations")
    call(*rank_panel(seed=71, L=6))
    assert seen and all(counts and set(counts) == {1} for counts in seen)
    assert _blas.thread_counts() == before


def test_rank_average_over_target_genes():
    X, y = rank_panel(seed=61, L=12)
    genes = [("a", [0, 1]), ("b", [2, 3]), ("c", [4, 5])]
    ranking = rank_gene_sets(genes, X, y, ["HC"], n_perms=100, seed=9)
    avg = ranking.average_ranks(["a", "c"])
    assert avg["HC"] == pytest.approx((ranking.ranks[0, 0] + ranking.ranks[0, 2]) / 2)
    with pytest.raises(EmptyGeneError):
        ranking.average_ranks(["zzz"])


def test_average_ranks_refuses_a_repeated_target_before_an_unknown_one():
    X, y = rank_panel(seed=61, L=12)
    ranking = rank_gene_sets([("a", [0, 1]), ("b", [2, 3])], X, y, ["HC"], n_perms=100, seed=9)
    with pytest.raises(ConfigError, match="'a' is repeated"):
        ranking.average_ranks(["a", "a", "b"])
    with pytest.raises(ConfigError, match="'zzz' is repeated"):
        ranking.average_ranks(["zzz", "b", "zzz"])


def test_rank_surfaces_planted_gene():
    # one calibrated signal gene among 29 null genes; strong signals should
    # put it in the top decile in nearly every replicate
    from rareweak import draw_signal_config

    sc = Scenario.from_strength(L=100, n=1000, q=0.4, sigma=1.0, alpha=0.76,
                                r=1.5, ld=LdSpec.identity())
    genes = [(f"g{i}", list(range(100 * i, 100 * (i + 1)))) for i in range(30)]
    hits = 0
    for rep in range(25):
        X = simulate_genotypes(1000, 0.4, LdSpec.identity(), seed=7000 + rep, L=3000)
        cfg = draw_signal_config(100, sc.n_signals, sc.scheme, sc.base_beta,
                                 seed=7000 + rep)
        beta_full = np.zeros(3000)
        beta_full[:100] = cfg.beta
        rng = np.random.default_rng(8000 + rep)
        y = X.entries @ beta_full + rng.standard_normal(1000)
        ranking = rank_gene_sets(genes, X.entries, y, ["HC"], n_perms=100,
                                 seed=9000 + rep)
        hits += ranking.ranks[0, 0] <= 3.0
    assert hits >= 20, f"planted gene in top 3 only {hits}/25 times"


def test_every_entry_point_scores_through_the_slab_loop(monkeypatch):
    # _stats_for_columns is the tests' one-slab reference, which no package path calls
    def refuse(*args):
        raise AssertionError("scored outside _scored_slabs")
    monkeypatch.setattr(bench, "_stats_for_columns", refuse)
    sc = quick_scenario(L=8, n=100)
    fdr_curve(["HC", "QT"], sc, levels=[0.2], n_sims=2, n_genes=4, n_signal_genes=1, seed=3,
              perms_per_sim=13)
    empirical_power(["HC", "MinP"], sc, n_sims=100, level=0.2, seed=3)
    X, y = rank_panel()
    permutation_cutoff("HC", X, y, n_perms=100, level=0.2, seed=3)
    genes = [("a", [0, 1, 2]), ("b", [3, 4, 5])]
    rank_gene_sets(genes, X, y, ["HC", "LCT"], n_perms=100, seed=3)
    gene_set_statistics(genes, X, y, ["HC", "QT"])


@pytest.mark.parametrize("workers", [0, -5])
def test_a_worker_count_below_one_is_refused(workers):
    sc = quick_scenario(L=8, n=100)
    X, y = rank_panel()
    refused = pytest.raises(ConfigError, match=f"need workers >= 1, got {workers}")
    with refused:
        empirical_power(["HC"], sc, n_sims=100, level=0.2, seed=3, workers=workers)
    with refused:
        fdr_curve(["HC"], sc, levels=[0.2], n_sims=2, n_genes=4, n_signal_genes=1, seed=3,
                  perms_per_sim=13, workers=workers)
    with refused:
        rank_gene_sets([("a", [0, 1])], X, y, ["HC"], n_perms=100, seed=3, workers=workers)


# --- serialization ------------------------------------------------------------


def test_csv_floats_survive_round_trip():
    values = [0.1, 1.0 / 3.0, 2.0 ** -45, 123456789.123456789]
    text = csv_text(("v",), [[v] for v in values])
    parsed = [float(line) for line in text.splitlines()[1:]]
    assert parsed == values


def test_power_table_layout():
    sc = quick_scenario(L=15, n=120)
    res = empirical_power(["HC"], sc, n_sims=100, level=0.1, seed=63, perms_per_sim=2)
    text = power_table_csv(res)
    lines = text.splitlines()
    assert lines[0] == "method,r_or_beta,ld_design,power,cutoff,n_sims,n_perms,seed"
    first = lines[1].split(",")
    assert first[0] == "HC" and first[2] == "identity"
    assert float(first[1]) == pytest.approx(0.9)
