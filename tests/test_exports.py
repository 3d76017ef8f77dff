"""Every public name a module declares exists, and so does every name the
benchmark calls."""

import importlib

import pytest

MODULES = ("flmc", "flmc.cli", "flmc.drift", "flmc.oracle", "flmc.riesz",
           "flmc.sampler", "flmc.stable", "flmc.targets")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


# the flmc names perfbench/workloads.py and perfbench/microcosts.py call, so
# that removing one fails here rather than only in the benchmark
BENCHMARK_SURFACE = {
    "flmc.cli": ("alpha_sweep_report", "bias_sweep_report", "kappa_report",
                 "mf_rmse_curve", "write_report", "schedule_label",
                 "ExperimentReport", "main"),
    "flmc.sampler": ("Constant", "Polynomial", "ChainFailure"),
    "flmc.drift": ("full_drift", "FullCentered", "kappa"),
    "flmc.stable": ("sample_sas_vector", "StableNoise"),
    "flmc.riesz": ("build_stencil",),
    "flmc.targets": ("double_well_target", "synthetic_mf_target",
                     "draw_minibatch", "sg_gradient"),
    "flmc.oracle": ("quadrature_expectation",),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SURFACE))
def test_benchmark_surface_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in BENCHMARK_SURFACE[name]
               if not callable(getattr(module, n, None))]
    assert missing == []
