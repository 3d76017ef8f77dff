"""Langevin-type MCMC driven by heavy-tailed alpha-stable noise.

The package splits into noise generation (stable), the fractional
centered-difference operator (riesz), potential targets (targets), drift
evaluators (drift), Euler-Maruyama chains and estimators (sampler),
an independent numerical reference (oracle), and the experiment CLI (cli).
"""

__version__ = "0.1.0"

from .drift import FullCentered, Simplified, full_drift, kappa
from .riesz import build_stencil, c_alpha, coeff, truncated_centered_difference
from .sampler import (Constant, Polynomial, SamplerConfig, Trace, run_chain,
                      run_ensemble)
from .stable import StableNoise, sample_sas_vector
from .targets import (Target, double_well_target, gaussian_target, sg_gradient,
                      synthetic_mf_target)

__all__ = [
    "__version__",
    "StableNoise", "sample_sas_vector",
    "build_stencil", "c_alpha", "coeff", "truncated_centered_difference",
    "Target", "double_well_target", "gaussian_target",
    "synthetic_mf_target", "sg_gradient",
    "Simplified", "FullCentered", "full_drift", "kappa",
    "SamplerConfig", "Polynomial", "Constant", "Trace",
    "run_chain", "run_ensemble",
]
