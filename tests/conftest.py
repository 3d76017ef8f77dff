import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from flmc.sampler import ChainFailure, repeat_seeds, run_chain, summarize_repeats

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "oracle_values.json")

# What arithmetic_fingerprint() read where the 19 pinned digests and bit
# patterns in test_stable, test_drift and test_cli were recorded: numpy
# 2.4.6, whose float64 exp and power ran on their AVX-512 kernels. With
# AVX-512 off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") the
# same numpy reads "numpy 2.4.6 exp:0c6db1475354 power:eaad86587aa4", and
# 13 pins fail.
PINS_RECORDED_ON = "numpy 2.4.6 exp:5e421232b7cb power:c6266d066649"


def arithmetic_fingerprint() -> str:
    """numpy's version and short digests of np.exp and np.power on fixed
    inputs: the two ufuncs whose rounding moves with numpy's CPU dispatch,
    1 ulp apart on a few percent of inputs."""
    def short(a):
        return hashlib.sha256(a.tobytes()).hexdigest()[:12]
    exp = short(np.exp(np.linspace(-40.0, 40.0, 4001)))
    power = short(np.power(np.linspace(0.01, 100.0, 4001), 1 / 1.7))
    return f"numpy {np.__version__} exp:{exp} power:{power}"


@pytest.fixture(scope="session")
def pin_note():
    """The message of every pinned assertion: the arithmetic the pins were
    recorded on beside this machine's, so a pin that moved with the CPU
    dispatch says so."""
    return (f"pins recorded on [{PINS_RECORDED_ON}], "
            f"this machine is [{arithmetic_fingerprint()}]")


@pytest.fixture(scope="session")
def oracle_values():
    with open(FIXTURES, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def m_star(oracle_values):
    return oracle_values["double_well_mean"]["value"]


def _sequential_repeats(cfg, target, g, repeats, truth, initial_states=None):
    """Reference for a sweep cell: run_chain at each repeat seed of cfg.seed
    and each start (cfg's own by default), one chain at a time, keeping the
    estimate of g or the ChainFailure, then summarize_repeats."""
    starts = [cfg.initial_state] * repeats if initial_states is None else initial_states
    outcomes = []
    for s, x0 in zip(repeat_seeds(cfg.seed, repeats), starts, strict=True):
        chain = replace(cfg, seed=s, initial_state=x0, record_stride=cfg.iterations)
        try:
            outcomes.append(run_chain(chain, target, g).estimate)
        except ChainFailure as e:
            outcomes.append(e)
    return summarize_repeats(outcomes, truth)


@pytest.fixture(scope="session")
def sequential_repeats():
    return _sequential_repeats
