import json
import os
from dataclasses import replace

import pytest

from flmc.sampler import ChainFailure, repeat_seeds, run_chain, summarize_repeats

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "oracle_values.json")


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
