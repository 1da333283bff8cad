import os
from pathlib import Path

import pytest

import replab
from replab import (
    EquilibriumAutomaton,
    GameParams,
    MonitoringStructure,
    construct_full_effort,
    construct_non_efe,
)


def child_env(**extra: str) -> dict[str, str]:
    """The environment for a child Python process that imports replab: this
    process's, updated with ``extra``, and the directory replab was imported
    from put first on ``PYTHONPATH``; pyproject's ``pythonpath`` reaches
    pytest's own process only."""
    src = str(Path(replab.__file__).parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="session")
def binary75():
    return MonitoringStructure.binary(0.75)


@pytest.fixture(scope="session")
def ref_params():
    """The workhorse instance: binary precision 0.75 with
    (kappa, delta, pi0, c) = (0.2, 0.5, 0.3, 0.05)."""
    return GameParams(kappa=0.2, delta=0.5, pi0=0.3, c=0.05)


@pytest.fixture(scope="session")
def fail_params():
    """Same monitoring/kappa but delta = 0.3, below the 4/11 frontier."""
    return GameParams(kappa=0.2, delta=0.3, pi0=0.3, c=0.05)


@pytest.fixture(scope="session")
def fe_automaton(ref_params, binary75):
    return construct_full_effort(ref_params, binary75)


@pytest.fixture(scope="session")
def non_efe(ref_params, binary75):
    return construct_non_efe(ref_params, binary75)


@pytest.fixture(scope="session")
def non_efe_automaton(non_efe):
    return non_efe[0]


@pytest.fixture(scope="session")
def non_efe_params_out(non_efe):
    return non_efe[1]


@pytest.fixture(scope="session")
def two_closed_classes(binary75):
    """A never-replacing automaton whose initial state moves on to one of two
    absorbing states, so its acting chain has two closed classes."""
    return EquilibriumAutomaton(
        replace_prob=[0.0, 0.0, 0.0], effort_prob=[0.5, 1.0, 0.0], belief=[0.3] * 3,
        next_state=[[1, 2], [1, 1], [2, 2]], regime=["A", "B", "C"], initial=0,
        signals=binary75.signals, kind="custom",
    )
