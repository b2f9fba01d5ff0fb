import numpy as np
import pytest
from scipy.special import expit

from cdfpool import ForecastCase, Gaussian, PredictiveDist
from cdfpool.study import reproduce_sim_study


@pytest.fixture(scope="session")
def study_report():
    """One shared run of the full simulation-study pipeline (J=500, seed 0)."""
    return reproduce_sim_study(seed=0, j=500)


class StackedLogistic(PredictiveDist):
    """A user-defined kind with a stacked form and no parameter checks.

    The built-in kinds reject non-finite parameters, so tests of the later
    non-finite checks take their NaN from this kind.
    """

    _stacks = True

    def __init__(self, loc, scale):
        self.loc = loc
        self.scale = scale

    def cdf(self, y):
        return expit((np.asarray(y, dtype=float) - self.loc) / self.scale)


def make_gaussian_cases(rng, J=150, k=3):
    """Random Gaussian forecast cases with the outcome drawn from the mixture.

    Drawing y from the equal-weight mixture keeps every component CDF value
    well inside (0, 1), so fitting objectives stay in their smooth region.
    """
    cases = []
    for _ in range(J):
        comps = tuple(
            Gaussian(rng.normal(scale=0.8), 0.8 + rng.random()) for _ in range(k)
        )
        pick = rng.integers(k)
        y = comps[pick].mu + comps[pick].sigma * rng.standard_normal()
        cases.append(ForecastCase(comps, y))
    return cases


@pytest.fixture
def gaussian_cases():
    return make_gaussian_cases(np.random.default_rng(20240817))
