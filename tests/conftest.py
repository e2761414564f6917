"""Shared parameter draws for the test suite.

Randomized tests seed their own generator so failures reproduce.  Two draw
regimes are used: mild perturbations (a near 1, b near 0) keep the forward
recursion well conditioned over long orders, while the wider draws exercise
the generic code paths at short orders where conditioning is not an issue.
"""

import numpy as np
import pytest

from szegojost.oprl import JacobiParams
from szegojost.opuc import VerblunskyCoeffs


# (a, b), free past the stored rows, with a bound state near the band edge:
# |z0| = 0.9914 in the first, 0.9982 in the second
NEAR_EDGE = {
    "verdict": ((0.9844362531836187, 0.6447342246442308, 1.2359342555219917,
                 0.9285928871411308, 0.7562196289261546, 1.0),
                (-0.7771076481603483, 0.6616557117116593, 0.922022053207276,
                 -2.389180932932973, -0.8540752246754151, -0.7295448290200539)),
    "threshold": ((0.8514459329304024, 1.340226887768875, 0.9640334165917497, 1.0),
                  (-0.5014732717278794, 3.0117896475734116, 0.8319772238710474,
                   0.6370699399402302)),
}


def mild_jacobi(rng, n, free=True):
    a = rng.uniform(0.85, 1.2, size=n)
    b = rng.uniform(-0.25, 0.25, size=n)
    return JacobiParams(a=a, b=b, free_after=n if free else None)


def wide_jacobi(rng, n, free=True):
    a = rng.uniform(0.5, 1.5, size=n)
    b = rng.uniform(-1.0, 1.0, size=n)
    return JacobiParams(a=a, b=b, free_after=n if free else None)


def real_alphas(rng, n, scale=0.55):
    return VerblunskyCoeffs.finitely_supported(rng.uniform(-scale, scale, size=n))


def complex_alphas(rng, n, scale=0.65):
    al = rng.uniform(-scale, scale, n) + 1j * rng.uniform(-0.5, 0.5, n)
    al = al * 0.9 / np.maximum(1.0, np.abs(al) / 0.7)
    return VerblunskyCoeffs.finitely_supported(al)


def geometric_alphas(c, r, order=64):
    """alpha_n = c r^-n for n = 0..order, truncated tail."""
    return VerblunskyCoeffs(alpha=c * r ** -np.arange(order + 1, dtype=float))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
