"""Shared parameter draws for the test suite.

Randomized tests seed their own generator so failures reproduce.  Two draw
regimes are used: mild perturbations (a near 1, b near 0) keep the forward
recursion well conditioned over long orders, while the wider draws exercise
the generic code paths at short orders where conditioning is not an issue.
"""

import numpy as np
import pytest

from szegojost.errors import InvalidParameterError
from szegojost.measures import parse_alpha_spec
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


# +0, and the zeros with a negative real part, imaginary part, or both
SIGNED_ZEROS = np.array([complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                         complex(-0.0, -0.0)])


def zero_tail_coeffs(seed):
    """Alpha that ends in exact zeros, for the shortcuts past the last nonzero alpha.

    One of six kinds: real, complex or rotated (lambda^(n+1) alpha_n) lists,
    lists scaled by 1e-300, constant lists of |alpha| = 1 - 1e-9 long enough
    that the monic polynomials overflow, or a ``geometric:`` spec at an order
    up to 4096 (its tail underflows to zeros of the sign of C).  Lists get a
    tail of zeros of all four signs, a few interior zeros, and either tail
    policy.
    """
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(0, 6))
    if kind == 5:
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.95))
        r = float(rng.uniform(1.2, 6.0))
        return parse_alpha_spec(f"geometric:C={c!r},R={r!r}", int(rng.choice([64, 1024, 4096])))
    if kind == 4:
        alpha = np.full(int(rng.integers(1030, 1100)), rng.choice([-1.0, 1.0]) * (1.0 - 1e-9))
    else:
        size = int(rng.integers(0, 160))
        alpha = rng.uniform(-0.9, 0.9, size) * rng.uniform(1.0, 3.0) ** -np.arange(size)
        if kind in (1, 2):
            alpha = alpha + 1j * rng.uniform(-0.4, 0.4, size)
        if kind == 2:
            alpha = alpha * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) ** np.arange(1, size + 1)
        if kind == 3:
            alpha = alpha * 1e-300
        alpha[rng.uniform(size=size) < 0.05] = 0.0
    alpha = np.concatenate([alpha, SIGNED_ZEROS[rng.integers(0, 4, int(rng.integers(0, 300)))]])
    if rng.uniform() < 0.5:
        return VerblunskyCoeffs(alpha, zero_after=len(alpha) - 1)
    return VerblunskyCoeffs(alpha)


def monic_pair_two_buffers(coeffs, n):
    """opuc._monic_pair before Phi_m stayed in place and the steps stopped at the
    last nonzero alpha, with its step inlined, verbatim."""
    if n < 0:
        raise InvalidParameterError("order must be nonnegative")
    ca = np.conj(coeffs.slice(n))
    cur = np.zeros(n + 1, dtype=complex)
    cur[0] = 1.0
    nxt, star = np.zeros(n + 1, dtype=complex), np.empty(n + 1, dtype=complex)
    for m in range(n):
        np.conjugate(cur[m::-1], out=star[: m + 1])
        term = star[: m + 1]
        np.multiply(ca[m], term, out=term)
        nxt[0] = 0.0
        nxt[1 : m + 2] = cur[: m + 1]
        nxt[: m + 1] -= term
        cur, nxt = nxt, cur
    return (nxt[:n] if n else None), cur[: n + 1]


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
