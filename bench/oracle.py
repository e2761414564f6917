"""Independent references for the benchmark's correctness checks.

Nothing here imports ``szegojost``: every reference is recomputed from the
mathematics with numpy alone, by a different route than the package takes
wherever one exists (exact moment recurrences instead of sampled grids,
eigen-decompositions of large truncations instead of Jost polynomials,
brute-force enumeration instead of the package's pruned search).
"""

from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

# Grid of the circle measures the CLI realizes (its default gridSize) and the
# node count of its line discretization; the aliasing predicate needs both.
CLI_CIRCLE_GRID = 4096
CLI_LINE_NODES = 2000


# ---------------------------------------------------------------- circle side

def szego_pair(alphas, steps: int):
    """Orthonormal (phi_n, phi_n*) after ``steps`` steps, ascending coefficients.

    Normalized recursion phi_{n+1} = (z phi_n - conj(a_n) phi_n*) / rho_n,
    phi*_{n+1} = (phi_n* - a_n z phi_n) / rho_n, with a_n = 0 past the list.
    """
    alphas = np.asarray(alphas, dtype=complex)
    phi = np.zeros(steps + 1, dtype=complex)
    star = np.zeros(steps + 1, dtype=complex)
    phi[0] = star[0] = 1.0
    for n in range(steps):
        a = alphas[n] if n < len(alphas) else 0.0
        rho = np.sqrt(1.0 - abs(a) ** 2)
        z_phi = np.concatenate(([0.0], phi[:-1]))
        phi, star = (z_phi - np.conj(a) * star) / rho, (star - a * z_phi) / rho
    return phi, star


def bs_moments(alphas, kmax: int) -> np.ndarray:
    """Exact moments c_k = integral of z^-k, k = 0..kmax, of a Bernstein-Szego measure.

    Orthogonality of the monic Phi_{n+1} to 1 gives
    c_{n+1} = -sum_{i<=n} conj(p_i) c_i with p the coefficients of Phi_{n+1};
    past the support Phi_{n+1} = z^(n+1-k) Phi_k, a stable order-k recurrence
    (its characteristic roots are the conjugated zeros of Phi_k, inside the disk).
    """
    alphas = np.asarray(alphas, dtype=complex)
    k = len(alphas)
    c = np.zeros(kmax + 1, dtype=complex)
    c[0] = 1.0
    monic = np.ones(1, dtype=complex)
    for n in range(min(k, kmax)):
        z_phi = np.concatenate(([0.0], monic))
        monic = z_phi - np.conj(alphas[n]) * np.concatenate((np.conj(monic[::-1]), [0.0]))
        c[n + 1] = -np.dot(np.conj(monic[: n + 1]), c[: n + 1])
    tail = np.conj(monic[:k])
    for m in range(k + 1, kmax + 1):
        c[m] = -np.dot(tail, c[m - k : m])
    return c


def levinson(moments, n: int) -> np.ndarray:
    """alpha_0 .. alpha_{n-1} from moments c_0 .. c_n (Levinson-Durbin).

    conj(alpha_m) = <z Phi_m, 1> / <Phi_m*, 1>, where <z^i, 1> = conj(c_i).
    """
    cc = np.conj(np.asarray(moments, dtype=complex))
    out = np.zeros(n, dtype=complex)
    monic = np.ones(1, dtype=complex)
    for m in range(n):
        star = np.conj(monic[::-1])
        num = np.dot(monic, cc[1 : m + 2])
        den = np.dot(star, cc[: m + 1])
        out[m] = np.conj(num / den)
        monic = np.concatenate(([0.0], monic)) - np.conj(out[m]) * np.concatenate((star, [0.0]))
    return out


def cosine_moments(coeffs, kmax: int) -> np.ndarray:
    """Moments of the density 1 + sum_j c_j cos(j theta) (exact, total mass 1)."""
    c = np.zeros(kmax + 1, dtype=complex)
    c[0] = 1.0
    for j, cj in enumerate(coeffs, start=1):
        if j <= kmax:
            c[j] = cj / 2.0
    return c


def with_point_mass(moments, mass: float, location: complex) -> np.ndarray:
    """Moments of (1 - m) mu + m delta_location."""
    k = np.arange(len(moments))
    return (1.0 - mass) * np.asarray(moments) + mass * complex(location) ** (-k)


def circle_doc_alphas(doc: dict, n: int) -> np.ndarray:
    """Exact first n Verblunsky coefficients of a circle measure document."""
    family, params = doc["family"], doc["params"]
    if family == "bernstein-szego" and not doc["masses"]:
        out = np.zeros(n, dtype=complex)
        m = min(n, len(params))
        out[:m] = params[:m]
        return out
    if family == "bernstein-szego":
        mom = bs_moments(params, n)
    elif family == "cosine-polynomial":
        mom = cosine_moments(params, n)
    else:
        mom = np.zeros(n + 1, dtype=complex)
        mom[0] = 1.0
    for loc, mass in doc["masses"]:
        mom = with_point_mass(mom, mass, loc)
    return levinson(mom, n)


def alias_level(poly, nodes: int) -> float:
    """Aliasing error left by a grid of ``nodes`` points on the unit circle.

    Boundary data built from the polynomial ``poly`` (1/poly, log|poly|,
    poly/conj(poly)) is analytic in an annulus bounded by the zeros of poly;
    its Fourier coefficients decay like rho^-|j| with rho = min over zeros of
    max(|z|, 1/|z|), and a grid folds coefficient j + nodes onto j.
    """
    p = np.trim_zeros(np.asarray(poly, dtype=complex), "b")
    if len(p) < 2:
        return 0.0
    roots = np.abs(np.roots(p[::-1]))
    rho = float(np.min(np.maximum(roots, 1.0 / roots)))
    return rho ** (-nodes)


def doc_alias_level(doc: dict, nodes: int) -> float:
    """alias_level of a measure document's weight; trigonometric polynomials alias nothing."""
    if doc["family"] not in ("bernstein-szego", "szego-mapped") or not doc["params"]:
        return 0.0
    _, star = szego_pair(doc["params"], len(doc["params"]))
    return alias_level(star, nodes)


def cli_r_grid(order: int) -> int:
    """Size of the FFT grid the CLI's r series uses at this order."""
    size = 512
    while size < 8 * (order + 1):
        size *= 2
    return size


def series_reciprocal(poly, order: int) -> np.ndarray:
    """Taylor coefficients 0..order of 1/poly for a polynomial with poly[0] != 0."""
    p = np.asarray(poly, dtype=complex)
    d = np.zeros(order + 1, dtype=complex)
    d[0] = 1.0 / p[0]
    deg = len(p) - 1
    for m in range(1, order + 1):
        j = min(m, deg)
        d[m] = -np.dot(p[1 : j + 1], d[m - 1 :: -1][:j]) / p[0]
    return d


def bs_szego_d(alphas, order: int) -> np.ndarray:
    """Taylor coefficients of D = 1/phi_k* for a Bernstein-Szego weight."""
    _, star = szego_pair(alphas, len(alphas))
    return series_reciprocal(star, order)


def weight_szego_d(weight_fn, order: int, grid: int = 1 << 15) -> np.ndarray:
    """D = exp(analytic completion of (1/2) log w) on a fine grid.

    Boundary values of D are sampled and transformed back, so no series
    exponential is involved (the package uses a Taylor-series exponential).
    """
    theta = 2.0 * np.pi * np.arange(grid) / grid
    g = np.fft.fft(np.log(weight_fn(theta))) / grid
    h = np.zeros(grid, dtype=complex)
    h[0] = 0.5 * g[0].real
    h[1 : grid // 2] = g[1 : grid // 2]
    boundary = np.exp(np.fft.ifft(h) * grid)
    return (np.fft.fft(boundary) / grid)[: order + 1]


def laurent_r(dinv_poly, order: int) -> np.ndarray:
    """Laurent coefficients k = -order..order of r = conj(D)/D on the circle.

    With P = 1/D a polynomial, r = P / conj(P) on |z| = 1, sampled on a grid
    eight times finer than the CLI's.
    """
    grid = 8 * cli_r_grid(order)
    theta = 2.0 * np.pi * np.arange(grid) / grid
    poly = np.trim_zeros(np.asarray(dinv_poly), "b")  # 1/D of a short alpha list is short
    vals = np.polynomial.polynomial.polyval(np.exp(1j * theta), poly)
    hat = np.fft.fft(vals / np.conj(vals)) / grid
    k = np.arange(-order, order + 1)
    return hat[k % grid]


def dinv_truncated(alphas, steps: int, order: int) -> np.ndarray:
    """kappa_n Phi_n* after ``steps`` steps, truncated or padded to ``order``."""
    _, star = szego_pair(alphas, steps)
    out = np.zeros(order + 1, dtype=complex)
    m = min(order + 1, len(star))
    out[:m] = star[:m]
    return out


def cosine_weight(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)

    def w(theta):
        out = np.ones_like(theta)
        for j, cj in enumerate(coeffs, start=1):
            out = out + cj * np.cos(j * theta)
        return out

    return w


# ------------------------------------------------------------------ line side

def geronimus_rows(alphas, count: int):
    """(a_n, b_n), n = 1..count, of the line measure matched to real alpha.

    b_{n+1} = al_2n - al_2n+2 - al_2n+1 (al_2n + al_2n+2)
    a_{n+1}^2 = 1 + al_2n+1 - al_2n+3 - al_2n+2^2 (1 - al_2n+3)(1 + al_2n+1)
                - al_2n+3 al_2n+1
    """
    al = np.zeros(2 * count + 4)
    src = np.real(np.asarray(alphas, dtype=complex))
    m = min(len(src), len(al))
    al[:m] = src[:m]
    n = np.arange(count)
    a0, a1, a2, a3 = al[2 * n], al[2 * n + 1], al[2 * n + 2], al[2 * n + 3]
    b = a0 - a2 - a1 * (a0 + a2)
    asq = 1.0 + a1 - a3 - a2**2 * (1.0 - a3) * (1.0 + a1) - a3 * a1
    return np.sqrt(asq), b


def jacobi_matrix(a, b, size: int) -> np.ndarray:
    """size-by-size truncation of the Jacobi matrix, free (a=1, b=0) past the lists."""
    diag = np.zeros(size)
    off = np.ones(size - 1)
    diag[: min(size, len(b))] = b[:size]
    off[: min(size - 1, len(a))] = a[: size - 1]
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@lru_cache(maxsize=64)
def bound_states(a: tuple, b: tuple, size: int = 400):
    """Eigenvalues outside [-2, 2] of a large truncation, with first-component weights."""
    vals, vecs = np.linalg.eigh(jacobi_matrix(np.array(a), np.array(b), size))
    keep = np.abs(vals) > 2.0
    return vals[keep], vecs[0, keep] ** 2


def exact_moments(a, b, count: int) -> np.ndarray:
    """Moments e1' J^l e1, l = 0..count-1, exact on a big enough truncation."""
    size = count + len(a) + len(b) + 2
    mat = jacobi_matrix(a, b, size)
    vec = np.zeros(size)
    vec[0] = 1.0
    out = np.zeros(count)
    for ell in range(count):
        out[ell] = vec[0]  # e1' J^l e1
        vec = mat @ vec
    return out


def _jacobi_entry(values, k: int, free: float) -> float:
    """1-based entry of a finite-range parameter list, ``free`` past its end."""
    return values[k - 1] if k <= len(values) else free


def _orthonormal(a, b, n: int, x, absolute: bool = False):
    """(p_{n-1}(x), p_n(x)) from a_{k+1} p_{k+1} = (x - b_{k+1}) p_k - a_k p_{k-1}.

    ``x`` may be an array of points or numpy's polynomial variable;
    ``absolute`` adds the a_k p_{k-1} term instead of subtracting it.
    """
    sign = 1.0 if absolute else -1.0
    p_prev, p = 0.0 * x, 1.0 + 0.0 * x
    for k in range(1, n + 1):
        a_prev = _jacobi_entry(a, k - 1, 1.0) if k > 1 else 0.0
        p_prev, p = p, ((x - _jacobi_entry(b, k, 0.0)) * p + sign * a_prev * p_prev) / _jacobi_entry(a, k, 1.0)
    return p_prev, p


def carmona_density(a, b, n: int, xs) -> np.ndarray:
    """1 / (pi (a_n^2 p_n(x)^2 + p_{n-1}(x)^2)) for orthonormal p."""
    p_prev, p = _orthonormal(a, b, n, np.asarray(xs, dtype=float))
    return 1.0 / (np.pi * (_jacobi_entry(a, n, 1.0) ** 2 * p**2 + p_prev**2))


def carmona_residue_error(a, b, n: int) -> float:
    """Relative error double precision leaves in moments summed from residues.

    The averaged density is 1/(pi Q) with Q = a_n^2 p_n^2 + p_{n-1}^2 built
    from monomial coefficients.  Rounding perturbs those coefficients by
    about (n+1) eps times the same recurrence run on absolute values, Q_abs;
    a root zeta then moves by that perturbation times Q_abs(|zeta|) /
    |Q'(zeta)|.  A sharp density peak is a conjugate root pair close to the
    real axis, and the residue 1/Q'(zeta) ~ 1/(zeta - conj(zeta)) moves by
    the root shift over Im(zeta).
    """
    x = np.polynomial.Polynomial([0.0, 1.0])
    an2 = _jacobi_entry(a, n, 1.0) ** 2
    p_prev, p = _orthonormal(a, b, n, x)
    q = (an2 * p**2 + p_prev**2).coef
    p_prev, p = _orthonormal(np.abs(a), -np.abs(b), n, x, absolute=True)
    q_abs = (an2 * p**2 + p_prev**2).coef
    roots = np.polynomial.polynomial.polyroots(q)
    upper = roots[roots.imag > 0]
    dq = np.polynomial.polynomial.polyval(upper, np.polynomial.polynomial.polyder(q))
    size = np.polynomial.polynomial.polyval(np.abs(upper), q_abs)
    shift = (n + 1) * np.finfo(float).eps * size / np.abs(dq)
    return float(np.max(shift / upper.imag, initial=0.0))


# ----------------------------------------------------------------- analysis

def product_set(generators, cutoff: float) -> list:
    """Every product of n+1 generators and n conjugated generators within the cutoff."""
    gens = [complex(g) for g in generators]
    gmin = min(abs(g) for g in gens)
    out = []
    n = 0
    while gmin ** (2 * n + 1) <= cutoff * (1.0 + 1e-12):
        for plain in combinations_with_replacement(gens, n + 1):
            for conj in combinations_with_replacement(gens, n):
                v = complex(np.prod(plain)) * complex(np.prod(np.conj(conj))) if conj else complex(np.prod(plain))
                if abs(v) <= cutoff * (1.0 + 1e-12):
                    out.append(v)
        n += 1
    return out
