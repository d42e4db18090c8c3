"""Independent oracles used by the test suite.

Everything here recomputes quantities by a route disjoint from the package
implementation: explicit 2x2 complex matrices for the algebra, the textbook
antiderivative and Gauss-Legendre quadrature for the gauge primitive, one
source at a time for the glued tail sums, the singular abelian pair,
multipole expansions for the far field, plain enumeration for the shell
combinatorics, and full (..., N, 3) difference arrays for distance tables.
"""

import numpy as np

from magbag.monopole import SingularEvaluationError, _hedgehog_form

TAU = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
# Anti-Hermitian basis with sigma_1 sigma_2 = -sigma_3 and sigma_k^2 = -1.
SIGMA = 1j * TAU


def to_matrix(v):
    """Coefficient triple -> 2x2 anti-Hermitian matrix on the {sigma_k/2} basis."""
    return 0.5 * np.einsum("k,kab->ab", np.asarray(v, dtype=complex), SIGMA)


def from_matrix(mat):
    """Inverse of to_matrix via the trace pairing."""
    return np.array(
        [-2.0 * np.trace(mat @ (0.5 * SIGMA[k])).real for k in range(3)]
    )


def matrix_bracket(u, v):
    a, b = to_matrix(u), to_matrix(v)
    return from_matrix(a @ b - b @ a)


def matrix_inner(u, v):
    return float((-2.0 * np.trace(to_matrix(u) @ to_matrix(v))).real)


def alpha_closed_form(x, p, q):
    """Antiderivative route for the radial-gauge primitive.

    int_0^1 t (a + 2bt + ct^2)^{-3/2} dt with a = |p-q|^2, b = (p-q).w,
    c = |w|^2 has the elementary antiderivative -(a + bt)/((ac - b^2)
    sqrt(a + 2bt + ct^2)); the primitive is (w x (p-q)) times its value.
    """
    w = np.asarray(x, dtype=float) - np.asarray(p, dtype=float)
    D = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    a = float(np.dot(D, D))
    b = float(np.dot(D, w))
    c = float(np.dot(w, w))
    disc = a * c - b * b  # |D x w|^2
    if disc < 1e-30 * a * max(c, 1e-30):
        return np.zeros(3)
    upper = -(a + b) / (disc * np.sqrt(a + 2 * b + c))
    lower = -a / (disc * np.sqrt(a))
    return np.cross(w, D) * (upper - lower)


def alpha_quadrature(x, p, q, order):
    """Gauss-Legendre route for the radial-gauge primitive.

    (w x (p-q)) times int_0^1 t / |p-q + t w|^3 dt with w = x-p, the
    integral taken with `order` Gauss-Legendre nodes mapped to [0, 1].
    Broadcasts over the leading axes of x.
    """
    w = np.asarray(x, dtype=float) - np.asarray(p, dtype=float)
    D = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (nodes + 1.0)
    seg = D + t[:, None] * w[..., None, :]  # (..., order, 3)
    integral = np.sum(0.5 * weights * t / np.linalg.norm(seg, axis=-1) ** 3, axis=-1)
    return np.cross(w, D) * integral[..., None]


def eta_pq(x, p, q):
    """Recentred Coulomb tail of q seen from p: 1/|x-q| - 1/|p-q|."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dxq = np.linalg.norm(x - q, axis=-1)
    dpq = np.linalg.norm(p - q)
    if dpq == 0.0 or np.any(dxq == 0.0):
        raise SingularEvaluationError("eta_pq evaluated at a singular point")
    return 1.0 / dxq - 1.0 / dpq


def alpha_pq(x, p, q):
    """Radial-gauge primitive of *d(eta_pq) centred at p, one source q.

    (w x D) / (s (|D| s + D.(x-q))) with w = x-p, D = p-q, s = |x-q|: the
    rationalised antiderivative, finite on the line through p and q on the
    ball side.  Broadcasts over the leading axes of x.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    D = p - q
    xq = x - q
    s = np.linalg.norm(xq, axis=-1)
    weight = 1.0 / (s * (np.linalg.norm(D) * s + xq @ D))
    return np.cross(x - p, D) * weight[..., None]


def dirac_evaluator(p, r_res=1.0):
    """Singular abelian pair x (..., 3) -> (a, phi) with Higgs profile r_res - 1/|x-p|."""
    p = np.asarray(p, dtype=float)

    def ev(x):
        w = np.asarray(x, dtype=float) - p
        d = np.linalg.norm(w, axis=-1)
        if np.any(d == 0):
            raise SingularEvaluationError("abelian pair evaluated at its center")
        xhat = w / d[..., None]
        return _hedgehog_form(xhat, 1.0 / d), (r_res - 1.0 / d)[..., None] * xhat

    return ev


def difference_distances(x, points):
    """|x - p| (..., N) for points x (..., 3) from the (..., N, 3) differences."""
    x = np.asarray(x, dtype=float)
    return np.linalg.norm(x[..., None, :] - points, axis=-1)


def shell_coulomb_rows(points):
    """(min separation, sum_q 1/|p-q|, sum_q 1/|p-q|^2 per p) over q != p.

    Taken from the whole (N, N, 3) difference array, its diagonal set to
    infinity so that 1/d vanishes there.
    """
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min()), np.sum(1.0 / dist, axis=1), np.sum(1.0 / dist**2, axis=1)


def multipole_far_field(x, points):
    """1 - N/|x| monopole truncation of the exterior potential."""
    return 1.0 - len(points) / np.linalg.norm(x)


def brute_band_sizes(K):
    """Largest integer strictly below 2K sin(k pi/K), in 50-digit arithmetic.

    The target is exactly an integer when sin(k pi/K) is rational (equator,
    k/K = 1/6 or 5/6), where the strict inequality drops one.
    """
    import mpmath

    mpmath.mp.dps = 50
    out = []
    for k in range(1, K):
        target = 2 * K * mpmath.sin(mpmath.mpf(k) * mpmath.pi / K)
        n = int(mpmath.floor(target))
        if mpmath.almosteq(target, n, abs_eps=mpmath.mpf("1e-40")):
            n -= 1  # exact integer: strictly-below drops to the one beneath
        out.append(n)
    return out
