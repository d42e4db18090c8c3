"""Closed-form smooth-core hedgehog monopole pair.

The core solution has Higgs profile r*coth(r|x-p|) - 1/|x-p| (finite
everywhere, single non-degenerate zero at the center); it is stored as
coefficient tables relative to the product connection.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .shell import InvalidParameterError, _check_positive
from .su2 import eps_table

# Below this argument the profiles are summed from their Taylor series.
# Above it the direct formulas lose at most a factor ~15 to cancellation
# (< 4e-15 relative against 40-digit arithmetic); below it the series,
# truncated after 12 terms, is exact to rounding since (0.5/pi)^24 < 1e-19.
SERIES_CUTOFF = 0.5
# Above this argument 1/sinh underflows safely via 2*exp(-s).
LARGE_CUTOFF = 350.0


class SingularEvaluationError(ValueError):
    """Field evaluated at a point where it is not defined."""


@dataclass(frozen=True)
class ScaledMonopole:
    """A smooth core placed at `center` with asymptotic Higgs residue `scale`."""

    center: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not np.isfinite(self.center).all():
            raise InvalidParameterError(f"center must be finite, got {self.center!r}")
        _check_positive(scale=self.scale)


# Bernoulli numbers B_2, B_4, ..., B_24 as (numerator, denominator).
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730),
)
# coth(s) - 1/s = sum_n 2^2n B_2n s^(2n-1) / (2n)! and
# 1/s - 1/sinh(s) = sum_n (2^2n - 2) B_2n s^(2n-1) / (2n)!, n >= 1; the
# integer quotients round once, to the nearest double.
_COTH_SERIES = np.array(
    [4**n * a / (b * factorial(2 * n)) for n, (a, b) in enumerate(_BERNOULLI, 1)]
)
_CSCH_SERIES = np.array(
    [(4**n - 2) * a / (b * factorial(2 * n)) for n, (a, b) in enumerate(_BERNOULLI, 1)]
)


def _odd_series(z, coeffs):
    """z * sum_n coeffs[n] z^(2n), by Horner's rule in z^2.

    In place, each step c * z^2 + coeffs[n] over all the points at once:
    `np.polynomial.polynomial.polyval`'s association for finite z, without
    its per-call conversions and its (len(coeffs), 1) coefficient column.
    """
    if z.size == 0:  # no argument in the series branch
        return z
    z2 = z * z
    acc = np.full(z.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= z2
        acc += c
    return z * acc


def coth_minus_inv(s):
    """coth(s) - 1/s, stable for all s >= 0 (vanishes like s/3 at 0)."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = s < SERIES_CUTOFF
    out[small] = _odd_series(s[small], _COTH_SERIES)
    z = s[~small]
    out[~small] = 1.0 / np.tanh(z) - 1.0 / z
    return out if out.ndim else float(out)


def inv_minus_csch(s):
    """1/s - 1/sinh(s), stable for all s >= 0 (vanishes like s/6 at 0)."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = s < SERIES_CUTOFF
    large = s > LARGE_CUTOFF
    mid = ~small & ~large
    out[small] = _odd_series(s[small], _CSCH_SERIES)
    z = s[mid]
    out[mid] = 1.0 / z - 1.0 / np.sinh(z)
    z = s[large]
    out[large] = 1.0 / z - 2.0 * np.exp(-z)
    return out if out.ndim else float(out)


def _hedgehog_form(xhat, coeff):
    """coeff * eps_{ijk} xhat_i on dx_j sigma_k/2, batched over leading axes."""
    return eps_table(np.asarray(coeff)[..., None] * xhat)


def ps_pair_batch(x, mono):
    """Smooth-core pair at points x (..., 3).  Returns (a, phi) tables."""
    w = np.asarray(x, dtype=float) - mono.center
    d = np.linalg.norm(w, axis=-1)
    r = mono.scale
    safe = np.where(d > 0, d, 1.0)
    xhat = w / safe[..., None]
    # Removable singularity: both profiles vanish linearly at the center.
    zero = d == 0
    a = _hedgehog_form(xhat, np.where(zero, 0.0, r * inv_minus_csch(r * d)))
    phi = np.where(zero, 0.0, ps_higgs_norm(d, r))[..., None] * xhat
    return a, phi


def ps_higgs_norm(d, r):
    """|Higgs| of the smooth core at distance d from the center."""
    return r * coth_minus_inv(r * np.asarray(d, dtype=float))


def ps_evaluator(mono):
    """Pair evaluator x -> (a, phi) for finite-difference work."""

    def ev(x):
        return ps_pair_batch(x, mono)

    return ev
