"""Gamma-function primitives: log-gamma, digamma, the regularized
incomplete gamma pair and its inverses.

These are the innermost kernels of the package, all on scipy.special.
The inverses are scipy's gammainccinv/gammaincinv, which implement
DiDonato & Morris (ACM TOMS 12, 1986) and keep relative accuracy in
both tails. The scalar forms validate their arguments and return
floats; the unvalidated elementwise forms serve the quadrature node
maps, which keep their arguments in range themselves.

A root below double range comes back as 0 or a subnormal number. The
callers that need such roots take them in log space instead (see
GammaRatioDist._x_from_root).
"""

from scipy import special

__all__ = [
    "log_gamma",
    "digamma",
    "reg_upper_gamma",
    "reg_lower_gamma",
    "inv_reg_upper_gamma",
    "inv_reg_lower_gamma",
]


def log_gamma(a):
    """ln Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return float(special.gammaln(a))


def digamma(a):
    """d/da ln Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"digamma requires a > 0, got {a}")
    return float(special.psi(a))


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a).

    Q(a, 0) = 1 and Q decreases to 0 as x grows; Q + P = 1 with
    reg_lower_gamma.
    """
    if not a > 0.0:
        raise ValueError(f"reg_upper_gamma requires a > 0, got {a}")
    if not x >= 0.0:
        raise ValueError(f"reg_upper_gamma requires x >= 0, got {x}")
    return float(special.gammaincc(a, x))


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) = 1 - Q(a, x)."""
    if not a > 0.0:
        raise ValueError(f"reg_lower_gamma requires a > 0, got {a}")
    if not x >= 0.0:
        raise ValueError(f"reg_lower_gamma requires x >= 0, got {x}")
    return float(special.gammainc(a, x))


def inv_reg_upper_gamma(a, p):
    """Solve Q(a, x) = p for x, with 0 < p <= 1; returns 0.0 when p == 1.

    Q(a, x) = Gamma(a, x)/Gamma(a) is the regularized upper incomplete
    gamma function.
    """
    if not a > 0.0:
        raise ValueError(f"inv_reg_upper_gamma requires a > 0, got {a}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"inv_reg_upper_gamma requires 0 < p <= 1, got {p}")
    return float(special.gammainccinv(a, p))


def inv_reg_lower_gamma(a, s):
    """Solve P(a, x) = s for x, with 0 <= s < 1; returns 0.0 when s == 0.

    P = 1 - Q is the regularized lower incomplete gamma function. Small
    s keeps relative accuracy, so upper-tail quantiles do too.
    """
    if not a > 0.0:
        raise ValueError(f"inv_reg_lower_gamma requires a > 0, got {a}")
    if not (0.0 <= s < 1.0):
        raise ValueError(f"inv_reg_lower_gamma requires 0 <= s < 1, got {s}")
    return float(special.gammaincinv(a, s))


_inv_reg_upper_gamma_vec = special.gammainccinv
_inv_reg_lower_gamma_vec = special.gammaincinv
