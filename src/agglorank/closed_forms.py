"""Exact closed forms for agglomeration and importance on the four families.

Each importance formula is only established on a restricted parameter range
(enough nodes that every role class is populated and each contraction lands
back in a known family); outside that range these functions raise rather than
extrapolate, and the contraction engine remains the authority.

The double-comet importance has two independent implementations: the default
one composes the family agglomeration values of the contracted graph (one
contraction step expressed analytically), while the ``_condensed`` variant is
a direct transcription of the fully expanded piecewise polynomials.  Keeping
both and asserting they agree guards against transcription slips in either.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FormulaDomainError
from .families import NodeClass


def phi_path(n: int) -> Fraction:
    """Agglomeration of the n-node path: 3 / (n(n+1))."""
    if n < 2:
        raise FormulaDomainError(f"phi_path requires n >= 2, got n={n}")
    return Fraction(3, n * (n + 1))


def imc_path(n: int, node_class: NodeClass) -> Fraction:
    """Importance of a path node by role; established for n > 3."""
    if n <= 3:
        raise FormulaDomainError(f"imc_path requires n > 3, got n={n}")
    if node_class is NodeClass.PATH_END:
        return Fraction(2, n + 1)
    if node_class is NodeClass.PATH_INNER:
        return Fraction(2 * (2 * n - 1), n * (n + 1))
    raise FormulaDomainError(f"{node_class.value} is not a path node class")


def _comet_denominator(s: int, t: int) -> int:
    return t * (t + 1) * (t + 3 * s - 1) + 6 * s * (s - 1)


def phi_comet(s: int, t: int) -> Fraction:
    """Agglomeration of the comet with s star leaves and a handle of t nodes."""
    if s < 1 or t < 1:
        raise FormulaDomainError(f"phi_comet requires s >= 1 and t >= 1, got s={s} t={t}")
    return Fraction(3 * (s + t - 1), _comet_denominator(s, t))


def imc_comet(s: int, t: int, node_class: NodeClass) -> Fraction:
    """Importance of a comet node by role; established for s > 2, t > 3."""
    if s <= 2 or t <= 3:
        raise FormulaDomainError(f"imc_comet requires s > 2 and t > 3, got s={s} t={t}")
    den = _comet_denominator(s, t)
    if node_class is NodeClass.COMET_PATH_END:
        num = 2 * t * (3 * s * s - 6 * s + 3 * s * t - 3 * t + t * t + 2) - 6 * s * (s - 1)
        return Fraction(num, den * (s + t - 2))
    if node_class is NodeClass.COMET_PATH_INNER:
        num = (
            12 * s * t * (s + t - 3)
            + 2 * t * (2 * t - 5) * (t - 2)
            - 6 * (3 * s - 1) * (s - 1)
        )
        return Fraction(num, (s + t - 3) * den)
    if node_class is NodeClass.COMET_CENTER:
        num = 2 * (t * (s * (t + 2) + t - 1) + 3 * s * (s - 1))
        return Fraction(num, den)
    if node_class is NodeClass.COMET_STAR_LEAF:
        num = 2 * t * (t * t + 6 * s - 7) + 6 * (s - 1) * (s - 2)
        return Fraction(num, (s + t - 2) * den)
    raise FormulaDomainError(f"{node_class.value} is not a comet node class")


def phi_double_comet(n: int, a: int, b: int) -> Fraction:
    """Agglomeration of the double comet: n nodes, a and b pendants on the ends."""
    k = n - a - b
    if a < 1 or b < 1 or k < 2:
        raise FormulaDomainError(
            f"phi_double_comet requires a, b >= 1 and n - a - b >= 2, got n={n} a={a} b={b}"
        )
    den = (k + 1) * (k * (n - a + 2 * b - 1) + 3 * a * (n - a + b)) + 6 * (
        b * (b - 1) + a * (a - 1)
    )
    return Fraction(3 * (n - 1), den)


def _check_dc_domain(n: int, a: int, b: int) -> int:
    k = n - a - b
    if a < 2 or b < 2 or k < 4:
        raise FormulaDomainError(
            f"double-comet importance requires a, b >= 2 and n - a - b >= 4, "
            f"got n={n} a={a} b={b}"
        )
    return k


def imc_double_comet(n: int, a: int, b: int, node_class: NodeClass) -> Fraction:
    """Importance of a double-comet node by role; established for a, b >= 2
    and a connecting path of at least 4 nodes.

    Computed as one analytic contraction step: 1 - phi(G)/phi(contracted),
    where the contracted graph is again a double comet (pendants, inner path
    nodes) or a comet (the two path ends).
    """
    k = _check_dc_domain(n, a, b)
    base = phi_double_comet(n, a, b)
    if node_class is NodeClass.DC_LEAF_A:
        other = phi_double_comet(n - 1, a - 1, b)
    elif node_class is NodeClass.DC_LEAF_B:
        other = phi_double_comet(n - 1, a, b - 1)
    elif node_class is NodeClass.DC_END_A:
        other = phi_comet(b, k - 1)
    elif node_class is NodeClass.DC_END_B:
        other = phi_comet(a, k - 1)
    elif node_class is NodeClass.DC_INNER:
        other = phi_double_comet(n - 2, a, b)
    else:
        raise FormulaDomainError(f"{node_class.value} is not a double-comet node class")
    return 1 - base / other


def imc_double_comet_condensed(n: int, a: int, b: int, node_class: NodeClass) -> Fraction:
    """Expanded-polynomial form of imc_double_comet; must agree with it exactly."""
    k = _check_dc_domain(n, a, b)
    r = n - a + 2 * b - 1
    p = n - a + b
    core = (k + 1) * (k * r + 3 * a * p)
    den = core + 6 * (b * (b - 1) + a * (a - 1))
    if node_class is NodeClass.DC_LEAF_A:
        num = (-k - 1) * (k * r - 3 * p * (n - a - 1)) - 6 * (
            b * (b - 1) - (a - 1) * (2 * n - a - 2)
        )
        return Fraction(num, (n - 2) * den)
    if node_class is NodeClass.DC_LEAF_B:
        num = (k + 1) * (k * (2 * n + a - 2 * b - 2) + 3 * a * (a - b + n - 2)) + 6 * (
            (b - 1) * (-b + 2 * n - 2) - a * (a - 1)
        )
        return Fraction(num, (n - 2) * den)
    if node_class is NodeClass.DC_END_A:
        num = (
            (n - a - 2) * core
            + 6 * ((n - a - 2) * a * (a - 1) - (a + 1) * b * (b - 1))
            - (n - 1) * (k - 1) * k * (r - 1)
        )
        return Fraction(num, (n - a - 2) * den)
    if node_class is NodeClass.DC_END_B:
        num = (
            (n - b - 2) * (core + 6 * b * (b - 1))
            - (n - 1) * (k - 1) * k * (n + 2 * a - b - 2)
            - (b + 1) * 6 * a * (a - 1)
        )
        return Fraction(num, (n - b - 2) * den)
    if node_class is NodeClass.DC_INNER:
        num = (
            (n - 3) * core
            - (n - 1) * (k - 1) * ((k - 2) * (r - 2) + 3 * a * (p - 2))
            - 12 * (b * (b - 1) + a * (a - 1))
        )
        return Fraction(num, (n - 3) * den)
    raise FormulaDomainError(f"{node_class.value} is not a double-comet node class")


def phi_lollipop(n: int, d: int) -> Fraction:
    """Agglomeration of the lollipop: clique on n-d nodes with a d-node tail."""
    if d < 2 or n - d < 1:
        raise FormulaDomainError(
            f"phi_lollipop requires d >= 2 and n - d >= 1, got n={n} d={d}"
        )
    return Fraction(3 * (n - 1), 3 * (n - d) * (d * d - 1 + n) + d * (d * d - 1))


def imc_lollipop(n: int, d: int, node_class: NodeClass) -> Fraction:
    """Importance of a lollipop node by role; established for d > 3, n - d > 1."""
    if d <= 3 or n - d <= 1:
        raise FormulaDomainError(
            f"imc_lollipop requires d > 3 and n - d > 1, got n={n} d={d}"
        )
    den = 3 * (n - d) * (d * d - 1 + n) + d * (d * d - 1)
    if node_class is NodeClass.LP_PATH_END:
        num = 3 * (n - d) * ((n - 1) * (2 * d - 1) - d * d) + d * (d - 1) * (3 * n - d - 4)
        return Fraction(num, (n - 2) * den)
    if node_class is NodeClass.LP_PATH_INNER:
        num = 6 * (n - d) * (2 * (d - 1) * (n - 1) - d * d) + 2 * (d - 1) * (
            3 * (d - 1) * (n - 1) - d * (d + 1)
        )
        return Fraction(num, (n - 3) * den)
    if node_class is NodeClass.LP_JUNCTION:
        num = 3 * (n - d) * (d * d - 1 + n) + d * (d - 1) * (d - n + 2)
        return Fraction(num, den)
    if node_class is NodeClass.LP_CLIQUE:
        num = (n - d) * (d * (2 * d - 1) + 3 * (n - 1))
        return Fraction(num, den)
    raise FormulaDomainError(f"{node_class.value} is not a lollipop node class")
