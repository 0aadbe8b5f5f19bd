"""Independent reference formulas that the tests compare the solvers with."""

from __future__ import annotations

import math

from butterfree.errors import DomainError
from butterfree.fukasawa import g_pm


def threshold_rho0_closed_form(b: float) -> float:
    """Closed form of the threshold on the symmetric axis rho = 0.

    Valid for 0 < b < 2: the critical point solves a cubic whose relevant
    root is l = -6b/sqrt((b^2-4)(b^2-16)), and the threshold is b*g_minus
    there.  Serves as an independent check of the root-finding route.
    """
    if not 0.0 < b < 2.0:
        raise DomainError(f"closed form requires 0 < b < 2, got b={b}")
    disc = (b * b - 4.0) * (b * b - 16.0)
    l_hat = -6.0 * b / math.sqrt(disc)
    return b * g_pm(b, 0.0, l_hat, "-")
