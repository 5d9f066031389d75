"""The one slack of every check specbound makes: rounding in the two computations compared.

``holds`` decides an inequality (an lhs against a bound value) and ``agrees``
an identity (two computations of one quantity); ``HOLDS_REL_TOL`` and
``HOLDS_ABS_TOL`` are the only tolerances either reads. Both act elementwise
and never warn. The absolute part of an agreement is taken at the check's own
scale, the size of the quantities its two sides are computed from, so that a
decision does not change when every input is multiplied by a power of two.
"""

from __future__ import annotations

import numpy as np

# An lhs may exceed a bound value, and two computations of one quantity may
# differ, by this much (relative, plus absolute) before the check fails.
HOLDS_REL_TOL = 1e-9
HOLDS_ABS_TOL = 1e-12

_quiet = np.errstate(over="ignore", divide="ignore", invalid="ignore")


@_quiet
def holds(lhs, value):
    """Whether ``lhs`` stays within the bound ``value`` up to rounding (elementwise): the
    one test of "lhs exceeds bound". An inf value holds every lhs, a NaN none."""
    return lhs <= value * (1 + HOLDS_REL_TOL) + HOLDS_ABS_TOL


@_quiet
def agrees(a, b, scale):
    """Whether ``a`` and ``b`` are one quantity up to rounding (elementwise): the one test
    of an identity. They agree when equal (equal infs and exact zeros too) or when
    |a - b| <= HOLDS_REL_TOL max(|a|, |b|) + HOLDS_ABS_TOL ``scale``, where ``scale`` is
    the size of what both sides are computed from. An inf side, or an inf scale, agrees
    with everything but a NaN: the computation left the float range, and nothing is
    compared; a NaN agrees with nothing.
    """
    a, b = np.asarray(a), np.asarray(b)
    slack = HOLDS_REL_TOL * np.maximum(np.abs(a), np.abs(b)) + HOLDS_ABS_TOL * scale
    return (a == b) | (np.abs(a - b) <= slack)
