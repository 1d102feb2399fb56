"""Products and powers of systems."""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..metric_core.space import FiniteMetricSpace, product_chain, product_codes
from .base import DynamicalSystem

# bounds a product's N x N tables: its level codes and one per d_n, one or two
# bytes a pair, and the 200 MB float table of a caller that reads it whole
PRODUCT_CAP = 5_000


def product_system(a: DynamicalSystem, b: DynamicalSystem) -> DynamicalSystem:
    """Product dynamics under the coordinate-max metric: a partition chain
    refined from the factors' chains when both have one (``product_chain``),
    else level codes combined from the factors' codes (``product_codes``)."""
    na, nb = a.space.size, b.space.size
    if na * nb > PRODUCT_CAP:
        raise ParameterError(f"product of {na}x{nb} points exceeds cap {PRODUCT_CAP}")
    name = f"({a.name})x({b.name})"
    if a.space.chain is not None and b.space.chain is not None:
        space = FiniteMetricSpace.from_chain(*product_chain(a.space, b.space), name=name)
    else:
        space = FiniteMetricSpace.from_codes(
            *product_codes(a.space.level_codes(), b.space.level_codes(), np.maximum),
            name=name)
    # point i * nb + j is the pair (i, j)
    step = (a.step[:, None] * nb + b.step[None, :]).ravel()
    meta = {"omega_full": a.meta.get("omega_full", False) and b.meta.get("omega_full", False)}
    return DynamicalSystem(space, step, min(a.horizon_cap, b.horizon_cap),
                           name=space.name, meta=meta)


def power_system(sys: DynamicalSystem, exponent: int) -> DynamicalSystem:
    """The system iterating ``exponent`` steps per application."""
    if exponent < 1:
        raise ParameterError("power exponent must be >= 1")
    step = sys.step
    for _ in range(exponent - 1):
        step = sys.step[step]
    return DynamicalSystem(sys.space, step, (sys.horizon_cap - 1) // exponent + 1,
                           name=f"{sys.name}^{exponent}",
                           meta=dict(sys.meta))
