"""Composite Simpson quadrature of sampled data, with numpy alone.

This is the rule of ``scipy.integrate.simpson(y, x=x)`` since scipy 1.11,
with the floating-point operations grouped as scipy groups them, so the two
agree bit for bit on a strictly increasing grid (``tests/test_simpson.py``):

* an odd number of samples: Simpson's rule on consecutive pairs of
  intervals, in the form that lets the two spacings of a pair differ;
* an even number: the same rule on all but the last interval, which gets
  Cartwright's three-point correction;
* two samples: the trapezoid.

Rows of samples, a 2-D ``y``, are integrated along the last axis in one pass,
each row to the bits of its own integral.

Importing ``scipy.integrate`` takes far longer than any integral here.
"""
from __future__ import annotations

import numpy as np


def simpson(y: np.ndarray, x: np.ndarray):
    """Integral of the samples ``y`` taken at the strictly increasing points ``x``.

    A float for one row of samples; for rows ``y`` of shape (r, len(x)), the r
    integrals as an array, each with the bits of its row's own integral.
    """
    n = y.shape[-1]
    if n < 3:
        out = 0.5 * (x[-1] - x[0]) * (y[..., -1] + y[..., 0]) if n == 2 else np.zeros(y.shape[:-1])
        return float(out) if y.ndim == 1 else out
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum, ratio = h0 + h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[..., 0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[..., 1 : stop + 1 : 2] * (hsum * (hsum / (h0 * h1)))
                                  + y[..., 2 : stop + 2 : 2] * (2.0 - ratio)), axis=-1)
    if n % 2 == 0:
        # numpy's array power and Python's float pow can round h1**3 differently;
        # scipy raises arrays to these powers, so h0 and h1 stay arrays here
        h0, h1 = h[-2:, None]
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        result = result + (alpha * y[..., -1:] + beta * y[..., -2:-1] - eta * y[..., -3:-2])[..., 0]
    return float(result) if y.ndim == 1 else result
