"""Single-mode coefficient vectors in layout order, for building test states."""

import numpy as np


def cos_mode(layout, n, amp=1.0):
    """amp * cos nx, 0 <= n <= N (n = 0 is the constant amp)."""
    c = np.zeros(layout.dim)
    c[n] = amp
    return c


def sin_mode(layout, m, amp=1.0):
    """amp * sin mx, 1 <= m <= N+1."""
    c = np.zeros(layout.dim)
    c[layout.N + m] = amp
    return c
