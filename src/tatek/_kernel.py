"""Arithmetic kernel: integer-coefficient convolution and monic remainder.

These two loops sit under every cyclotomic multiplication and hence under
all series arithmetic. Plain Python ints throughout, so there is no
overflow anywhere.
"""

#: Kernel implementation name; `perfbench/run.py` stamps it on every run.
BACKEND = "pure"


def convolve(a, b, size=None):
    """The first min(size, len(a) + len(b) - 1) coefficients, all of them
    when size is None, of the product of two integer coefficient lists
    (dense, ascending degree); products beyond them are never formed."""
    n = len(a) + len(b) - 1
    if size is not None and size < n:
        n = size
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for k, bj in enumerate(b[:n - i], i):
                if bj:
                    out[k] += ai * bj
    return out


def monic_rem(c, f):
    """Remainder of the polynomial ``c`` modulo the monic polynomial ``f``.

    Both are integer coefficient lists, ascending degree, ``f[-1] == 1``.
    Returns a list of length ``len(f) - 1`` (zero-padded).
    """
    deg_f = len(f) - 1
    r = list(c)
    for k in range(len(r) - 1, deg_f - 1, -1):
        t = r[k]
        if t:
            r[k] = 0
            base = k - deg_f
            for i in range(deg_f):
                fi = f[i]
                if fi:
                    r[base + i] -= t * fi
    del r[deg_f:]
    r.extend([0] * (deg_f - len(r)))
    return r


__all__ = ["convolve", "monic_rem", "BACKEND"]
