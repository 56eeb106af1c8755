"""The integer kernel against direct polynomial arithmetic."""

import random

from tatek import _kernel
from tatek._kernel import BACKEND, convolve, monic_rem


def _evaluate(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


def _random_poly(rng, max_len, bound):
    return [rng.randint(-bound, bound) for _ in range(rng.randint(1, max_len))]


def test_convolve_is_the_polynomial_product():
    rng = random.Random(0)
    for _ in range(200):
        a = _random_poly(rng, 12, 10**12)
        b = _random_poly(rng, 12, 10**12)
        c = convolve(a, b)
        assert len(c) == len(a) + len(b) - 1
        for x in (-1, 2, 3, 10**6):
            assert _evaluate(c, x) == _evaluate(a, x) * _evaluate(b, x)
        for size in range(1, len(a) + len(b) + 2):
            assert convolve(a, b, size) == c[:size]


def test_monic_rem_recovers_the_remainder():
    rng = random.Random(1)
    for _ in range(200):
        f = _random_poly(rng, 6, 5) + [1]
        q = _random_poly(rng, 8, 10**6)
        r = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, len(f) - 1))]
        c = convolve(q, f)
        for i, ri in enumerate(r):
            c[i] += ri
        assert monic_rem(c, f) == r + [0] * (len(f) - 1 - len(r))


def test_arbitrary_precision_survives():
    big = 10 ** 60
    assert convolve([big], [big]) == [big * big]
    assert monic_rem([0, 0, big * big], [1, 0, 1]) == [-big * big, 0]


def test_backend_is_reported():
    # perfbench stamps BACKEND and wraps these two functions by name
    assert BACKEND == "pure"
    assert _kernel.convolve is convolve and _kernel.monic_rem is monic_rem
    assert set(_kernel.__all__) == {"convolve", "monic_rem", "BACKEND"}
