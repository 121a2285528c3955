import math

import mpmath as mp
import numpy as np
import pytest

from edgejump.quadrature import gauss_legendre

from oracles import gauss_legendre_mp

BITS = 256


def test_one_point_rule_is_midpoint():
    nodes, weights = gauss_legendre(1, -1.0, 1.0)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(2.0, abs=1e-15)


def test_two_point_rule_nodes():
    # moment conditions through degree 3 for a symmetric rule (+-x, w, w):
    # 2w = 2 and 2w x^2 = 2/3 force x = 1/sqrt(3), w = 1
    nodes, weights = gauss_legendre(2, -1.0, 1.0)
    assert nodes[0] == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-15)
    assert nodes[1] == pytest.approx(+1.0 / math.sqrt(3.0), abs=1e-15)
    assert weights[0] == pytest.approx(1.0, abs=1e-15)


def test_exactness_bound_x4():
    # degree 4 <= 2m-1 = 5 for m = 3
    nodes, weights = gauss_legendre(3, -1.0, 1.0)
    val = sum(w * x ** 4 for x, w in zip(nodes, weights))
    assert val == pytest.approx(2.0 / 5.0, abs=5e-16)


def test_weights_sum_to_interval_length_mp():
    _, weights = gauss_legendre_mp(37, mp.mpf("-0.5"), mp.mpf("2.25"), BITS)
    with mp.workprec(BITS):
        total = sum(weights)
        assert abs(total - mp.mpf("2.75")) < mp.mpf(2) ** (8 - BITS) * 3


def test_nodes_strictly_increasing_inside_interval():
    xs, _ = gauss_legendre_mp(25, 0.0, 3.0, BITS)
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert xs[0] > 0 and xs[-1] < 3


def test_random_polynomial_exactness_mp():
    rng = np.random.default_rng(5)
    m = 9
    nodes, weights = gauss_legendre_mp(m, -1.0, 2.0, BITS)
    with mp.workprec(BITS + 10):
        coeffs = [mp.mpf(rng.uniform(-1, 1)) for _ in range(2 * m)]
        val = mp.mpf(0)
        for x, w in zip(nodes, weights):
            px = mp.mpf(0)
            for c in reversed(coeffs):
                px = px * x + c
            val += w * px
        exact = sum(c * (mp.mpf(2) ** (k + 1) - mp.mpf(-1) ** (k + 1)) / (k + 1)
                    for k, c in enumerate(coeffs))
        scale = sum(abs(c) for c in coeffs) * 3
        assert abs(val - exact) <= mp.mpf(2) ** (16 - BITS) * scale


def test_invalid_inputs():
    with pytest.raises(ValueError):
        gauss_legendre(0, -1.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(4, 1.0, -1.0)
