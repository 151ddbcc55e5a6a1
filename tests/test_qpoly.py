from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riffle.qpoly import QPolynomial, q_binomial, q_multinomial

small_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=5
).map(QPolynomial)


def test_trailing_zeros_trimmed():
    assert QPolynomial([1, 2, 0, 0]) == QPolynomial([1, 2])
    assert QPolynomial([0, 0]).degree() == -1


def test_basic_arithmetic():
    q = QPolynomial.q()
    assert (1 + q) * (1 - q) == QPolynomial([1, 0, -1])
    assert (1 + q) - (1 + q) == QPolynomial.zero()
    assert QPolynomial([Fraction(1, 2)]) * 2 == QPolynomial.one()


def test_evaluation_and_derivative():
    poly = QPolynomial([1, 2, 3])  # 1 + 2q + 3q^2
    assert poly(2) == 17
    assert poly(Fraction(1, 2)) == Fraction(11, 4)
    assert poly.derivative() == QPolynomial([2, 6])


@given(small_polys, small_polys, small_polys)
@settings(max_examples=100)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("n", range(12))
def test_q_factorial_is_the_multinomial_of_ones(n):
    # [n]! = [1][2]...[n], with [i] = 1 + q + ... + q^(i-1)
    product = QPolynomial.one()
    for i in range(1, n + 1):
        product = product * QPolynomial([1] * i)
    assert q_multinomial(n, (1,) * n) == product


@pytest.mark.parametrize("m", range(9))
def test_q_binomial_multiplies_back_to_factorial(m):
    # [m choose k] [k]! [m-k]! == [m]! -- the defining ratio, with no division
    for k in range(m + 1):
        product = q_binomial(m, k) * q_multinomial(k, (1,) * k)
        assert product * q_multinomial(m - k, (1,) * (m - k)) == q_multinomial(m, (1,) * m)


def test_q_binomial_out_of_range_is_zero():
    assert q_binomial(3, -1) == QPolynomial.zero()
    assert q_binomial(3, 4) == QPolynomial.zero()


def test_q_multinomial_examples():
    assert q_multinomial(2, (1, 1)) == QPolynomial([1, 1])
    assert q_multinomial(3, (1, 2)) == QPolynomial([1, 1, 1])
    assert q_multinomial(5, (5,)) == QPolynomial.one()
    assert q_multinomial(4, (2, 0, 2)) == q_multinomial(4, (2, 2))


def test_q_multinomial_multiplies_back_to_factorial():
    for parts in [(2, 3), (1, 1, 2), (0, 4), (2, 2, 2)]:
        n = sum(parts)
        product = q_multinomial(n, parts)
        for b in parts:
            product = product * q_multinomial(b, (1,) * b)
        assert product == q_multinomial(n, (1,) * n)


def test_q_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        q_multinomial(3, (1, 1))
    with pytest.raises(ValueError):
        q_multinomial(1, (2, -1))
