"""Exact polynomials in q and the standard q-analogs.

Coefficients are ``fractions.Fraction`` so probability-weighted polynomials
stay exact.  q-binomials are built by the q-Pascal recurrence, which keeps
everything in the polynomial ring (no division ever happens).
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from .permutations import Immutable


class QPolynomial(Immutable):
    """Polynomial in q with exact rational coefficients.

    The coefficient tuple is trimmed of trailing zeros, so equality is
    structural equality of values.

    >>> q = QPolynomial.q()
    >>> (1 + q) * (1 + q)
    QPolynomial([1, 2, 1])
    >>> 1 + q + q * q
    QPolynomial([1, 1, 1])
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def q(cls, power: int = 1) -> "QPolynomial":
        return cls([0] * power + [1])

    @classmethod
    def constant(cls, value: Rational) -> "QPolynomial":
        return cls((Fraction(value),))

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __add__(self, other) -> "QPolynomial":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPolynomial(
            [x + y for x, y in zip(a, b)] + list(a[len(b):])
        )

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "QPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "QPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "QPolynomial":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return QPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.constant(other)
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, q_value: Rational) -> Fraction:
        """Evaluate at a rational point, exactly."""
        value = Fraction(0)
        for c in reversed(self.coeffs):
            value = value * q_value + c
        return value

    def derivative(self) -> "QPolynomial":
        """Formal derivative d/dq."""
        return QPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __repr__(self) -> str:
        pretty = [c if c.denominator != 1 else c.numerator for c in self.coeffs]
        return f"QPolynomial({pretty})"


def _coerce(value) -> QPolynomial:
    if isinstance(value, QPolynomial):
        return value
    return QPolynomial.constant(value)


@lru_cache(maxsize=None)
def q_binomial(m: int, k: int) -> QPolynomial:
    """Gaussian binomial [m choose k], via the q-Pascal recurrence.

    >>> q_binomial(2, 1)
    QPolynomial([1, 1])
    """
    if k < 0 or k > m:
        return QPolynomial.zero()
    if k == 0 or k == m:
        return QPolynomial.one()
    return q_binomial(m - 1, k - 1) + QPolynomial.q(k) * q_binomial(m - 1, k)


def q_multinomial(n: int, parts: Iterable[int]) -> QPolynomial:
    """[n]! / ([b1]! ... [ba]!) as an exact polynomial.

    Zero parts are legal ([0]! = 1).  Evaluating at q = 1 recovers the
    ordinary multinomial coefficient.

    >>> q_multinomial(3, (1, 2))
    QPolynomial([1, 1, 1])
    """
    parts = tuple(parts)
    if any(b < 0 for b in parts):
        raise ValueError(f"negative part in {parts}")
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to n={n}")
    # Telescoping product of q-binomials: [B_i choose b_i] over prefixes B_i.
    result = QPolynomial.one()
    prefix = 0
    for b in parts:
        prefix += b
        result = result * q_binomial(prefix, b)
    return result


if __name__ == "__main__":
    import doctest

    doctest.testmod()
