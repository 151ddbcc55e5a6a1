"""Cycle, fixed-point, inversion, and descent statistics of biased shuffles.

Everything here is exact: generating functions are expanded as truncated
series with integer coefficients, divided once at the end, and moments at
q = 1 or x = 1 are formal polynomial derivatives, never finite differences.
Each closed form has a companion that reads the same statistic off an
exact distribution, so the two can be compared coefficient by coefficient.

The cycle, fixed-point and inversion series depend on the bias only
through its power sums P_e(p) = sum_i p_i^e.  A k-fold shuffle is a single
shuffle with the tensored bias, whose power sums are P_e(p)^k, so each
series kernel takes k and never builds the a^k tensored letters.  The
cycle and inversion series share one integer kernel, ``_exp_integers``.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

from .permutations import (
    MAX_CACHED_N,
    Immutable,
    _mobius_divisors,
    _partition_numbers,
    check_budget,
    check_size,
    cycle_type,
    cycle_type_key,
    inversions,
    weak_compositions,
)
from .shuffles import (
    MAX_SWEEP_CELLS,
    ExactDistribution,
    ShuffleSpec,
    _bucket_sums,
    _check_total,
    _content_mass,
    _power_sums,
    validate_bias,
)

CycleTypeKey = tuple[tuple[int, int], ...]


class CyclePolynomial(Immutable):
    """Joint probability generating function of the cycle counts N_1..N_n.

    ``terms`` maps a canonical cycle-type key ((length, count), ...) to the
    probability of that cycle type; the coefficients are non-negative and
    sum to 1.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[CycleTypeKey, Fraction]):
        clean = {key: Fraction(c) for key, c in terms.items() if c}
        if any(c < 0 for c in clean.values()):
            raise ValueError("negative coefficient")
        for key in clean:
            if sum(length * count for length, count in key) != n:
                raise ValueError(f"cycle type {key} does not weigh n={n}")
        if _bucket_sums(itertools.repeat(None), clean.values()).get(None) != 1:
            raise ValueError("coefficients do not sum to 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def coefficient(self, counts: dict[int, int]) -> Fraction:
        """Probability of the cycle type given as {length: count}."""
        return self.terms.get(cycle_type_key(counts), Fraction(0))

    def expected_count(self, length: int) -> Fraction:
        """E[N_length], read off the coefficients."""
        total = Fraction(0)
        for key, c in self.terms.items():
            for clen, count in key:
                if clen == length:
                    total += c * count
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclePolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"CyclePolynomial(n={self.n}, types={len(self.terms)})"


def cycle_structure_pgf(n: int, bias, k: int = 1) -> CyclePolynomial:
    """Expand the product formula for the joint cycle-count PGF to order n.

    The generating function over all deck sizes is a product, over cycle
    lengths i and letter contents r of size i, of geometric factors

        (1 - p^r u^i x_i) ^ (-M(r))

    with M(r) the primitive-necklace count of content r.  The contents of
    one size i are taken together: with t = u^i x_i their product is

        exp( sum_{m >= 1} t^m / m * L_i(p^m) ),
        L_i(q) = (1/i) sum_{d | i} mu(d) P_d(q)^(i/d),

    where L_i is the weighted count of primitive necklaces of length i and
    P_d(q) = sum_j q_j^d.  At q = p^m this is the power sum P_{dm}(p), so
    only n power sums are needed (P_e(p)^k for k shuffles), whatever a.
    With P_e = N_e / D^e (see _power_sums) and lambda = i D^i, the factor is
    exp(sum_m a_m (t/lambda)^m / m) with integers a_m = lambda^m L_i(p^m) =
    i^(m-1) sum_{d | i} mu(d) N_{dm}^(i/d), whose t^s coefficients times
    s! lambda^s are ``_exp_integers`` at width 1.  Collecting their integer
    products over the n factors, one state per cycle type, and dividing
    each once by z D^n (z = prod_i s_i! i^s_i) gives the n-card PGF.

    The table holds one state per partition of each m <= n and is copied
    once per cycle length, so its work is n * (p(0) + ... + p(n)) cells,
    p the partition numbers.  That is refused over
    ``shuffles.MAX_SWEEP_CELLS`` (n > 33) before any power sum is taken;
    the sum stops once it is over, so a huge n is refused at once.  Each
    state is also reached by one product of integers, which grow with the
    denominator of P_n^k, so the cells plus those products, each weighed by
    the machine digits (``sys.int_info``) of that denominator, are refused
    over the same budget once the power sums are taken and before the table
    is built.

    >>> half = Fraction(1, 2)
    >>> cycle_structure_pgf(3, (half, half)).coefficient({3: 1})
    Fraction(1, 4)
    """
    bias = validate_bias(bias)
    check_size(n, k=k)
    cells = states = 0
    for m, p in zip(range(n + 1), _partition_numbers()):
        cells += n * p
        states += p
        check_budget(f"cycle-type table of {n} * (p(0) + ... + p({n})) cells (the terms to "
                     f"p({m}) give {cells})", cells, MAX_SWEEP_CELLS, "cells")
    sums, scale = _power_sums(bias, n, k)
    den = scale**n
    bits = (den // math.gcd(sums[n], den)).bit_length()
    words = -(-bits // sys.int_info.bits_per_digit)
    check_budget(f"cycle-type table of {cells} cells plus {states} coefficient products of "
                 f"{words} machine digits each (P_{n}^{k} has a {bits}-bit denominator), "
                 f"{cells + states * words} cells in all,", cells + states * words,
                 MAX_SWEEP_CELLS, "cells")
    # state: (u-degree, cycle-type counter as sorted tuple) -> integer product
    state: dict[tuple[int, CycleTypeKey], int] = {(0, ()): 1}
    for i in range(1, n + 1):
        mobius = _mobius_divisors(i)  # a[m] = lambda^m L_i(p^m), lambda = i D^i
        a = [0] + [i ** (m - 1) * sum(mu * sums[d * m] ** (i // d) for d, mu in mobius)
                   for m in range(1, n // i + 1)]
        expo = [f for f, in _exp_integers(a, n // i, 1)]  # s! lambda^s [t^s] of the factor
        new_state = dict(state)
        for (deg, key), coeff in state.items():
            for s in range(1, (n - deg) // i + 1):
                if expo[s]:
                    # lengths come in increasing order, so the key stays sorted
                    slot = (deg + i * s, key + ((i, s),))
                    new_state[slot] = new_state.get(slot, 0) + coeff * expo[s]
        state = new_state

    terms = {key: Fraction(c, den * math.prod(math.factorial(s) * i**s for i, s in key))
             for (deg, key), c in state.items() if deg == n}
    return CyclePolynomial(n, terms)


def cycle_pgf_from_distribution(dist: ExactDistribution) -> CyclePolynomial:
    """The same joint PGF read directly off an exact distribution."""
    masses = dist.masses
    keys = (cycle_type_key(cycle_type(perm)) for perm in masses)
    return CyclePolynomial(dist.n, _bucket_sums(keys, masses.values()))


def expected_fixed_points(spec: ShuffleSpec) -> Fraction:
    """Exact expected number of fixed points after k biased shuffles:

        sum_{j=1..n} (p_1^j + ... + p_a^j)^k
    """
    n = spec.n
    sums, scale = _power_sums(spec.bias, n, spec.k)
    return Fraction(sum(sums[j] * scale ** (n - j) for j in range(1, n + 1)), scale**n)


def fixed_point_pgf(n: int, bias, k: int = 1) -> tuple[Fraction, ...]:
    """PGF of the fixed-point count after k shuffles; entry m is P(N_1 = m).

    Fixed points are 1-cycles, so this is the N_1 marginal of
    cycle_structure_pgf, and is refused where that is (n > 33, or fewer
    cards with long power sums): the y^n
    coefficient of 1/(1-y) * prod_i (1 - p_i y) / (1 - p_i x y) over the
    tensored letters.
    """
    terms = cycle_structure_pgf(n, bias, k).terms
    return _coefficients(n + 1, (dict(key).get(1, 0) for key in terms), terms.values())


def _coefficients(size: int, degrees, masses) -> tuple[Fraction, ...]:
    """The ``size`` coefficients of a polynomial whose masses sit at the
    matching degrees, summed by ``shuffles._bucket_sums``."""
    sums = _bucket_sums(degrees, masses)
    return tuple(sums.get(degree, Fraction(0)) for degree in range(size))


def _exp_integers(a, n: int, width: int) -> list[list[int]]:
    """f_0..f_n, each truncated to q^0..q^(width-1), from the integers a_1..a_n:

        f_s = sum_{m=1..s} a_m (s-1)!/(s-m)! f_{s-m} / (1 - q^m),   f_0 = 1,

    that is s! [t^s] exp(sum_m a_m t^m / (m (1 - q^m))); at width 1 the
    division does nothing and f_s = s! [t^s] exp(sum_m a_m t^m / m).
    """
    f = [[1] + [0] * (width - 1)]
    for s in range(1, n + 1):
        acc = [0] * width
        for m in range(1, s + 1):
            g = f[s - m].copy()  # becomes f_{s-m} / (1 - q^m)
            for i in range(m, width):
                g[i] += g[i - m]
            c = a[m] * math.perm(s - 1, m - 1)
            acc = [x + c * y for x, y in zip(acc, g)]
        f.append(acc)
    return f


def inversion_pgf(n: int, bias, k: int = 1) -> QPolynomial:
    """E q^Inv after k shuffles, from the power sums P_m of the tensored bias.

    E_n = sum_b p^b [n; b]_q is [n]! times the u^n coefficient of
    prod_i e_q(p_i u), e_q(x) = sum_j x^j / [j]!.  The q-binomial theorem
    gives log e_q(x) = sum_m (1-q)^m x^m / (m (1 - q^m)), so the power
    series F_s = E_s / (q;q)_s satisfy

        F_s = (1/s) sum_{m=1..s} P_m F_{s-m} / (1 - q^m),   F_0 = 1.

    With P_m = N_m / D^m (see _power_sums), f_s = F_s D^s s! is integral:

        f_s = sum_m N_m (s-1)!/(s-m)! f_{s-m} / (1 - q^m),

    which is ``_exp_integers`` at a_m = N_m, and E_n = f_n (q;q)_n / (D^n n!).
    E_n has degree C(n,2), so every series is truncated above q^C(n,2);
    dividing by 1 - q^m is then a running sum of stride m and multiplying
    by 1 - q^j a running difference.  That is C(n+1,2) * (C(n,2)+1) list
    cells, with no polynomial product, refused over
    ``shuffles.MAX_SWEEP_CELLS`` (n > 53).  Before the one division, a
    negative coefficient or a total other than D^n n! is refused.

    >>> from riffle.qpoly import QPolynomial
    >>> half = Fraction(1, 2)
    >>> inversion_pgf(3, (half, half), 2) == QPolynomial([5/16, 5/16, 5/16, 1/16])
    True
    """
    from .qpoly import QPolynomial

    bias = validate_bias(bias)
    check_size(n, k=k)
    top = math.comb(n, 2) + 1
    cells = math.comb(n + 1, 2) * top
    check_budget(f"inversion series of C({n + 1},2) * (C({n},2)+1) = {cells} cells",
                 cells, MAX_SWEEP_CELLS, "cells")
    sums, scale = _power_sums(bias, n, k)
    e = _exp_integers(sums, n, top)[n]  # times (q;q)_n, in place
    for j in range(1, n + 1):
        for i in range(top - 1, j - 1, -1):
            e[i] -= e[i - j]
    den = scale**n * math.factorial(n)
    if (least := min(e)) < 0:
        raise ValueError(f"negative coefficient of q^{e.index(least)}")
    _check_total(sum(e), den)
    return QPolynomial(Fraction(x, den) for x in e)


def inversion_pgf_from_compositions(n: int, bias, *, max_n: int = MAX_CACHED_N) -> QPolynomial:
    """E q^Inv as the cut-weighted sum of q-multinomial coefficients.

    An independent route to the same polynomial: each cut (b1..ba)
    contributes p^b times the inversion generating function of the
    permutations it can produce, which is the q-multinomial.
    """
    from .qpoly import QPolynomial, q_multinomial

    bias = validate_bias(bias)
    check_size(n, cap=max_n)
    total = QPolynomial.zero()
    for parts in weak_compositions(n, len(bias)):
        weight = _content_mass(bias, parts)
        if weight == 0:
            continue
        total = total + weight * q_multinomial(n, parts)
    return total


def inversion_pgf_from_distribution(dist: ExactDistribution) -> QPolynomial:
    from .qpoly import QPolynomial

    masses = dist.masses
    keys = map(inversions, masses)
    return QPolynomial(_coefficients(math.comb(dist.n, 2) + 1, keys, masses.values()))


def expected_inversions(spec: ShuffleSpec) -> Fraction:
    """Exact expected inversion count after k biased shuffles:

        C(n,2)/2 * (1 - (sum p_i^2)^k)

    Each pair of cards is inverted with probability half the chance their
    pile-assignment histories differ.
    """
    if spec.n < 2:
        return Fraction(0)  # before P_2^k, as in shuffles.suf_bound
    sums, scale = _power_sums(spec.bias, 2, spec.k)
    return Fraction(math.comb(spec.n, 2), 2) * (1 - Fraction(sums[2], scale**2))


def expected_descents(spec: ShuffleSpec) -> Fraction:
    """Exact expected descent count after k biased shuffles, counting the
    conventional descent at position n:

        1 + (n-1)/2 * (1 - (sum p_i^2)^k)

    for n >= 1; the empty deck has no descents and one card has one.
    """
    if spec.n < 2:
        return Fraction(spec.n)  # before P_2^k, as in shuffles.suf_bound
    sums, scale = _power_sums(spec.bias, 2, spec.k)
    return 1 + Fraction(spec.n - 1, 2) * (1 - Fraction(sums[2], scale**2))
