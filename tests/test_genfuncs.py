import math
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_shuffles import random_bias

from riffle import genfuncs, permutations, shuffles, verify
from riffle.genfuncs import (
    CyclePolynomial,
    cycle_pgf_from_distribution,
    cycle_structure_pgf,
    expected_descents,
    expected_fixed_points,
    expected_inversions,
    fixed_point_pgf,
    inversion_pgf,
    inversion_pgf_from_compositions,
    inversion_pgf_from_distribution,
)
from riffle.qpoly import QPolynomial
from riffle.shuffles import (
    ShuffleSpec,
    exact_distribution,
    exact_distribution_pile_words,
    exact_kfold_distribution,
    tensor_power,
)
from riffle.verify import BIAS_PANEL

FAIR = (F(1, 2), F(1, 2))


def fixed_point_pgf_from_distribution(dist):
    """P(N_1 = m), m = 0..n, summed off an exact distribution: the brute
    reference of the fixed-point series."""
    law = [F(0)] * (dist.n + 1)
    for perm, mass in dist.masses.items():
        law[sum(map(operator.eq, perm.images, range(1, dist.n + 1)))] += mass
    return tuple(law)


def _cycle_pgf_by_fractions(n, bias, k=1):
    """The joint cycle-count PGF by the Fraction recurrence: for each cycle
    length i, g_m = L_i(p^m) / m and the factor's coefficients
    c_s = (1/s) sum_m m g_m c_{s-m}, collected over the factors in Fractions."""
    sums, scale = shuffles._power_sums(bias, n, k)
    psum = [F(x, scale**e) for e, x in enumerate(sums)]
    state = {(0, ()): F(1)}
    for i in range(1, n + 1):
        top = n // i
        g = [F(0)] + [
            sum(mu * psum[d * m] ** (i // d) for d, mu in permutations._mobius_divisors(i))
            / (i * m)
            for m in range(1, top + 1)
        ]
        expo = [F(1)]
        for s in range(1, top + 1):
            expo.append(sum(m * g[m] * expo[s - m] for m in range(1, s + 1)) / s)
        new_state = dict(state)
        for (deg, key), coeff in state.items():
            for s in range(1, (n - deg) // i + 1):
                slot = (deg + i * s, key + ((i, s),))
                new_state[slot] = new_state.get(slot, F(0)) + coeff * expo[s]
        state = new_state
    return CyclePolynomial(n, {key: c for (deg, key), c in state.items() if deg == n})


# --- the exponential kernel --------------------------------------------------

def _symmetric_functions(letters, n):
    """h_0..h_n and e_0..e_n of the letters, by brute force over the letters:
    the t^s coefficients of prod 1/(1 - x t) and of prod (1 + x t)."""
    h, e = [F(1)] + [F(0)] * n, [F(1)] + [F(0)] * n
    for x in letters:
        for s in range(1, n + 1):
            h[s] += x * h[s - 1]
        for s in range(n, 0, -1):
            e[s] += x * e[s - 1]
    return h, e


@given(bias=random_bias, n=st.integers(0, 7), k=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_exp_kernel_at_width_one_gives_the_symmetric_functions(bias, n, k):
    # exp(sum P_m t^m / m) = sum h_s t^s and exp(sum (-1)^(m-1) P_m t^m / m)
    # = sum e_s t^s, with P_m = N_m / D^m the power sums of the letters
    sums, scale = shuffles._power_sums(bias, n, k)
    h, e = _symmetric_functions(tensor_power(bias, k), n)
    signed = [(-1) ** (m - 1) * x for m, x in enumerate(sums)]
    complete = genfuncs._exp_integers(sums, n, 1)
    elementary = genfuncs._exp_integers(signed, n, 1)
    for s in range(n + 1):
        assert complete[s] == [math.factorial(s) * scale**s * h[s]]
        assert elementary[s] == [math.factorial(s) * scale**s * e[s]]


def test_both_series_routes_run_the_exp_kernel(monkeypatch):
    def reached(*args):
        raise LookupError("kernel reached")

    monkeypatch.setattr(genfuncs, "_exp_integers", reached)
    with pytest.raises(LookupError):
        inversion_pgf(3, FAIR)
    with pytest.raises(LookupError):
        cycle_structure_pgf(3, FAIR)


# --- cycle structure -------------------------------------------------------

def test_cycle_pgf_two_cards_symbolic():
    p1, p2 = F(1, 5), F(4, 5)
    pgf = cycle_structure_pgf(2, (p1, p2))
    assert pgf.coefficient({1: 2}) == p1**2 + p1 * p2 + p2**2
    assert pgf.coefficient({2: 1}) == p1 * p2


def test_cycle_pgf_single_pile_is_identity_point_mass():
    pgf = cycle_structure_pgf(4, (F(1),))
    assert pgf.terms == {((1, 4),): F(1)}


def test_cycle_pgf_three_cycle_coefficient():
    pgf = cycle_structure_pgf(3, FAIR)
    assert pgf.coefficient({3: 1}) == F(1, 4)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("bias", BIAS_PANEL)
def test_cycle_pgf_matches_distribution(n, bias):
    assert cycle_structure_pgf(n, bias) == cycle_pgf_from_distribution(
        exact_distribution(n, bias)
    )


@given(bias=random_bias, n=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_cycle_pgf_matches_pile_words_on_random_biases(bias, n):
    assert cycle_structure_pgf(n, bias) == cycle_pgf_from_distribution(
        exact_distribution_pile_words(n, bias)
    )


@given(bias=random_bias, n=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_bucket_sum_readers_match_the_series_on_random_biases(bias, n):
    # the brute readers bucket exact_distribution's masses by a statistic
    dist = exact_distribution(n, bias)
    assert cycle_pgf_from_distribution(dist) == cycle_structure_pgf(n, bias)
    assert fixed_point_pgf_from_distribution(dist) == fixed_point_pgf(n, bias)
    assert inversion_pgf_from_distribution(dist) == inversion_pgf(n, bias)


@given(bias=random_bias, n=st.integers(0, 5), k=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_cycle_pgf_takes_k_as_the_tensored_bias(bias, n, k):
    # P_e of the k-fold tensored bias is P_e(bias)^k
    assert cycle_structure_pgf(n, bias, k) == cycle_structure_pgf(n, tensor_power(bias, k))


@pytest.mark.parametrize("k", [0, 2, 3])
def test_cycle_pgf_of_k_shuffles_matches_the_kfold_distribution(k):
    bias = (F(1, 2), F(1, 3), F(1, 6))
    assert cycle_structure_pgf(4, bias, k) == cycle_pgf_from_distribution(
        exact_kfold_distribution(4, bias, k)
    )


@pytest.mark.parametrize("n", [10, 11, 12])
@pytest.mark.parametrize("bias", [FAIR, (F(1, 3), F(2, 3))], ids=["fair", "third"])
def test_cycle_and_fixed_point_pgfs_above_s9_match_the_pile_words(n, bias):
    # the a^n pile words list no S_n, so they check the series above MAX_CACHED_N
    dist = exact_distribution(n, bias)
    assert cycle_structure_pgf(n, bias) == cycle_pgf_from_distribution(dist)
    assert fixed_point_pgf(n, bias) == fixed_point_pgf_from_distribution(dist)


@given(bias=random_bias, n=st.integers(10, 14), k=st.integers(1, 2))
@settings(max_examples=20, deadline=None)
def test_integer_cycle_table_matches_the_fraction_recurrence(bias, n, k):
    # no S_n route runs at these n, and the pile words check two fixed biases
    # only, so this pins the final division by z D^n on random ones
    assert cycle_structure_pgf(n, bias, k) == _cycle_pgf_by_fractions(n, bias, k)


def test_cycle_pgf_is_refused_past_its_cells_before_any_power_sum(monkeypatch):
    # n * (p(0) + ... + p(n)) cells: 1,780,779 at n = 33, 2,253,282 at n = 34
    def reached(*args):
        raise LookupError("power sums reached")

    monkeypatch.setattr(genfuncs, "_power_sums", reached)
    with pytest.raises(LookupError):
        cycle_structure_pgf(33, FAIR)
    with pytest.raises(ValueError) as refused:
        cycle_structure_pgf(34, FAIR)
    assert str(refused.value) == (
        "cycle-type table of 34 * (p(0) + ... + p(34)) cells (the terms to p(34) give "
        "2253282) is above the budget of 2097152 cells")


def test_cycle_pgf_weighs_its_products_by_the_digits_of_the_top_power_sum(monkeypatch):
    # 33 cards at 1/7,2/7,4/7 are within the cells at k = 1 (4 machine digits
    # a product) and over them at k = 2 (7), before the table is built
    def built(*args):
        raise LookupError("table built")

    monkeypatch.setattr(genfuncs, "_mobius_divisors", built)
    bias = (F(1, 7), F(2, 7), F(4, 7))
    with pytest.raises(LookupError):
        cycle_structure_pgf(33, bias)
    with pytest.raises(ValueError) as refused:
        cycle_structure_pgf(33, bias, 2)
    assert str(refused.value) == (
        "cycle-type table of 1780779 cells plus 53963 coefficient products of 7 machine "
        "digits each (P_33^2 has a 186-bit denominator), 2158520 cells in all, is above the "
        "budget of 2097152 cells")


def test_cycle_pgf_refuses_negative_k():
    with pytest.raises(ValueError):
        cycle_structure_pgf(3, FAIR, -1)


def test_cycle_polynomial_validates():
    with pytest.raises(ValueError, match="does not weigh n=2"):
        CyclePolynomial(2, {((1, 1),): F(1)})  # weighs 1, not 2
    with pytest.raises(ValueError, match="negative coefficient"):
        CyclePolynomial(2, {((1, 2),): F(3, 2), ((2, 1),): F(-1, 2)})
    for terms in ({((1, 2),): F(1, 2)}, {((1, 2),): F(1, 3), ((2, 1),): F(1, 2)},
                  {((1, 2),): F(2, 3), ((2, 1),): F(1, 2)}):  # sums 1/2, 5/6, 7/6
        with pytest.raises(ValueError, match="^coefficients do not sum to 1$"):
            CyclePolynomial(2, terms)


def test_expected_count_reads_coefficients():
    pgf = cycle_structure_pgf(3, FAIR)
    assert pgf.expected_count(1) == F(7, 4)


# --- fixed points -----------------------------------------------------------

def test_expected_fixed_points_examples():
    assert expected_fixed_points(ShuffleSpec(6, (F(1),), 3)) == 6
    assert expected_fixed_points(ShuffleSpec(3, FAIR, 1)) == F(7, 4)


@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_expected_fixed_points_unbiased_form(a, k):
    n = 6
    bias = tuple(F(1, a) for _ in range(a))
    want = sum(F(1, a ** ((j - 1) * k)) for j in range(1, n + 1))
    assert expected_fixed_points(ShuffleSpec(n, bias, k)) == want


@pytest.mark.parametrize("bias", BIAS_PANEL)
def test_power_sum_bound_and_fixed_point_minimum(bias):
    n, k, a = 6, 2, len(bias)
    for j in range(1, n + 1):
        assert sum(p**j for p in bias) >= F(1, a ** (j - 1))
    unbiased = tuple(F(1, a) for _ in range(a))
    assert expected_fixed_points(ShuffleSpec(n, bias, k)) >= expected_fixed_points(
        ShuffleSpec(n, unbiased, k)
    )


def test_fixed_point_pgf_examples():
    assert fixed_point_pgf(1, FAIR) == (F(0), F(1))
    assert fixed_point_pgf(3, FAIR) == (F(1, 4), F(1, 4), F(0), F(1, 2))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("bias", BIAS_PANEL)
def test_fixed_point_pgf_matches_distribution(n, bias):
    pgf = fixed_point_pgf(n, bias)
    assert pgf == fixed_point_pgf_from_distribution(exact_distribution(n, bias))
    assert sum(pgf) == 1
    mean = sum(m * c for m, c in enumerate(pgf))
    assert mean == expected_fixed_points(ShuffleSpec(n, bias, 1))


@given(bias=random_bias, n=st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_brute_fixed_point_law_is_the_distribution_read_by_fixed_points(bias, n):
    # the fixed-points suite buckets the cut listing's integer numerators;
    # the reader buckets exact_distribution's Fractions
    assert verify._brute_fixed_point_law(n, bias) == fixed_point_pgf_from_distribution(
        exact_distribution(n, bias)
    )


def test_fixed_point_suite_fails_on_a_wrong_brute_law(monkeypatch):
    # the suite reads its brute law off the cut listing: move every mass of
    # the fair two-card deck onto the identity, keeping the total
    listing = shuffles._cut_numerators

    def onto_identity(n, bias):
        numerators, scale = listing(n, bias)
        if n == 2 and len(bias) == 2:
            return {(1, 2): scale}, scale
        return numerators, scale

    monkeypatch.setattr(shuffles, "_cut_numerators", onto_identity)
    result = verify.check_fixed_points(verify.VerifyConfig(n_max=3))
    assert not result.passed
    assert result.detail == f"fixed-point PGF differs at n=2, bias={FAIR}"


@given(bias=random_bias, n=st.integers(0, 6), k=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_fixed_point_pgf_of_k_shuffles_matches_the_kfold_distribution(bias, n, k):
    assert fixed_point_pgf(n, bias, k) == fixed_point_pgf_from_distribution(
        exact_kfold_distribution(n, bias, k)
    )


def test_fixed_point_pgf_of_ten_cards_and_seven_shuffles_sums_to_one():
    pgf = fixed_point_pgf(10, FAIR, 7)
    assert len(pgf) == 11 and sum(pgf) == 1
    assert sum(m * c for m, c in enumerate(pgf)) == expected_fixed_points(ShuffleSpec(10, FAIR, 7))


def test_fixed_point_poisson_proximity():
    # fair 52-card deck after 10 shuffles: mean within 0.01 of the
    # tail-corrected limit value 1 + sum_{j >= 2} 2^{(1-j)10}
    mean = expected_fixed_points(ShuffleSpec(52, FAIR, 10))
    limit = 1 + sum(F(2, 2**j) ** 10 for j in range(2, 200))
    assert abs(float(mean) - float(limit)) < 0.01


# --- inversions --------------------------------------------------------------

def test_inversion_pgf_two_cards_symbolic():
    p1, p2 = F(1, 3), F(2, 3)
    assert inversion_pgf(2, (p1, p2)) == QPolynomial(
        [p1**2 + p2**2 + p1 * p2, p1 * p2]
    )


def test_inversion_pgf_single_pile_is_one():
    assert inversion_pgf(5, (F(1),)) == QPolynomial.one()


def test_inversion_pgf_three_cards_fair():
    assert inversion_pgf(3, FAIR) == QPolynomial([F(1, 2), F(1, 4), F(1, 4)])


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("bias", BIAS_PANEL)
def test_inversion_pgf_routes_agree(n, bias):
    series = inversion_pgf(n, bias)
    assert series == inversion_pgf_from_compositions(n, bias)
    assert series == inversion_pgf_from_distribution(exact_distribution(n, bias))
    assert series(1) == 1
    assert series.degree() <= math.comb(n, 2)


@given(bias=random_bias, k=st.integers(0, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_inversion_pgf_routes_agree_on_random_biases(bias, k, data):
    # the composition route walks C(n + a^k - 1, n) cuts of the tensored
    # bias: n is drawn where that stays at most 500
    letters = tensor_power(bias, k)
    top = max(n for n in range(9) if math.comb(n + len(letters) - 1, n) <= 500)
    n = data.draw(st.integers(0, top), label="n")
    assert inversion_pgf(n, bias, k) == inversion_pgf_from_compositions(n, letters)


def test_inversion_pgf_refuses_negative_k():
    with pytest.raises(ValueError, match="negative k"):
        inversion_pgf(3, FAIR, -1)


def test_expected_inversions_examples():
    assert expected_inversions(ShuffleSpec(7, (F(1),), 4)) == 0
    assert expected_inversions(ShuffleSpec(3, FAIR, 1)) == F(3, 4)
    assert inversion_pgf(3, FAIR).derivative()(1) == F(3, 4)


@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_expected_inversions_unbiased_form(a, k):
    n = 8
    bias = tuple(F(1, a) for _ in range(a))
    want = F(math.comb(n, 2), 2) * (1 - F(1, a**k))
    assert expected_inversions(ShuffleSpec(n, bias, k)) == want


@pytest.mark.parametrize("bias", BIAS_PANEL)
def test_expected_inversions_bounded_and_maximized_unbiased(bias):
    n, k, a = 6, 3, len(bias)
    value = expected_inversions(ShuffleSpec(n, bias, k))
    assert value <= F(math.comb(n, 2), 2)
    unbiased = tuple(F(1, a) for _ in range(a))
    assert value <= expected_inversions(ShuffleSpec(n, unbiased, k))


# --- descents -----------------------------------------------------------------

def test_expected_descents_examples():
    assert expected_descents(ShuffleSpec(9, (F(1),), 2)) == 1
    assert expected_descents(ShuffleSpec(3, FAIR, 1)) == F(3, 2)


def test_expected_descents_limit():
    n = 10
    huge = expected_descents(ShuffleSpec(n, FAIR, 1000))
    assert abs(float(huge) - (1 + (n - 1) / 2)) < 1e-200


def test_expected_descents_matches_distribution():
    from riffle.permutations import descent_set, symmetric_group_list

    for bias in BIAS_PANEL:
        for n in range(1, 5):
            dist = exact_distribution(n, bias)
            mean = sum(
                dist.mass(p) * len(descent_set(p)) for p in symmetric_group_list(n)
            )
            assert mean == expected_descents(ShuffleSpec(n, bias, 1))
