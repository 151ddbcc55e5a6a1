import bisect
import decimal
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riffle.counting import count_descent_exact
from riffle.permutations import (
    Permutation,
    descent_set,
    standard_permutation,
    symmetric_group_list,
    weak_compositions,
    words_with_content,
)
from riffle import shuffles
from riffle.shuffles import (
    SAMPLE_METHODS,
    ExactDistribution,
    ShuffleSpec,
    convolve,
    exact_distribution,
    exact_distribution_drops,
    exact_distribution_pile_words,
    exact_kfold_distribution,
    lalley_lower_steps,
    lalley_theta,
    mass_by_inverse_descents,
    parse_bias,
    sample,
    substream,
    suf_bound,
    tensor_bias,
    tensor_power,
    tv_distance,
    tv_to_uniform,
    uniform_distribution,
)
from riffle.verify import BIAS_PANEL

FAIR = (F(1, 2), F(1, 2))


# --- bias handling -------------------------------------------------------

def test_parse_bias_fractions_and_decimals():
    assert parse_bias("1/3,1/3,1/3") == (F(1, 3), F(1, 3), F(1, 3))
    assert parse_bias("0.25,0.75") == (F(1, 4), F(3, 4))
    assert parse_bias("0.4,0.6") == (F(2, 5), F(3, 5))


def test_parse_bias_rejects_non_normalized():
    with pytest.raises(ValueError):
        parse_bias("0.3,0.3")
    with pytest.raises(ValueError):
        parse_bias("1/2,1/3")
    with pytest.raises(ValueError):
        parse_bias("3/2,-1/2")


def test_tensor_bias_examples():
    assert tensor_bias((F(1),), (F(1, 3), F(2, 3))) == (F(1, 3), F(2, 3))
    assert tensor_bias(FAIR, FAIR) == (F(1, 4),) * 4
    assert tensor_bias((F(1, 3), F(2, 3)), FAIR) == (F(1, 6), F(1, 6), F(1, 3), F(1, 3))


def test_tensor_power():
    assert tensor_power(FAIR, 0) == (F(1),)
    assert tensor_power(FAIR, 3) == (F(1, 8),) * 8


def test_shuffle_spec_is_an_immutable_value():
    spec = ShuffleSpec(3, [F(1, 2), 0.5])
    assert (spec.n, spec.bias, spec.k) == (3, FAIR, 1)
    assert spec == ShuffleSpec(3, FAIR, 1) != ShuffleSpec(3, FAIR, 2)
    assert len({spec, ShuffleSpec(3, FAIR), ShuffleSpec(4, FAIR)}) == 2
    with pytest.raises(AttributeError):
        spec.k = 2
    with pytest.raises(AttributeError):
        del spec.k
    assert spec.k == 1
    with pytest.raises(ValueError, match="bias sums to"):
        ShuffleSpec(3, (F(1, 2),))


# --- exact measures ------------------------------------------------------

@pytest.mark.parametrize("p1", [F(1, 2), F(1, 3), F(1, 5)])
def test_three_card_masses(p1):
    p2 = 1 - p1
    dist = exact_distribution(3, (p1, p2))
    assert dist.mass(Permutation([1, 2, 3])) == p1**3 + p1**2 * p2 + p1 * p2**2 + p2**3
    assert dist.mass(Permutation.from_cycles(3, [(2, 3)])) == p1**2 * p2
    assert dist.mass(Permutation.from_cycles(3, [(1, 3)])) == 0
    assert dist.mass(Permutation.from_cycles(3, [(1, 2)])) == p1 * p2**2
    assert dist.mass(Permutation.from_cycles(3, [(1, 2, 3)])) == p1 * p2**2
    assert dist.mass(Permutation.from_cycles(3, [(1, 3, 2)])) == p1**2 * p2


def test_single_pile_is_point_mass():
    dist = exact_distribution(5, (F(1),))
    assert dist.masses == {Permutation.identity(5): F(1)}


def test_two_card_swap_mass():
    dist = exact_distribution(2, (F(1, 3), F(2, 3)))
    assert dist.mass(Permutation([2, 1])) == F(2, 9)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("bias", BIAS_PANEL)
def test_description_routes_agree(n, bias):
    d1 = exact_distribution(n, bias)
    assert d1 == exact_distribution_drops(n, bias)
    assert d1 == exact_distribution_pile_words(n, bias)
    if n:
        assert d1 == exact_kfold_distribution(n, bias, 1)


def test_masses_sum_to_one_is_enforced():
    with pytest.raises(ValueError):
        ExactDistribution(2, {Permutation([1, 2]): F(1, 2)})
    with pytest.raises(ValueError):
        ExactDistribution(2, {Permutation([1, 2]): F(3, 2), Permutation([2, 1]): F(-1, 2)})


def test_masses_are_stored_as_fractions_without_copies():
    half = F(1, 2)
    dist = ExactDistribution(2, {Permutation([1, 2]): half, Permutation([2, 1]): F(1, 2)})
    assert dist.masses[Permutation([1, 2])] is half
    dist = ExactDistribution(1, {Permutation([1]): 1})
    assert type(dist.masses[Permutation([1])]) is F


def test_enumeration_cap():
    with pytest.raises(ValueError):
        exact_distribution(9, FAIR)
    exact_distribution(9, FAIR, max_n=9)  # override allowed


@pytest.mark.parametrize(
    "route", [exact_distribution, exact_distribution_drops, exact_distribution_pile_words]
)
def test_negative_deck_size_is_named_by_every_exact_route(route):
    with pytest.raises(ValueError, match="^negative deck size$"):
        route(-1, FAIR)


def test_mass_depends_only_on_inverse_descents():
    bias = (F(1, 3), F(2, 3))
    classes = mass_by_inverse_descents(4, bias)
    dist = exact_distribution(4, bias)
    for p in dist.support():
        assert dist.mass(p) == classes[descent_set(p.inverse())]


def test_json_roundtrip():
    dist = exact_distribution(3, (F(1, 3), F(2, 3)))
    obj = dist.to_json_obj()
    assert obj["n"] == 3
    assert {"perm": [1, 2, 3], "p": "5/9"} in obj["masses"]


@pytest.mark.parametrize("n", range(8))
def test_inverse_descent_indices_match_descent_sets(n):
    want = [sum(2 ** (n - 1 - i) for i in descent_set(p.inverse()) if i < n)
            for p in symmetric_group_list(n)]
    assert shuffles._inverse_descent_indices(n) == want


# --- convolution ---------------------------------------------------------

def test_convolve_with_point_mass_is_identity():
    dist = exact_distribution(4, (F(1, 3), F(2, 3)))
    delta = ExactDistribution(4, {Permutation.identity(4): F(1)})
    assert convolve(delta, dist) == dist
    assert convolve(dist, delta) == dist


@pytest.mark.parametrize("n", range(1, 5))
def test_convolution_tensor_identity(n):
    pa, pb = FAIR, FAIR
    assert convolve(exact_distribution(n, pa), exact_distribution(n, pb)) == \
        exact_distribution(n, tensor_bias(pa, pb))
    pa, pb = (F(1, 3), F(2, 3)), (F(1, 2), F(1, 4), F(1, 4))
    assert convolve(exact_distribution(n, pa), exact_distribution(n, pb)) == \
        exact_distribution(n, tensor_bias(pa, pb))


def test_convolve_rejects_size_mismatch():
    with pytest.raises(ValueError):
        convolve(exact_distribution(2, FAIR), exact_distribution(3, FAIR))


@pytest.mark.parametrize("n", range(1, 5))
def test_kfold_matches_iterated_convolution(n):
    bias = (F(1, 3), F(2, 3))
    single = exact_distribution(n, bias)
    assert exact_kfold_distribution(n, bias, 2) == convolve(single, single)


# --- total variation and bounds -------------------------------------------

def test_tv_examples():
    dist = exact_distribution(3, FAIR)
    assert tv_distance(dist, dist) == 0
    n = 4
    delta = ExactDistribution(n, {Permutation.identity(n): F(1)})
    assert tv_distance(delta, uniform_distribution(n)) == 1 - F(1, math.factorial(n))
    assert tv_distance(dist, uniform_distribution(3)) == F(1, 3)


def test_tv_to_uniform_examples():
    assert tv_to_uniform(3, FAIR) == F(1, 3)
    assert tv_to_uniform(0, FAIR, 5) == 0
    # k = 0 is the identity: all mass sits in the class {n}
    assert tv_to_uniform(4, FAIR, 0) == 1 - F(1, 24)
    assert tv_to_uniform(4, (F(1),)) == 1 - F(1, 24)


def test_tv_to_uniform_is_limited_by_the_sweep_budget_alone():
    with pytest.raises(ValueError, match="negative deck size"):
        tv_to_uniform(-1, FAIR)
    with pytest.raises(ValueError, match="negative k"):
        tv_to_uniform(3, FAIR, -1)
    # one letter: 2^21 cells is the budget, 2^22 is over it
    assert tv_to_uniform(21, (F(1),)) == 1 - F(1, math.factorial(21))
    with pytest.raises(ValueError, match=r"2\^22 \* 1\^1 cells"):
        tv_to_uniform(22, (F(1),))


def _class_deset(n, index):
    return [i for i in range(1, n) if index >> (n - 1 - i) & 1] + [n]


@pytest.mark.parametrize("n", range(1, 13))
def test_class_sizes_are_the_descent_set_counts(n):
    sizes = shuffles._class_sizes(n, n - 1)
    assert len(sizes) == 2 ** (n - 1) and sum(sizes) == math.factorial(n)
    assert sizes == [count_descent_exact(n, _class_deset(n, index)) for index in range(len(sizes))]
    # a walk cut at `most` descents keeps every class index, with 0 past the cut
    for most in range(n - 1):
        assert shuffles._class_sizes(n, most) == [
            size if index.bit_count() <= most else 0 for index, size in enumerate(sizes)]


def _tv_by_descent_counts(n, bias, k):
    """sum_D |D| * |N_D * n! - S| / (2 * S * n!) with |D| by inclusion-exclusion."""
    numerators, scale = shuffles._kfold_classes(n, bias, k)
    fact = math.factorial(n)
    total = sum(count_descent_exact(n, _class_deset(n, index)) * abs(m * fact - scale)
                for index, m in enumerate(numerators))
    return F(total, 2 * scale * fact)


def _fair_tv(n, k):
    """Bayer and Diaconis: k fair shuffles are one 2^k-shuffle, whose mass at
    pi is C(2^k + n - 1 - d, n) / 2^(kn) with d = des(pi^-1); the Eulerian
    number A(n, d) counts the permutations with d descents."""
    eulerian = [1]  # A(m, d) for d < m, from m = 1 up
    for m in range(2, n + 1):
        prev = [0, *eulerian, 0]
        eulerian = [(d + 1) * prev[d + 1] + (m - d) * prev[d] for d in range(m)]
    letters, uniform = 2**k, F(1, math.factorial(n))
    return sum(count * abs(F(math.comb(letters + n - 1 - d, n), letters**n) - uniform)
               for d, count in enumerate(eulerian)) / F(2)


@pytest.mark.parametrize("n", range(0, 17))
def test_tv_to_uniform_is_the_fair_closed_form(n):
    # k <= 5 keeps 2^n * 2^k within the sweep budget for every n <= 16
    for k in range(0, 6):
        assert tv_to_uniform(n, FAIR, k) == _fair_tv(n, k)


def test_kfold_sweep_is_refused_over_budget_before_tensoring():
    # 2^6 * 2^40 cells: the estimate is refused, not the a^k letters built
    with pytest.raises(ValueError, match=r"2\^6 \* 2\^40 cells"):
        tv_to_uniform(6, FAIR, 40)
    with pytest.raises(ValueError, match=r"2\^4 \* 3\^1000000000 cells"):
        exact_kfold_distribution(4, (F(1, 2), F(1, 4), F(1, 4)), 10**9)
    # the largest sweep under the budget runs
    assert 2**6 * 2**15 == shuffles.MAX_SWEEP_CELLS
    assert tv_to_uniform(6, FAIR, 15) > 0
    with pytest.raises(ValueError, match="budget of 2097152 cells"):
        tv_to_uniform(6, FAIR, 16)
    # at n = 1 the budget admits 2^20 tensored letters, and the one class is uniform
    assert tv_to_uniform(1, FAIR, 20) == 0
    with pytest.raises(ValueError, match=r"2\^1 \* 2\^21 cells"):
        tv_to_uniform(1, FAIR, 21)


def test_exact_masses_past_the_answer_budget_are_refused_before_tensoring():
    # masses over (10^500)^(kn): 4000 digits at n = 4, k = 2 is the budget
    tiny = (F(1, 10**500), 1 - F(1, 10**500))
    assert mass_by_inverse_descents(8, tiny)[frozenset({8})] > 0
    assert sum(exact_kfold_distribution(4, tiny, 2).masses.values()) == 1
    for call in (lambda: exact_kfold_distribution(3, tiny, 3),
                 lambda: mass_by_inverse_descents(9, tiny),
                 lambda: exact_distribution(9, tiny, max_n=9)):
        with pytest.raises(ValueError, match="4500 digits .masses of"):
            call()
    # the distance to uniform, over den^(kn) n!, still prints below 4300 digits
    assert shuffles.mass_refusal(tiny, 4, 2) is None
    assert len(str(tv_to_uniform(4, tiny, 2).denominator)) > 4000


def test_kfold_sweep_counts_only_nonzero_letters():
    # one nonzero letter of ten: 2^3 * 1^30 cells, the identity at every k
    bias = (F(1),) + (F(0),) * 9
    assert tv_to_uniform(3, bias, 30) == 1 - F(1, 6)
    assert exact_kfold_distribution(3, bias, 30) == exact_distribution(3, (F(1),))


# Random rational biases: up to four letters, zero entries allowed, large
# denominators.  The fixed panel has no zero entry and only small denominators.
random_bias = st.lists(
    st.one_of(st.just(0), st.integers(1, 10**12)), min_size=1, max_size=4
).filter(any).map(lambda ws: tuple(F(w, sum(ws)) for w in ws))


@given(bias=random_bias, n=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_class_masses_match_pile_words_on_random_biases(bias, n):
    classes = mass_by_inverse_descents(n, bias)
    dist = exact_distribution_pile_words(n, bias)
    assert len(classes) == 2 ** max(n - 1, 0)
    for perm in symmetric_group_list(n):
        assert classes[descent_set(perm.inverse())] == dist.mass(perm)


@given(bias=random_bias, n=st.integers(0, 4), k=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_kfold_classes_match_pile_words_of_the_tensored_bias(bias, n, k):
    # the pile-word route never sees a descent class: an independent oracle
    # for the integer class table behind both k-fold routes
    assume(len(bias) ** (k * n) <= 4**4)
    want = exact_distribution_pile_words(n, tensor_power(bias, k))
    assert exact_kfold_distribution(n, bias, k) == want


@given(bias=random_bias, n=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_per_permutation_routes_agree_on_random_biases(bias, n):
    dist = exact_distribution(n, bias)
    assert dist == exact_distribution_drops(n, bias)
    assert dist == exact_distribution_pile_words(n, bias)


def _cut_masses_by_fractions(n, bias):
    # the reference: each cut's mass as a product of Fractions, summed per
    # permutation in the order the permutations are first reached
    masses = {}
    for parts in weak_compositions(n, len(bias)):
        mass = F(1)
        for p, b in zip(bias, parts):
            mass *= p**b
        if mass:
            for word in words_with_content(list(filter(None, parts))):
                perm = standard_permutation(word)
                masses[perm] = masses.get(perm, F(0)) + mass
    return masses


@given(bias=random_bias, n=st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_integer_cut_masses_match_fraction_sums_and_pile_words(bias, n):
    dist = exact_distribution(n, bias)
    assert list(dist.masses.items()) == list(_cut_masses_by_fractions(n, bias).items())
    assert all(type(m) is F for m in dist.masses.values())
    assert dist == exact_distribution_pile_words(n, bias)


@given(bias=random_bias, n=st.integers(0, 5), k=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_class_tv_matches_sn_tv_on_random_biases(bias, n, k):
    want = tv_distance(exact_kfold_distribution(n, bias, k), uniform_distribution(n))
    assert tv_to_uniform(n, bias, k) == want


@given(bias=random_bias, n=st.integers(1, 11), k=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_tv_to_uniform_matches_the_class_sum_on_random_biases(bias, n, k):
    assume(shuffles.sweep_refusal(n, sum(1 for p in bias if p), k) is None)
    assert tv_to_uniform(n, bias, k) == _tv_by_descent_counts(n, bias, k)


def test_tv_rejects_size_mismatch():
    with pytest.raises(ValueError):
        tv_distance(uniform_distribution(2), uniform_distribution(3))


def test_suf_bound_examples():
    assert suf_bound(ShuffleSpec(3, FAIR, 2)) == F(3, 4)
    assert suf_bound(ShuffleSpec(5, FAIR, 0)) == math.comb(5, 2)
    # smallest k with bound < 1/4 at n = 6, against the 2 log_2 n rule of thumb
    ks = [k for k in range(1, 20) if suf_bound(ShuffleSpec(6, FAIR, k)) < F(1, 4)]
    assert min(ks) == 6
    assert math.floor(2 * math.log2(6)) <= min(ks) <= math.ceil(2 * math.log2(6)) + 1


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("bias", [b for b in BIAS_PANEL if len(b) > 1])
def test_tv_below_bound(n, bias):
    uniform = uniform_distribution(n)
    for k in range(0, 9):
        bound = suf_bound(ShuffleSpec(n, bias, k))
        if bound >= 1:
            continue
        tv = tv_distance(exact_kfold_distribution(n, bias, k), uniform)
        assert tv <= bound


def test_lalley_theta_at_half_is_three():
    assert abs(lalley_theta(F(1, 2)) - 3.0) < 1e-10
    # closed-form residual at the root
    assert abs(2 * 0.5**3 - (0.5**2 + 0.5**2) ** 2) == 0


def test_lalley_theta_residual():
    for p1 in (0.4, 0.25, 0.6):
        theta = lalley_theta(p1)
        p2 = 1 - p1
        assert abs(p1**theta + p2**theta - (p1**2 + p2**2) ** 2) < 1e-10


def _theta_by_decimal_bisection(p1):
    # the root of p1^t + p2^t = (p1^2 + p2^2)^2 at 50 digits, p2 = 1 - p1 exact
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        p1 = decimal.Decimal(p1.numerator) / p1.denominator
        p2 = 1 - p1
        rhs = (p1 * p1 + p2 * p2) ** 2
        lo, hi = decimal.Decimal(0), decimal.Decimal(8)
        while hi - lo > decimal.Decimal("1e-30"):
            mid = (lo + hi) / 2
            if (mid * p1.ln()).exp() + (mid * p2.ln()).exp() > rhs:
                lo = mid
            else:
                hi = mid
        return float(lo)


@pytest.mark.parametrize("p1", [1e-20, 1e-12, 1e-9, F(1, 3)])
def test_lalley_theta_near_a_one_letter_bias(p1):
    # p2 = 1 - p1 rounds to 1.0 at 1e-20, where a float equation had its root at 0.798
    want = _theta_by_decimal_bisection(F(p1))
    assert abs(lalley_theta(p1) - want) < 2e-12
    assert abs(lalley_theta(1 - F(p1)) - want) < 2e-12


def test_lalley_theta_below_the_float_range_is_four():
    assert lalley_theta(F(1, 10**400)) == 4.0
    assert lalley_lower_steps(52, F(1, 10**400)) == math.inf


def test_lalley_theta_rejects_degenerate():
    with pytest.raises(ValueError):
        lalley_theta(0)
    with pytest.raises(ValueError):
        lalley_theta(1)


def test_lalley_lower_steps():
    assert abs(lalley_lower_steps(2**10, F(1, 2)) - 15.0) < 1e-9
    assert abs(lalley_lower_steps(2, F(1, 2)) - 1.5) < 1e-12
    theta = lalley_theta(0.45)
    r = 0.45**2 + 0.55**2
    want = (3 + theta) / 4 * math.log(52) / math.log(1 / r)
    assert abs(lalley_lower_steps(52, 0.45) - want) < 1e-12


# --- samplers -------------------------------------------------------------

def test_sample_requires_rng_and_known_method():
    spec = ShuffleSpec(3, FAIR, 1)
    with pytest.raises(ValueError):
        sample(spec, "inverse", None)
    with pytest.raises(ValueError):
        sample(spec, "sideways", random.Random(1))


@pytest.mark.parametrize("method", SAMPLE_METHODS)
def test_sampler_deterministic_under_seed(method):
    spec = ShuffleSpec(6, (F(1, 3), F(2, 3)), 2)
    runs = [
        [sample(spec, method, random.Random(99)) for _ in range(20)] for _ in range(2)
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("method", SAMPLE_METHODS)
def test_single_pile_sampler_is_identity(method):
    spec = ShuffleSpec(4, (F(1),), 3)
    assert sample(spec, method, random.Random(5)) == Permutation.identity(4)


def test_interleave_identity_frequency():
    # identity mass of the fair 3-card shuffle is exactly 1/2
    spec = ShuffleSpec(3, FAIR, 1)
    rng = random.Random(2024)
    trials = 100_000
    hits = sum(
        sample(spec, "interleave", rng) == Permutation.identity(3) for _ in range(trials)
    )
    sigma = math.sqrt(0.5 * 0.5 / trials)
    assert abs(hits / trials - 0.5) < 3 * sigma


def test_two_card_swap_frequency():
    spec = ShuffleSpec(2, FAIR, 1)
    rng = random.Random(7)
    trials = 40_000
    hits = sum(sample(spec, "drop", rng) == Permutation([2, 1]) for _ in range(trials))
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(hits / trials - 0.25) < 3 * sigma


def test_composed_samples_match_tensored_distribution():
    # two composed fair shuffles vs the exact 4-pile measure, coarse 4-sigma check
    n, trials = 3, 30_000
    spec = ShuffleSpec(n, FAIR, 2)
    rng = random.Random(31)
    counts = {}
    for _ in range(trials):
        p = sample(spec, "inverse", rng)
        counts[p] = counts.get(p, 0) + 1
    exact = exact_kfold_distribution(n, FAIR, 2)
    for perm in exact.support():
        want = float(exact.mass(perm))
        sigma = math.sqrt(want * (1 - want) / trials)
        assert abs(counts.get(perm, 0) / trials - want) < 4 * sigma


@pytest.mark.parametrize("length", [0, 1, 2, 5, 52, 300])
def test_shuffle_consumes_the_shuffle_stream(length):
    ours, theirs = random.Random(length), random.Random(length)
    for _ in range(20):
        x, y = list(range(length)), list(range(length))
        shuffles._shuffle(x, ours.getrandbits)
        theirs.shuffle(y)
        assert x == y
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("bias", ["1", "0.4,0.6", "1/3,0,2/3", "1/1000003,1000002/1000003",
                                  f"1/{10**30},{10**30 - 1}/{10**30}"])
def test_inlined_category_draws_consume_the_randrange_stream(bias):
    # the inlined rejection loop of the category draws against randrange
    _, cumulative, denom = shuffles._categorical(parse_bias(bias))
    ours, theirs = random.Random(3), random.Random(3)
    labels = shuffles._draw_labels(500, cumulative, denom, ours)
    assert labels == [bisect.bisect_right(cumulative, theirs.randrange(denom)) for _ in range(500)]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("method", SAMPLE_METHODS)
def test_sample_reads_the_thresholds_built_with_the_spec(monkeypatch, method):
    # the spec builds the bias's integer thresholds once; no draw rebuilds them
    spec = ShuffleSpec(6, tensor_power(parse_bias("1/3,2/3"), 3), 2)
    rng = random.Random(5)
    want = [sample(spec, method, rng) for _ in range(3)]

    def rebuilt(bias):
        raise AssertionError("sample rebuilt the thresholds")

    monkeypatch.setattr(shuffles, "_categorical", rebuilt)
    rng = random.Random(5)
    assert [sample(spec, method, rng) for _ in range(3)] == want


@pytest.mark.parametrize("method", SAMPLE_METHODS)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("bad", [
    lambda n: [1] * n,  # not injective
    lambda n: list(range(1, n)),  # one card short
    lambda n: [*range(1, n + 1), 1],  # one card extra
], ids=["repeat", "short", "long"])
def test_sample_validates_the_composed_draw(monkeypatch, method, k, bad):
    # the factors are composed unchecked, so the one check of the product
    # must catch a single shuffle that is not a permutation of 1..n
    monkeypatch.setitem(shuffles._SINGLE_SAMPLERS, method, lambda n, *rest: bad(n))
    with pytest.raises(ValueError):
        sample(ShuffleSpec(5, FAIR, k), method, random.Random(1))


@pytest.mark.parametrize("method", SAMPLE_METHODS)
@pytest.mark.parametrize("bad", [
    lambda n: [-1, *range(n - 1)],  # indexes from the end: composes to a valid product
    lambda n: [*range(1, n), n],  # one position past the deck
], ids=["negative", "past-the-end"])
def test_sample_refuses_a_factor_entry_outside_the_deck(monkeypatch, method, bad):
    monkeypatch.setitem(shuffles._SINGLE_SAMPLERS, method, lambda n, *rest: bad(n))
    with pytest.raises(ValueError, match="outside 0..4"):
        sample(ShuffleSpec(5, FAIR, 1), method, random.Random(1))


@pytest.mark.parametrize("method", SAMPLE_METHODS)
def test_sample_memory_does_not_grow_with_k(method):
    # the factors are drawn and composed one at a time: 52 * 3000 labels at
    # once would take several MB, one factor a few KB
    spec = ShuffleSpec(52, parse_bias("0.4,0.6"), 3000)
    sample(ShuffleSpec(52, spec.bias, 1), method, random.Random(0))  # warm the caches
    tracemalloc.start()
    try:
        sample(spec, method, random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _reference_factor(method, n, bias, rng):
    """One shuffle drawn as the samplers' docstrings describe it, from
    ``rng.randrange``, ``rng.shuffle`` and ``rng.random`` alone."""
    den = math.lcm(*(p.denominator for p in bias))
    cumulative = list(itertools.accumulate(p.numerator * (den // p.denominator) for p in bias))

    def label():
        return bisect.bisect_right(cumulative, rng.randrange(den))

    if method == "inverse":
        return standard_permutation([label() for _ in range(n)])
    if method == "interleave":
        word = sorted(label() for _ in range(n))
        rng.shuffle(word)
        return standard_permutation(word)
    if method == "drop":
        left = [0] * len(bias)
        for _ in range(n):
            left[label()] += 1
        tops = list(itertools.accumulate(left))
        arrangement = [0] * n
        for total in range(n, 0, -1):
            r = rng.randrange(total)
            i = next(i for i, acc in enumerate(itertools.accumulate(left)) if r < acc)
            arrangement[total - 1] = tops[i]
            tops[i] -= 1
            left[i] -= 1
        return Permutation(arrangement)
    points = [(label(), rng.random()) for _ in range(n)]  # geometric
    rank = {t: r for r, t in enumerate(sorted(range(n), key=points.__getitem__), start=1)}
    return Permutation([rank[t] for t in sorted(range(n), key=lambda t: points[t][1])])


def _reference_sample(method, n, bias, k, rng):
    product = Permutation.identity(n)
    for _ in range(k):
        product = product * _reference_factor(method, n, bias, rng)
    return product


@st.composite
def sampler_biases(draw):
    """Rational biases whose common denominator has 1-8, 9-32 or over 32
    bits, with zero letters, or halves on the first and last of 256, 257 or
    300 letters."""
    lo, hi = draw(st.sampled_from([(1, 8), (9, 32), (33, 100), (0, 0)]))
    if lo == 0:
        # label 255 still fits in a byte; 257 or 300 letters take one call per draw
        letters = draw(st.sampled_from([256, 257, 300]))
        return tuple(F(1, 2) if i in (0, letters - 1) else F(0) for i in range(letters))
    den = draw(st.integers(2 ** (lo - 1), 2**hi - 1))
    cuts = sorted(draw(st.lists(st.integers(0, den), max_size=5)))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    for _ in range(draw(st.integers(0, 2))):
        weights.insert(draw(st.integers(0, len(weights))), 0)
    return tuple(F(w, den) for w in weights)


class PerCallRandom(random.Random):
    """A generator that overrides getrandbits, recording each width asked for."""

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


@given(bias=sampler_biases(), n=st.sampled_from([0, 1, 2, 13, 52]),
       k=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_samplers_draw_the_randrange_shuffle_and_random_stream(bias, n, k, seed):
    # the batched words of CPython's generator and the one-call-per-draw
    # path of a subclass both give the reference's draws and leave the
    # generator where the reference leaves it
    spec = ShuffleSpec(n, bias, k)
    for method in SAMPLE_METHODS:
        theirs = random.Random(seed)
        want = [_reference_sample(method, n, bias, k, theirs) for _ in range(3)]
        ours = random.Random(seed)
        assert [sample(spec, method, ours) for _ in range(3)] == want
        assert ours.getstate() == theirs.getstate()
        per_call = PerCallRandom(seed)
        per_call.widths = []
        assert [sample(spec, method, per_call) for _ in range(3)] == want
        assert per_call.getstate() == theirs.getstate()
        den = math.lcm(*(p.denominator for p in bias))
        assert max(per_call.widths, default=0) <= max(den.bit_length(), n.bit_length())


@pytest.mark.parametrize("bias", ["0.4,0.6", "1/3,0,2/3", "1/1000003,1000002/1000003"])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_inverse_draws_are_k_calls_of_its_single_sampler(bias, k):
    # sample composes k calls of the table's entry, the first one on the left
    bias = parse_bias(bias)
    _, cumulative, denom = shuffles._categorical(bias)
    ours, theirs = random.Random(k), random.Random(k)
    for _ in range(5):
        product = Permutation.identity(13)
        for _ in range(k):
            order = shuffles._SINGLE_SAMPLERS["inverse"](13, bias, cumulative, denom, theirs)
            # order is pi^{-1} - 1, the inverse order of the factor pi
            product = product * Permutation([x + 1 for x in order]).inverse()
        assert sample(ShuffleSpec(13, bias, k), "inverse", ours) == product
    assert ours.getstate() == theirs.getstate()


def test_label_draws_take_words_in_batches_on_cpythons_generator(monkeypatch):
    widths = []
    draw = random.Random.getrandbits

    def spy(self, k):
        widths.append(k)
        return draw(self, k)

    # still `random.Random.getrandbits`, so the batch path is taken
    monkeypatch.setattr(random.Random, "getrandbits", spy)
    _, cumulative, denom = shuffles._categorical(parse_bias("0.4,0.6"))
    ours = random.Random(5)
    labels = shuffles._draw_labels(500, cumulative, denom, ours)
    monkeypatch.undo()
    theirs = random.Random(5)
    assert labels == [bisect.bisect_right(cumulative, theirs.randrange(denom)) for _ in range(500)]
    assert ours.getstate() == theirs.getstate()
    # 500 words at first, then only the rejected ones again
    assert widths[0] == 32 * 500 and len(widths) < 20
    assert sum(widths) // 32 > 500


def test_label_tables_are_kept_for_a_bounded_number_of_biases():
    for den in range(2, 200):
        shuffles._label_table(shuffles._categorical((F(1, den), F(den - 1, den)))[1], den)
    info = shuffles._label_table.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_substream_refuses_a_seed_outside_64_bits():
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ValueError, match="outside 0..2\\^64-1"):
            substream(seed, 0)
    assert substream(2**64 - 1, 0).random() != substream(0, 0).random()


def test_substream_reproducible_and_distinct():
    a1 = substream(42, 0).random()
    a2 = substream(42, 0).random()
    b = substream(42, 1).random()
    assert a1 == a2
    assert a1 != b
