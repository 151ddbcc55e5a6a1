import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riffle.counting import (
    MAX_IE_TERMS,
    _binomial_det,
    _descent_inclusion_exclusion,
    _descent_table,
    count_descent_det,
    count_descent_exact,
    count_descent_subset,
    count_symmetric_matrices,
    involutions_descent_subset,
    multinomial,
    ncycles_descent_det,
    ncycles_descent_ie,
)
from riffle.necklaces import primitive_count
from riffle.permutations import (
    Refused,
    cycle_type,
    descent_composition,
    descent_index,
    descent_set,
    symmetric_group_list,
)
from riffle.shuffles import _kfold_classes


def all_descent_sets(n):
    for r in range(n):
        for inner in combinations(range(1, n), r):
            yield frozenset(inner) | {n}


def descent_buckets(n):
    buckets = {}
    for p in symmetric_group_list(n):
        buckets.setdefault(descent_set(p), []).append(p)
    return buckets


# --- determinant helper ---------------------------------------------------

def int_det(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination
    (Bareiss): the general reference for ``_binomial_det``'s recurrence."""
    m = [row[:] for row in matrix]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, size):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1] if size else 1


def _det_by_expansion(m):
    if not m:
        return 1
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_by_expansion(minor)
    return total


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-6, 6), min_size=k, max_size=k), min_size=k, max_size=k
        )
    )
)
@settings(max_examples=150)
def test_int_det_matches_cofactor_expansion(matrix):
    assert int_det(matrix) == _det_by_expansion(matrix)


def test_int_det_singular_and_empty():
    assert int_det([[1, 2], [2, 4]]) == 0
    assert int_det([]) == 1
    assert int_det([[0, 1], [1, 0]]) == -1  # pivot swap path


def _binomial_matrix(n, positions, d):
    pts = [0, *positions, n]
    return [[math.comb((n - pts[l]) // d, (pts[m + 1] - pts[l]) // d)
             if pts[m + 1] >= pts[l] else 0 for m in range(len(pts) - 1)]
            for l in range(len(pts) - 1)]


@given(st.integers(0, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n - 1))
                        if n > 1 else st.just(frozenset()))))
@settings(max_examples=300, deadline=None)
def test_binomial_det_recurrence_equals_bareiss(case):
    # for each d | n the positions are J's multiples of d, as in ncycles_descent_det
    n, js = case
    for d in [d for d in range(1, n + 1) if n % d == 0] or [1]:
        jd = sorted(j for j in js if j % d == 0)
        assert _binomial_det(n, jd, d) == int_det(_binomial_matrix(n, jd, d))


def test_count_descent_det_of_a_repeated_position_is_zero():
    # a repeated position repeats a matrix row
    assert count_descent_det(5, [2, 2]) == 0 == int_det(_binomial_matrix(5, [2, 2], 1))


# --- plain counts ----------------------------------------------------------

def test_count_descent_subset_examples():
    assert count_descent_subset((4,)) == 1
    assert count_descent_subset((1, 2)) == 3
    assert count_descent_subset((2, 2)) == 6


def test_count_descent_exact_examples():
    assert count_descent_exact(3, {3}) == 1
    assert count_descent_exact(3, {1, 3}) == 2
    assert count_descent_exact(4, {2, 4}) == 5
    with pytest.raises(ValueError):
        count_descent_exact(3, {1})  # must contain n


@pytest.mark.parametrize("route", [count_descent_exact, ncycles_descent_ie, ncycles_descent_det,
                                   involutions_descent_subset])
def test_a_descent_set_holds_only_integer_positions(route):
    # J is checked point by point, not against a set of 1..n, so a position
    # between two integers is refused by name, not read as a gap
    with pytest.raises(ValueError, match=r"descent set not within 1\.\.4: \[1\.5, 4\]"):
        route(4, {1.5, 4})


def test_count_descent_det_examples():
    assert count_descent_det(5, []) == 1
    assert count_descent_det(3, [1]) == 2
    with pytest.raises(ValueError):
        count_descent_det(3, [3])  # strict Stanley indexing: inside 1..n-1


@pytest.mark.parametrize("n", range(1, 8))
def test_descent_count_formulas_match_brute_force(n):
    buckets = descent_buckets(n)
    total = 0
    for deset in all_descent_sets(n):
        want = len(buckets.get(deset, []))
        assert count_descent_exact(n, deset) == want
        assert count_descent_det(n, sorted(deset - {n})) == want
        total += want
    assert total == math.factorial(n)


def test_ncycle_count_examples():
    assert ncycles_descent_ie(4, {4}) == 0
    assert ncycles_descent_ie(3, {1, 3}) == 1
    assert ncycles_descent_det(3, {1, 3}) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_ncycle_formulas_match_brute_force(n):
    buckets = descent_buckets(n)
    total = 0
    for deset in all_descent_sets(n):
        want = sum(1 for p in buckets.get(deset, []) if cycle_type(p) == {n: 1})
        assert ncycles_descent_ie(n, deset) == want
        assert ncycles_descent_det(n, deset) == want
        total += want
    assert total == math.factorial(n - 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_ncycles_with_descents_inside_k_is_primitive_count(n):
    buckets = descent_buckets(n)
    for kset in all_descent_sets(n):
        brute = sum(
            1
            for des, group in buckets.items()
            if des <= kset
            for p in group
            if cycle_type(p) == {n: 1}
        )
        assert brute == primitive_count(descent_composition(kset, n))


def test_ncycles_det_prime_divisor_structure():
    # for prime n only d = 1 and d = n contribute to the divisor sum,
    # so stripping every inner descent must reproduce the d = 1 term alone
    n = 5
    for deset in all_descent_sets(n):
        value = ncycles_descent_det(n, deset)
        assert value == ncycles_descent_ie(n, deset)


# --- involutions ------------------------------------------------------------

def test_symmetric_matrix_examples():
    assert count_symmetric_matrices((2,)) == 1
    assert count_symmetric_matrices((1, 1)) == 2
    assert involutions_descent_subset(2, {1, 2}) == 2
    assert involutions_descent_subset(6, {6}) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_involution_counts_match_brute_force(n):
    involutions = [p for p in symmetric_group_list(n) if cycle_type(p).keys() <= {1, 2}]
    for kset in all_descent_sets(n):
        want = sum(1 for p in involutions if descent_set(p) <= kset)
        assert involutions_descent_subset(n, kset) == want


def _symmetric_matrices_by_brute_force(row_sums):
    """Choose every off-diagonal entry; the diagonal then takes what is left."""
    r = len(row_sums)
    pairs = list(combinations(range(r), 2))
    count = 0
    for values in product(
        *(range(min(row_sums[i], row_sums[j]) + 1) for i, j in pairs)
    ):
        off = [0] * r
        for (i, j), x in zip(pairs, values):
            off[i] += x
            off[j] += x
        count += all(o <= s for o, s in zip(off, row_sums))
    return count


@given(st.lists(st.integers(0, 4), max_size=4))
@settings(max_examples=150)
def test_symmetric_matrix_count_matches_brute_force(row_sums):
    assert count_symmetric_matrices(row_sums) == _symmetric_matrices_by_brute_force(row_sums)


def test_ie_and_det_agree_on_every_descent_set_at_ten():
    n = 10
    for deset in all_descent_sets(n):
        assert count_descent_exact(n, deset) == count_descent_det(n, sorted(deset - {n}))
        assert ncycles_descent_ie(n, deset) == ncycles_descent_det(n, deset)


def test_inclusion_exclusion_is_refused_over_its_term_budget():
    # J = {1..n} holds 2^(n-1) subsets in p(0) + ... + p(n-1) groups: 259,891
    # at n = 42 and 313,065 at n = 43, of up to n gaps each, against
    # MAX_IE_TERMS = 262,144
    n = 43
    with pytest.raises(Refused, match=r"2\^42 subsets .*\(at least 13461795 in all\)"):
        count_descent_exact(n, range(1, n + 1))
    with pytest.raises(Refused, match=f"budget of {MAX_IE_TERMS} terms"):
        ncycles_descent_ie(n, range(1, n + 1))


def _subset_walk(n, deset, term):
    """The plain inclusion-exclusion: one ``term`` call per subset K of J
    with n in K, walked depth first over the points of J in order."""
    points = sorted(deset)
    last = len(points) - 1
    parts = []

    def walk(i, start):
        if i == last:
            parts.append(n - start)
            value = term(tuple(parts))
            parts.pop()
            return value
        cut = points[i]
        parts.append(cut - start)
        kept = walk(i + 1, cut)
        parts.pop()
        return kept - walk(i + 1, start)

    return walk(0, 0)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
@settings(max_examples=200)
def test_grouped_inclusion_exclusion_matches_the_subset_walk(case):
    n, points = case
    deset = points | {n}
    for term in (multinomial, primitive_count):
        assert _descent_inclusion_exclusion(n, deset, term) == _subset_walk(n, deset, term)


def test_grouped_inclusion_exclusion_calls_term_once_per_group():
    calls = []

    def term(parts):
        calls.append(parts)
        return multinomial(parts)

    deset = range(1, 17)
    assert _descent_inclusion_exclusion(16, deset, term) == _subset_walk(16, deset, multinomial)
    assert len(calls) <= 1000  # against 2^15 = 32,768 subsets
    assert all(list(parts) == sorted(parts) for parts in calls)


# --- universal oracle --------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_verify_brute_table_matches_the_permutation_predicates(n):
    # the table the verify suites check against, rebuilt from Permutation:
    # the table lists n-cycles and involutions directly, never filtering
    # S_n, so this filter is their independent check
    counts, ncycles, involutions = ([0] * 2 ** (n - 1) for _ in range(3))
    for p in symmetric_group_list(n):
        index = descent_index(descent_set(p), n)
        counts[index] += 1
        ncycles[index] += cycle_type(p) == {n: 1}
        involutions[index] += cycle_type(p).keys() <= {1, 2}
    assert _descent_table(n) == (tuple(counts), tuple(ncycles), tuple(involutions))


def test_the_brute_table_of_the_empty_deck_has_one_class():
    # S_0 is the empty arrangement: one descent class, no n-cycle, one involution
    assert _descent_table(0) == ((1,), (0,), (1,))


def test_the_brute_table_holds_no_list_of_prefixes():
    # the walk holds the (n-1)! class indices of S_(n-1) next to the
    # 2^(n-1)-entry tables: ~52 kB traced at n = 8, where a list of the n!/2
    # prefixes of S_8 takes ~2 MB
    _descent_table.__wrapped__(8)  # warm the imports
    tracemalloc.start()
    try:
        _descent_table.__wrapped__(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


@pytest.mark.parametrize("n", range(9))
def test_brute_counts_by_descent_set_are_the_class_sizes_by_inverse_descent_set(n):
    # Des(pi) on S_n against the sweep's trie over Des(pi^-1): inversion is a
    # bijection, so each set has as many permutations on both routes
    letters = max(n, 1)  # enough letters for every class to carry mass
    _, sizes, _ = _kfold_classes(n, (Fraction(1, letters),) * letters, 1)
    assert _descent_table(n)[0] == tuple(sizes)
