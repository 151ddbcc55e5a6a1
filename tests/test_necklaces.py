import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riffle.counting import count_descent_subset, multinomial
from riffle.necklaces import (
    enumerate_primitive_multisets,
    enumerate_primitive_necklaces,
    is_primitive,
    length_multiset,
    letters,
    lyndon_factors,
    min_rotation,
    multiset_key,
    necklace_decomposition,
    primitive_count,
    standardize,
    ubar_forward,
    word_from_permutation,
)
from riffle.permutations import (
    Permutation,
    compositions,
    cycle_type,
    descent_set,
    partial_sums,
    symmetric_group_list,
    weak_compositions,
)

WORD12 = (2, 2, 1, 1, 2, 3, 3, 3, 2, 3, 2, 2)
ST12 = (3, 4, 1, 2, 5, 9, 10, 11, 6, 12, 7, 8)
NECKLACES12 = Counter({(1, 2): 2, (2,): 1, (2, 3): 1, (2, 3, 2, 3, 3): 1})

words = st.integers(1, 3).flatmap(
    lambda a: st.lists(st.integers(1, a), min_size=1, max_size=8)
).map(tuple)


def test_standardize_worked_example():
    assert standardize(WORD12).images == ST12


def test_standardize_trivial_words():
    assert standardize((1,) * 5) == Permutation.identity(5)
    assert standardize((3, 2, 1)) == Permutation([3, 2, 1])
    with pytest.raises(ValueError):
        standardize(())


@given(st.permutations(list(range(1, 9))))
@settings(max_examples=100)
def test_standardize_fixes_permutations(images):
    # a word with all-distinct letters standardizes to itself
    assert standardize(tuple(images)).images == tuple(images)


def test_min_rotation():
    assert min_rotation((2, 3, 2, 3, 3)) == (2, 3, 2, 3, 3)
    assert min_rotation((3, 2, 3, 3, 2)) == (2, 3, 2, 3, 3)
    assert min_rotation((2,)) == (2,)


@given(words, st.integers(0, 7))
@settings(max_examples=150)
def test_min_rotation_invariant_under_rotation(word, shift):
    shift %= len(word)
    rotated = word[shift:] + word[:shift]
    assert min_rotation(rotated) == min_rotation(word)


def test_is_primitive_examples():
    assert is_primitive((1, 1, 2, 2))
    assert not is_primitive((1, 2, 1, 2))
    assert is_primitive((1,)) and is_primitive((3,))


def test_necklace_decomposition_worked_example():
    assert necklace_decomposition(WORD12) == NECKLACES12
    assert letters((2, 3, 2, 3, 3)) == "bcbcc"


def test_necklace_decomposition_constant_word():
    assert necklace_decomposition((1,) * 4) == Counter({(1,): 4})


@pytest.mark.parametrize("a", [2, 3])
def test_decomposition_preserves_cycle_structure(a):
    for n in range(1, 8):
        for word in itertools.product(range(1, a + 1), repeat=n):
            assert length_multiset(necklace_decomposition(word)) == cycle_type(
                standardize(word)
            )


def test_word_from_permutation_examples():
    assert word_from_permutation(Permutation.identity(4), (4,)) == (1, 1, 1, 1)
    assert word_from_permutation(Permutation(ST12), (2, 6, 4)) == WORD12


def test_word_from_permutation_requires_inverse_descents_inside():
    with pytest.raises(ValueError, match="inverse descent"):
        word_from_permutation(Permutation([3, 1, 2]), (1, 2))
    with pytest.raises(ValueError, match="sum"):
        word_from_permutation(Permutation([1, 2]), (3,))


def test_negative_letter_counts_are_refused():
    for call in (primitive_count, enumerate_primitive_necklaces,
                 lambda parts: word_from_permutation(Permutation([1, 2]), parts)):
        with pytest.raises(ValueError) as raised:
            call((3, -1))
        assert str(raised.value) == "negative letter count in (3, -1)"


@pytest.mark.parametrize("n", range(1, 6))
def test_word_from_permutation_names_the_inverse_descents_outside(n):
    for parts in compositions(n):
        allowed = set(partial_sums(parts))
        for p in symmetric_group_list(n):
            bad = descent_set(p.inverse()) - allowed
            if not bad:
                continue
            want = (f"no word with content {parts} standardizes to {p}: "
                    f"inverse descent at {sorted(bad)}")
            with pytest.raises(ValueError) as raised:
                word_from_permutation(p, parts)
            assert str(raised.value) == want


def test_word_round_trips_through_standardize():
    parts = (2, 3)
    allowed = set(partial_sums(parts))
    for p in symmetric_group_list(5):
        if descent_set(p.inverse()) <= allowed:
            assert standardize(word_from_permutation(p, parts)) == p


def test_primitive_count_examples():
    assert primitive_count((1, 1)) == 1
    assert primitive_count((2, 2)) == 1
    assert primitive_count((1, 1, 1)) == 2
    assert primitive_count((3,)) == 0
    assert primitive_count((1,)) == 1
    with pytest.raises(ValueError):
        primitive_count((0, 0))


def test_primitive_count_raises_when_the_sum_is_not_divisible(monkeypatch):
    # with mu = 1 everywhere the sum over d | 4 for content (4,) is 3, not a
    # multiple of 4; the check is a raise, so it also holds under python -O
    monkeypatch.setattr("riffle.necklaces._mobius", lambda d: 1)
    with pytest.raises(ArithmeticError):
        primitive_count((4,))


def test_enumerate_primitive_necklaces_examples():
    assert enumerate_primitive_necklaces((1, 1)) == [(1, 2)]
    assert enumerate_primitive_necklaces((2, 2)) == [(1, 1, 2, 2)]
    assert enumerate_primitive_necklaces((3, 0)) == []
    with pytest.raises(ValueError):
        enumerate_primitive_necklaces((20, 20))


@pytest.mark.parametrize("a", [1, 2, 3])
def test_moebius_count_matches_enumeration(a):
    for total in range(1, 11):
        for parts in weak_compositions(total, a):
            assert primitive_count(parts) == len(enumerate_primitive_necklaces(parts))


def test_ubar_identity_with_single_block():
    out = ubar_forward(Permutation.identity(5), (5,))
    assert out == Counter({(1,): 5})


def test_ubar_two_blocks_of_two():
    parts = (2, 2)
    allowed = set(partial_sums(parts))
    domain = [
        p for p in symmetric_group_list(4) if descent_set(p.inverse()) <= allowed
    ]
    assert len(domain) == 6
    images = {multiset_key(ubar_forward(p, parts)) for p in domain}
    target = {multiset_key(m) for m in enumerate_primitive_multisets(parts)}
    assert len(images) == 6 and images == target


@pytest.mark.parametrize("n", range(1, 7))
def test_ubar_bijective_with_cycle_structure(n):
    perms = symmetric_group_list(n)
    for parts in compositions(n):
        allowed = set(partial_sums(parts))
        domain = [p for p in perms if descent_set(p.inverse()) <= allowed]
        assert len(domain) == count_descent_subset(parts)
        seen = set()
        for p in domain:
            image = ubar_forward(p, parts)
            assert length_multiset(image) == cycle_type(p)
            assert all(is_primitive(neck) for neck in image)
            seen.add(multiset_key(image))
        assert len(seen) == len(domain)
        assert seen == {multiset_key(m) for m in enumerate_primitive_multisets(parts)}


def test_primitive_multisets_of_seven_distinct_letters():
    # one multiset per permutation of S_7
    assert len(enumerate_primitive_multisets((1,) * 7)) == 5040


def test_zero_parts_are_dropped_cleanly():
    # letters that never occur do not disturb content bookkeeping
    assert primitive_count((2, 0, 1)) == primitive_count((2, 1)) == 1
    necks = enumerate_primitive_necklaces((2, 0, 1))
    assert necks == [(1, 1, 3)]


def _necklaces_by_filter(parts):
    # the reference: every word of the content, kept when it is its own least
    # rotation and primitive
    counts, n, found = list(parts), sum(parts), []

    def extend(prefix):
        if len(prefix) == n:
            word = tuple(prefix)
            if word == min_rotation(word) and is_primitive(word):
                found.append(word)
            return
        for letter, left in enumerate(counts, start=1):
            if left:
                counts[letter - 1] -= 1
                prefix.append(letter)
                extend(prefix)
                prefix.pop()
                counts[letter - 1] += 1

    extend([])
    return sorted(found)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_prenecklace_walk_matches_the_filter_over_all_words(a):
    for total in range(1, 11):
        for parts in weak_compositions(total, a):
            assert enumerate_primitive_necklaces(parts) == _necklaces_by_filter(parts), parts


@given(st.lists(st.integers(1, 4), max_size=12).map(tuple))
def test_lyndon_factors_are_a_non_increasing_lyndon_product(word):
    factors = lyndon_factors(word)
    assert sum(factors, ()) == word
    assert all(f == min_rotation(f) and is_primitive(f) for f in factors)
    assert all(f >= g for f, g in zip(factors, factors[1:]))


def _multisets_by_search(parts):
    # the reference: Lyndon words of every nonzero sub-content, picked in
    # non-decreasing order until the content is used up; the least necklace
    # left to pick starts with the least letter left, as Lyndon words start
    # with their least letter
    by_first = {}
    for content in itertools.product(*(range(r + 1) for r in parts)):
        if any(content):
            for neck in enumerate_primitive_necklaces(content):
                by_first.setdefault(neck[0], []).append((neck, content))
    for group in by_first.values():
        group.sort()
    found = []

    def pick(chosen, remaining, start):
        # start: where the group of the last necklace chosen resumes
        least = next((i for i, r in enumerate(remaining, start=1) if r), None)
        if least is None:
            found.append(multiset_key(Counter(chosen)))
            return
        group = by_first[least]
        if not chosen or chosen[-1][0] != least:
            start = 0
        for idx in range(start, len(group)):
            neck, content = group[idx]
            if all(map(int.__le__, content, remaining)):
                pick(chosen + [neck], tuple(map(int.__sub__, remaining, content)), idx)

    pick([], tuple(parts), 0)
    return found


def _check_multisets_against_search(parts):
    keys = [multiset_key(m) for m in enumerate_primitive_multisets(parts)]
    assert len(keys) == len(set(keys)) == multinomial(parts), parts
    assert set(keys) == set(_multisets_by_search(parts)), parts


@pytest.mark.parametrize("n", range(1, 8))
def test_primitive_multisets_match_the_search_over_compositions(n):
    for parts in compositions(n):
        _check_multisets_against_search(parts)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_primitive_multisets_match_the_search_over_weak_compositions(a):
    for total in range(8):
        for parts in weak_compositions(total, a):
            _check_multisets_against_search(parts)


def test_primitive_multisets_refuse_what_enumeration_refuses():
    with pytest.raises(ValueError, match="negative letter count"):
        enumerate_primitive_multisets((2, -1))
    with pytest.raises(ValueError, match="n=17 above cap 16"):
        enumerate_primitive_multisets((9, 8))
