import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riffle import counting, genfuncs, necklaces, shuffles, verify
from riffle.permutations import (
    DEFAULT_MAX_N,
    MAX_CACHED_N,
    Permutation,
    compositions,
    count_inversions,
    cycle_type,
    descent_composition,
    descent_set,
    inversions,
    partial_sums,
    symmetric_group,
    symmetric_group_list,
    weak_compositions,
    words_with_content,
)
from riffle.qpoly import QPolynomial, q_factorial, q_multinomial

PAPER_WORD_ST = Permutation([3, 4, 1, 2, 5, 9, 10, 11, 6, 12, 7, 8])

perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(Permutation)


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([2, 3])


def test_from_cycles():
    assert Permutation.from_cycles(3, [(2, 3)]) == Permutation([1, 3, 2])
    assert Permutation.from_cycles(3, [(1, 2, 3)]) == Permutation([2, 3, 1])
    assert Permutation.from_cycles(4, []) == Permutation.identity(4)


def test_descent_set_examples():
    assert descent_set(Permutation.identity(3)) == {3}
    assert descent_set(Permutation([2, 1, 3])) == {1, 3}
    # frozen by scanning the one-line form 3 4 1 2 5 9 10 11 6 12 7 8
    assert descent_set(PAPER_WORD_ST) == {2, 8, 10, 12}


def test_inversions_examples():
    assert inversions(Permutation.identity(5)) == 0
    assert inversions(Permutation([3, 2, 1])) == 3
    assert inversions(Permutation([3, 1, 2])) == 2


def test_count_inversions_matches_quadratic_definition():
    # ties are not inversions
    seqs = [(3, 1, 2), (1, 2, 3), (5, 4, 3, 2, 1), (2, 2, 1, 3), (1,), (),
            (1, 1, 1), (2, 1, 2, 1, 2, 1), (3, 3, 1, 1, 2, 2), (0, 2, 2, 0)]
    rng = random.Random(5)
    seqs += [tuple(rng.randrange(4) for _ in range(rng.randrange(13))) for _ in range(300)]
    for seq in seqs:
        brute = sum(
            1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
        )
        assert count_inversions(seq) == brute


@given(perms)
@settings(max_examples=200)
def test_inversions_invariant_under_inverse(p):
    assert inversions(p) == inversions(p.inverse())


def test_cycle_type_examples():
    assert cycle_type(Permutation.identity(3)) == {1: 3}
    assert cycle_type(Permutation([2, 3, 1])) == {3: 1}
    assert cycle_type(PAPER_WORD_ST) == {1: 1, 2: 3, 5: 1}


@given(perms, st.randoms())
@settings(max_examples=100)
def test_cycle_type_conjugation_invariant(p, rnd):
    images = list(range(1, p.n + 1))
    rnd.shuffle(images)
    sigma = Permutation(images)
    assert cycle_type(sigma * p * sigma.inverse()) == cycle_type(p)


@pytest.mark.parametrize("n", range(7))
def test_symmetric_group_equals_validated_construction(n):
    built = list(symmetric_group(n))
    assert built == [Permutation(t) for t in itertools.permutations(range(1, n + 1))]
    assert all(type(p.images) is tuple for p in built)


def test_invert_examples():
    assert Permutation.identity(4).inverse() == Permutation.identity(4)
    assert Permutation([2, 3, 1]).inverse() == Permutation([3, 1, 2])


@pytest.mark.parametrize("n", range(7))
def test_inverse_composes_to_identity_exhaustive(n):
    for p in symmetric_group_list(n):
        assert p * p.inverse() == Permutation.identity(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_inversion_generating_function_is_q_factorial(n):
    total = [Fraction(0)] * (math.comb(n, 2) + 1)
    for p in symmetric_group_list(n):
        total[inversions(p)] += 1
    assert QPolynomial(total) == q_factorial(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_q_multinomial_counts_descent_restricted_inversions(n):
    by_descents = {}
    for p in symmetric_group_list(n):
        by_descents.setdefault(descent_set(p), []).append(p)
    for parts in compositions(n):
        allowed = set(partial_sums(parts))
        coeffs = [Fraction(0)] * (math.comb(n, 2) + 1)
        for des, group in by_descents.items():
            if des <= allowed | {n}:
                for p in group:
                    coeffs[inversions(p)] += 1
        assert QPolynomial(coeffs) == q_multinomial(n, parts)


@pytest.mark.parametrize("n", range(1, 9))
def test_q_multinomial_at_one_is_multinomial(n):
    for parts in compositions(n):
        value = q_multinomial(n, parts)(1)
        want = math.factorial(n)
        for b in parts:
            want //= math.factorial(b)
        assert value == want


def test_descent_composition_roundtrip():
    assert descent_composition({2, 8, 12}, 12) == (2, 6, 4)
    assert partial_sums((2, 6, 4)) == (2, 8, 12)
    with pytest.raises(ValueError):
        descent_composition({2, 3}, 5)


def test_weak_compositions_count():
    assert len(list(weak_compositions(4, 3))) == math.comb(6, 2)
    assert list(weak_compositions(0, 2)) == [(0, 0)]
    assert len(list(compositions(5))) == 16


def _weak_compositions_by_recursion(n, num_parts):
    if num_parts == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _weak_compositions_by_recursion(n - first, num_parts - 1):
            yield (first,) + rest


def _compositions_by_recursion(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions_by_recursion(n - first):
            yield (first,) + rest


@pytest.mark.parametrize("n", range(0, 7))
def test_compositions_keep_lexicographic_order(n):
    assert list(compositions(n)) == list(_compositions_by_recursion(n))
    for parts in range(0, 5):
        assert list(weak_compositions(n, parts)) == list(
            _weak_compositions_by_recursion(n, parts)
        )


def test_compositions_have_no_depth_limit():
    # the recursive versions hit RecursionError past ~1000 parts
    ones = list(weak_compositions(1, 1024))
    assert len(ones) == 1024
    assert ones[0] == (0,) * 1023 + (1,) and ones[-1] == (1,) + (0,) * 1023
    assert next(compositions(1500)) == (1,) * 1500


def _words_by_recursion(counts):
    if not any(counts):
        yield ()
        return
    for letter, c in enumerate(counts):
        if c:
            counts[letter] -= 1
            for rest in _words_by_recursion(counts):
                yield (letter,) + rest
            counts[letter] += 1


@pytest.mark.parametrize("counts", [
    *itertools.product(range(4), repeat=3), (0, 2, 0, 3), (1, 1, 1, 1, 1), (5,), ()])
def test_words_with_content_keep_lexicographic_order(counts):
    assert list(words_with_content(list(counts))) == list(
        _words_by_recursion(list(counts)))


# --- the one size guard ---------------------------------------------------

HALF = (Fraction(1, 2), Fraction(1, 2))

# entry point called at n -> the cap it refuses above (None: no cap)
SIZE_GUARDED = {
    "ShuffleSpec": (lambda n: shuffles.ShuffleSpec(n, HALF), None),
    "_kfold_classes": (lambda n: shuffles._kfold_classes(n, HALF, 1), None),
    "exact_distribution": (lambda n: shuffles.exact_distribution(n, HALF), DEFAULT_MAX_N),
    "exact_distribution_drops": (
        lambda n: shuffles.exact_distribution_drops(n, HALF), DEFAULT_MAX_N),
    "exact_distribution_pile_words": (
        lambda n: shuffles.exact_distribution_pile_words(n, HALF), DEFAULT_MAX_N),
    "exact_kfold_distribution": (
        lambda n: shuffles.exact_kfold_distribution(n, HALF, 2), DEFAULT_MAX_N),
    "tv_to_uniform": (lambda n: shuffles.tv_to_uniform(n, HALF), None),
    "cycle_structure_pgf": (lambda n: genfuncs.cycle_structure_pgf(n, HALF), DEFAULT_MAX_N),
    "fixed_point_pgf": (lambda n: genfuncs.fixed_point_pgf(n, HALF), DEFAULT_MAX_N),
    "inversion_pgf": (lambda n: genfuncs.inversion_pgf(n, HALF), DEFAULT_MAX_N),
    "inversion_pgf_from_compositions": (
        lambda n: genfuncs.inversion_pgf_from_compositions(n, HALF), DEFAULT_MAX_N),
    "translate_identity_check": (
        lambda n: genfuncs.translate_identity_check(n, 2), DEFAULT_MAX_N),
    "brute_count": (lambda n: counting.brute_count(n, bool), DEFAULT_MAX_N),
    "count_descent_det": (lambda n: counting.count_descent_det(n, []), None),
    "symmetric_group_list": (symmetric_group_list, MAX_CACHED_N),
    "_descent_table": (verify._descent_table, MAX_CACHED_N),
}


def _message(call, *args) -> str:
    with pytest.raises(ValueError) as raised:
        call(*args)
    return str(raised.value)


@pytest.mark.parametrize("name", SIZE_GUARDED)
def test_every_size_limit_is_refused_with_the_one_message(name):
    call, cap = SIZE_GUARDED[name]
    assert _message(call, -1) == "negative deck size"
    if cap is not None:
        assert _message(call, cap + 1) == f"n={cap + 1} above cap {cap}"


def test_the_necklace_length_cap_has_the_one_message():
    cap = necklaces.MAX_NECKLACE_LENGTH
    assert _message(necklaces.enumerate_primitive_necklaces, (cap, 1)) == \
        f"n={cap + 1} above cap {cap}"


@pytest.mark.parametrize("call", [
    lambda: shuffles.ShuffleSpec(3, HALF, -1),
    lambda: shuffles._kfold_classes(3, HALF, -1),
    lambda: shuffles.tensor_power(HALF, -1),
    lambda: genfuncs.cycle_structure_pgf(3, HALF, -1),
    lambda: genfuncs.inversion_pgf(3, HALF, -1),
], ids=["ShuffleSpec", "_kfold_classes", "tensor_power", "cycle_structure_pgf",
        "inversion_pgf"])
def test_negative_k_is_refused_with_the_one_message(call):
    assert _message(call) == "negative k"


# --- immutable value types ------------------------------------------------

@pytest.mark.parametrize("make, attr", [
    (lambda: Permutation([2, 1]), "images"),
    (lambda: shuffles.ShuffleSpec(3, HALF), "k"),
    (lambda: shuffles.exact_distribution(2, HALF), "masses"),
    (lambda: genfuncs.cycle_structure_pgf(2, HALF), "terms"),
    (lambda: QPolynomial([1, 2]), "coeffs"),
], ids=["Permutation", "ShuffleSpec", "ExactDistribution", "CyclePolynomial", "QPolynomial"])
def test_value_types_refuse_set_and_delete(make, attr):
    value = make()
    before = (repr(value), getattr(value, attr))
    message = f"{type(value).__name__} is immutable"
    with pytest.raises(AttributeError, match=message):
        setattr(value, attr, None)
    with pytest.raises(AttributeError, match=message):
        delattr(value, attr)
    assert (repr(value), getattr(value, attr)) == before
