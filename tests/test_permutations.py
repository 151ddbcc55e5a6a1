import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riffle import counting, genfuncs, permutations, shuffles, verify
from riffle.permutations import (
    MAX_CACHED_N,
    Permutation,
    Refused,
    check_listing,
    compositions,
    count_inversions,
    cycle_type,
    descent_composition,
    descent_set,
    inversions,
    multinomial,
    partial_sums,
    symmetric_group,
    symmetric_group_list,
    weak_compositions,
    words_with_content,
)
from riffle.qpoly import QPolynomial, q_multinomial

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
    assert QPolynomial(total) == q_multinomial(n, (1,) * n)  # [n]!


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
        assert multinomial(parts) == want
    assert multinomial(()) == 1 and multinomial((0, 3, 0)) == 1
    with pytest.raises(ValueError):
        multinomial((3, -1))


def test_descent_composition_roundtrip():
    assert descent_composition({2, 8, 12}, 12) == (2, 6, 4)
    assert partial_sums((2, 6, 4)) == (2, 8, 12)
    with pytest.raises(ValueError):
        descent_composition({2, 3}, 5)


@pytest.mark.parametrize("n", range(9))
def test_inverse_descent_indices_match_descent_sets(n):
    want = [sum(2 ** (n - 1 - i) for i in descent_set(p.inverse()) if i < n)
            for p in symmetric_group_list(n)]
    assert list(permutations._inverse_descent_indices(n)) == want


def _walk_with_one_class_moved(n):
    # S_3's identity, alone in the class {3}, moves into the class {2, 3}:
    # still n! indices, and every class but those two keeps its size
    indices = list(permutations._inverse_descent_indices(n))
    if n == 3:
        indices[0] = 1
    return iter(indices)


def test_the_suites_that_read_the_walk_fail_on_a_wrong_one(monkeypatch):
    # the brute descent table and the Gessel domain both read the walk
    config = verify.VerifyConfig(n_max=3, count_n_max=3)
    assert len(list(_walk_with_one_class_moved(3))) == 6
    counting._descent_table.cache_clear()
    try:
        monkeypatch.setattr(counting, "_inverse_descent_indices", _walk_with_one_class_moved)
        monkeypatch.setattr(verify, "_inverse_descent_indices", _walk_with_one_class_moved)
        results = [verify.check_descent_counts(config), verify.check_gessel_bijection(config)]
    finally:
        counting._descent_table.cache_clear()
    assert [(result.passed, result.detail) for result in results] == [
        (False, "n=3, J=[3]: ie=1, det=1, brute=0"),
        (False, "domain size off at n=3, parts=(1, 2)")]


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
    # limited by the listed cards (n * a'^n), not by a cap on n
    "exact_distribution": (lambda n: shuffles.exact_distribution(n, HALF), None),
    "exact_distribution_drops": (
        lambda n: shuffles.exact_distribution_drops(n, HALF), MAX_CACHED_N),
    "exact_distribution_pile_words": (
        lambda n: shuffles.exact_distribution_pile_words(n, HALF), MAX_CACHED_N),
    "exact_kfold_distribution": (
        lambda n: shuffles.exact_kfold_distribution(n, HALF, 2), MAX_CACHED_N),
    "tv_to_uniform": (lambda n: shuffles.tv_to_uniform(n, HALF), None),
    # limited by the cells of their cycle-type table, n * (p(0) + ... + p(n))
    "cycle_structure_pgf": (lambda n: genfuncs.cycle_structure_pgf(n, HALF), None),
    "fixed_point_pgf": (lambda n: genfuncs.fixed_point_pgf(n, HALF), None),
    # limited by the cells of its series, C(n+1,2) * (C(n,2)+1)
    "inversion_pgf": (lambda n: genfuncs.inversion_pgf(n, HALF), None),
    "inversion_pgf_from_compositions": (
        lambda n: genfuncs.inversion_pgf_from_compositions(n, HALF), MAX_CACHED_N),
    "count_descent_det": (lambda n: counting.count_descent_det(n, []), None),
    "symmetric_group_list": (symmetric_group_list, MAX_CACHED_N),
    "_descent_table": (counting._descent_table, MAX_CACHED_N),
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


def test_every_size_cap_is_the_one_cap():
    # each cap= passed to check_size is MAX_CACHED_N or a max_n parameter of its caller
    src = Path(permutations.__file__).parent
    caps = [(path.name, func, kw.value)
            for path in sorted(src.glob("*.py"))
            for func in ast.walk(ast.parse(path.read_text()))
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_size"
            for kw in node.keywords if kw.arg == "cap"]
    assert caps
    for name, func, cap in caps:
        params = {arg.arg for arg in func.args.args + func.args.kwonlyargs}
        cap = ast.unparse(cap)
        assert cap == "MAX_CACHED_N" or (cap == "max_n" and "max_n" in params), \
            (name, func.name, cap)


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


# --- work budgets ---------------------------------------------------------

TINY = (Fraction(1, 10**500), 1 - Fraction(1, 10**500))  # masses of 500 digits a card


@pytest.mark.parametrize("call, estimate", [
    (lambda: check_listing(18, 2, 18, "2^18 pile words"),
     "18 cards * 2^18 pile words is above the budget of 3265920 listed cards"),
    (lambda: shuffles._kfold_classes(8, (Fraction(1, 3),) * 3, 9),
     "class sweep of 2^8 * 3^9 cells is above the budget of 2097152 cells"),
    (lambda: shuffles._kfold_classes(3, TINY, 3),
     "up to 4500 digits (masses of 3 cards at k=3) is above the budget of 4000 digits"),
    (lambda: shuffles.exact_distribution(9, TINY),
     "up to 4500 digits (masses of 9 cards at k=1) is above the budget of 4000 digits"),
    (lambda: shuffles._power_sums(TINY, 2, 5),
     "digits (power sums of degree 2 at k=5) is above the budget of 4000 digits"),
    (lambda: genfuncs.inversion_pgf(54, HALF),
     "= 2126520 cells is above the budget of 2097152 cells"),
    (lambda: genfuncs.cycle_structure_pgf(34, HALF),
     "(the terms to p(34) give 2253282) is above the budget of 2097152 cells"),
    (lambda: genfuncs.cycle_structure_pgf(33, shuffles.parse_bias("1/7,2/7,4/7"), 2),
     "(P_33^2 has a 186-bit denominator), 2158520 cells in all, is above the budget of "
     "2097152 cells"),
    (lambda: counting.count_descent_exact(43, range(1, 44)),
     "(at least 13461795 in all), is above the budget of 262144 terms"),
    (lambda: counting.ncycles_descent_ie(43, range(1, 44)),
     "(at least 13461795 in all), is above the budget of 262144 terms"),
], ids=["check_listing", "_kfold_classes-sweep", "_kfold_classes-masses",
        "exact_distribution-masses", "_power_sums", "inversion_pgf", "cycle_structure_pgf",
        "cycle_structure_pgf-digits", "count_descent_exact", "ncycles_descent_ie"])
def test_every_budget_site_raises_refused_with_its_estimate(call, estimate):
    with pytest.raises(Refused) as refused:
        call()
    assert isinstance(refused.value, ValueError) and str(refused.value).endswith(estimate)


def test_the_budget_wording_lives_only_in_check_budget():
    # string constants, so a phrase split over adjacent literals is found too
    src = Path(permutations.__file__).parent
    tree = ast.parse((src / "permutations.py").read_text())
    check = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "check_budget")
    found = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "above the budget of" in " ".join(node.value.split())]
    assert found
    assert all(name == "permutations.py" and check.lineno <= line <= check.end_lineno
               for name, line in found)


@pytest.mark.parametrize("phrase", ["masses sum to", "negative mass for"])
def test_the_mass_check_wording_lives_only_in_shuffles(phrase):
    # the class table and the measures are checked in shuffles.py alone, so
    # no command handler words a copy of the check
    src = Path(permutations.__file__).parent
    found = {path.name for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and phrase in " ".join(node.value.split())}
    assert found == {"shuffles.py"}


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
