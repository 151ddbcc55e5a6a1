"""Biased riffle shuffles: samplers, exact measures, and mixing bounds.

A biased a-shuffle cuts an n-card deck into a piles with multinomial(p)
sizes and riffles the piles together uniformly over interleavings.  Reading
the shuffled deck top to bottom gives the one-line form of the resulting
permutation, and that reading defines the measure computed here.

Four equivalent sampling procedures are provided (``interleave``, ``drop``,
``geometric``, ``inverse``), plus exact enumeration routes for three of
them, so the equivalence is testable and not just asserted.  The samplers
take the generator's words in exactly the order ``rng.randrange``,
``rng.shuffle`` and ``rng.random`` would, so seeded streams are those of
those methods, and each yields the k shuffles of a draw as pile words:
``sample`` checks and composes them and validates one permutation per draw.

Composition convention: the shuffle applied first is the *left* factor, so
a k-fold shuffle is ``s1 * s2 * ... * sk``.  With this order, convolving an
a-shuffle with a b-shuffle is exactly an (ab)-shuffle whose bias is the
lexicographic tensor of the two bias vectors (first shuffle = major digit);
``convolve`` below follows the same order.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
import sys
from collections.abc import Callable, Collection, Iterable, Iterator
from fractions import Fraction

from .permutations import (
    MAX_CACHED_N,
    Immutable,
    Permutation,
    _inverse_descent_indices,
    check_budget,
    check_listing,
    check_size,
    multinomial,
    partial_sums,
    standard_permutation,
    symmetric_group_list,
    weak_compositions,
)

# --- bias vectors -------------------------------------------------------

def validate_bias(bias) -> tuple[Fraction, ...]:
    """Check a probability vector: entries >= 0 summing to exactly 1."""
    return _categorical(bias)[0]


def _categorical(bias) -> tuple[tuple[Fraction, ...], tuple[int, ...], int]:
    """``validate_bias``'s vector with its integer thresholds for exact
    categorical sampling: the cumulative numerators over den, the least
    common denominator."""
    probs = tuple(p if type(p) is Fraction else Fraction(p) for p in bias)
    if not probs:
        raise ValueError("bias vector is empty")
    # checked on integer numerators: long tensored biases stay cheap
    weights, den = _weights(probs)
    if min(weights) < 0:
        raise ValueError(f"negative bias entry in {probs}")
    cumulative = tuple(itertools.accumulate(weights))
    if cumulative[-1] != den:
        total = Fraction(cumulative[-1], den)
        raise ValueError(f"bias sums to {total}, not 1 (no silent renormalization)")
    return probs, cumulative, den


def _weights(bias, k: int = 1) -> tuple[list[int], int]:
    """Integer numerators of a rational bias over its least common denominator
    den, or of its k-fold lexicographic tensor over den^k (k >= 0)."""
    den = math.lcm(*(p.denominator for p in bias))
    weights = [p.numerator * (den // p.denominator) for p in bias]
    if len(weights) == 1:
        return [weights[0] ** k], den**k
    tensored = [1]
    for _ in range(k):
        tensored = [x * y for x in tensored for y in weights]
    return tensored, den**k


# Largest exact answer built from power sums, in decimal digits: below
# Python's 4300-digit limit on printing an int, with room for the small
# factors (C(n,2), n!, cycle-type counts) the closed forms multiply in.
MAX_ANSWER_DIGITS = 4000


def _check_masses(bias, n: int, k: int = 1) -> None:
    """Refuse exact masses of the k-fold shuffle of n cards above
    MAX_ANSWER_DIGITS: each is a numerator over den^(kn), den the bias's
    common denominator, so k n log10(den) digits at most."""
    den = math.lcm(*(p.denominator for p in bias))
    # den = 1 takes any k: k * n is never made a float
    digits = k * n * math.log10(den) if den > 1 else 0
    check_budget(f"an exact answer of up to {math.ceil(digits)} digits (masses of {n} cards "
                 f"at k={k})", digits, MAX_ANSWER_DIGITS, "digits")


def _power_sums(bias, n: int, k: int = 1) -> tuple[list[int], int]:
    """Power sums P_e(bias)^k = N_e / D^e of the k-fold tensored bias, e = 1..n,
    as ([1, N_1..N_n], D): N_e = (sum_i w_i^e)^k, D = den^k, zero letters
    dropped.  Entry 0 is a placeholder that no caller reads.

    Below n = 2 the one sum is P_1 = 1, returned as ([1, 1], 1) at any k.
    Above, refused before any k-th power is taken over MAX_ANSWER_DIGITS:
    with d_e the reduced denominator of P_e = s_e / den^e, a product of
    power sums of total degree at most n, raised to the k-th power, has a
    denominator of at most (max_e d_e^(1/e))^(k n).
    """
    if n < 2:
        return [1] * (n + 1), 1
    weights, den = _weights(bias)
    sums = [sum(w**e for w in weights if w) for e in range(1, n + 1)]
    digits = k * n * max(math.log10(den**e // math.gcd(s, den**e)) / e
                         for e, s in enumerate(sums, start=1))
    check_budget(f"an exact answer of up to {math.ceil(digits)} digits (power sums of "
                 f"degree {n} at k={k})", digits, MAX_ANSWER_DIGITS, "digits")
    return [1] + [s**k for s in sums], den**k


def parse_bias(text: str) -> tuple[Fraction, ...]:
    """Parse '1/3,2/3' or '0.25,0.75' into exact Fractions summing to 1.

    Decimals convert exactly over powers of ten, so '0.4' means 2/5.
    """
    try:
        probs = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse bias {text!r}: {exc}") from None
    return validate_bias(probs)


def tensor_bias(p, p2) -> tuple[Fraction, ...]:
    """Lexicographic product (p1*p2'_1, ..., p1*p2'_b, p2*p2'_1, ...).

    This is the bias of the composite shuffle when a p-shuffle is applied
    first and a p2-shuffle second.
    """
    p = validate_bias(p)
    p2 = validate_bias(p2)
    return tuple(x * y for x in p for y in p2)


def tensor_power(bias, k: int) -> tuple[Fraction, ...]:
    """k-fold tensor of a bias vector with itself; k = 0 gives (1,)."""
    check_size(k=k)
    # tensored on integer numerators, dividing once by den^k at the end
    weights, scale = _weights(validate_bias(bias), k)
    return tuple(Fraction(x, scale) for x in weights)


class ShuffleSpec(Immutable):
    """Deck size, bias vector, and number of repeated shuffles; immutable,
    equal and hashable by (n, bias, k)."""

    __slots__ = ("n", "bias", "k", "_thresholds")

    def __init__(self, n: int, bias, k: int = 1):
        check_size(n, k=k)
        probs, cumulative, denom = _categorical(bias)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bias", probs)
        object.__setattr__(self, "k", k)
        # the integer thresholds ``sample`` draws against, built once per spec
        object.__setattr__(self, "_thresholds", (cumulative, denom))

    def _key(self) -> tuple:
        return (self.n, self.bias, self.k)

    def __eq__(self, other: object) -> bool:
        if type(other) is not ShuffleSpec:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ShuffleSpec(n={self.n!r}, bias={self.bias!r}, k={self.k!r})"


# --- exact distributions ------------------------------------------------

def _bucket_sums(keys: Iterable, masses: Collection[Fraction]) -> dict:
    """Exact sums of ``masses`` grouped by the matching ``keys``, the first
    key for the first mass and so on; keys with no mass are absent.

    Each group is summed as integer numerators over the lcm of all the
    denominators and divided once, so no intermediate sum is reduced: one
    gcd per group, where adding Fractions one by one takes several per term.

    >>> _bucket_sums("aba", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    {'a': Fraction(2, 3), 'b': Fraction(1, 3)}
    """
    scale = math.lcm(*{m.denominator for m in masses})
    sums: dict = {}
    for key, m in zip(keys, masses):
        sums[key] = sums.get(key, 0) + m.numerator * (scale // m.denominator)
    return {key: Fraction(total, scale) for key, total in sums.items()}


class ExactDistribution(Immutable):
    """Exact rational probability measure on S_n; zero masses are omitted."""

    __slots__ = ("n", "masses")

    def __init__(self, n: int, masses: dict[Permutation, Fraction]):
        clean: dict[Permutation, Fraction] = {}
        for perm, mass in masses.items():
            if perm.n != n:
                raise ValueError(f"permutation of wrong size: {perm}")
            if mass < 0:
                raise ValueError(f"negative mass for {perm}")
            if mass:
                clean[perm] = mass if type(mass) is Fraction else Fraction(mass)
        total = _bucket_sums(itertools.repeat(None), clean.values()).get(None, Fraction(0))
        _check_total(total.numerator, total.denominator)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masses", clean)

    @classmethod
    def _unchecked(cls, n: int, masses: dict[Permutation, Fraction]) -> "ExactDistribution":
        """Wrap ``masses``, positive Fractions on S_n already known to sum to
        1, as they are: no check in ``__init__`` and no copy."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "n", n)
        object.__setattr__(dist, "masses", masses)
        return dist

    def mass(self, perm: Permutation) -> Fraction:
        return self.masses.get(perm, Fraction(0))

    def support(self) -> list[Permutation]:
        return sorted(self.masses)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExactDistribution)
            and self.n == other.n
            and self.masses == other.masses
        )

    def __hash__(self):
        raise TypeError("unhashable")

    def __repr__(self) -> str:
        return f"ExactDistribution(n={self.n}, support={len(self.masses)})"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "masses": [
                {"perm": list(perm.images), "p": f"{m.numerator}/{m.denominator}"}
                for perm, m in sorted(self.masses.items())
            ],
        }


# Largest k-fold class sweep run, in list cells (2^n * a'^k over the a'
# nonzero letters).  2^21 cells take 0.3-0.35 s at n = 6..9 (CPython 3.11, a
# 2-vCPU Xeon) and admit the largest sweep of `verify --n-max 8` (n = 8,
# a' = 3, k = 8).  The letters are tensored as integers, so the budget also
# bounds n = 1: its 2^20 letters take ~0.15 s and 31 MB max RSS.  It bounds the
# series of ``genfuncs.inversion_pgf`` and the cycle-type table of
# ``genfuncs.cycle_structure_pgf`` too.
MAX_SWEEP_CELLS = 2**21


def _check_total(total: int, scale: int) -> None:
    """Refuse masses whose numerators over ``scale`` sum to ``total`` != scale."""
    if total != scale:
        raise ValueError(f"masses sum to {Fraction(total, scale)}, not 1")


def _kfold_classes(n: int, bias, k: int) -> tuple[list[int], list[int], int]:
    """Numerators N_D over den^(kn) of the k-fold masses of the 2^(n-1)
    inverse-descent classes D of S_n, their sizes |D| and that scale ([1],
    [1], 1 at n = 0), refused by ``_checked_classes``, the table's one check.

    N_D sits at index ``permutations.descent_index(D, n)``: position 1 is the
    high bit, and i is a descent of pi^{-1} iff i+1 sits left of i in pi.  The
    mass is the total mass of weakly increasing words over the k-fold
    tensored bias with strict rises forced at D (the fundamental
    quasisymmetric function F_D at that bias).  The sweep runs on integer
    numerators over the tensored letters, zero letters dropped since no
    counted word uses them.  Classes are the leaves of one depth-first trie
    walk over positions 1..n-1, so classes that agree on {1..j-1} share their
    first j steps: about 2^n * a'^k list cells for a' nonzero letters, which
    is refused over MAX_SWEEP_CELLS before any letter is built, as are
    masses over MAX_ANSWER_DIGITS.  The sweep holds one a'^k row per open
    level, its running sums: each child reads its row lazily from the
    parent's, once.  Beside it rides the size row: ranks[r] counts the
    arrangements of the first j entries whose last entry has rank r among
    them, and the next entry goes above it (prefix sums) or below it (suffix
    sums), so a leaf's row sums to |D|.  A class of d >= a'^k descents needs
    d + 1 letters, so its subtree is filled with 0, in both lists: only the
    classes that can carry mass are walked.

    >>> _kfold_classes(3, (Fraction(1, 2), Fraction(1, 2)), 1)
    ([4, 1, 1, 0], [1, 2, 2, 0], 8)
    """
    letters = [p for p in validate_bias(bias) if p]
    check_size(n, k=k)
    if n == 0:
        return [1], [1], 1  # an empty deck has one arrangement whatever the letters
    # exponents clipped at the budget's bit length keep huge n or k cheap to refuse
    bits = MAX_SWEEP_CELLS.bit_length()
    check_budget(f"class sweep of 2^{n} * {len(letters)}^{k} cells",
                 2 ** min(n, bits) * len(letters) ** min(k, bits), MAX_SWEEP_CELLS, "cells")
    _check_masses(letters, n, k)
    weights, den = _weights(letters, k)
    upper = weights[1:]
    numerators: list[int] = []
    sizes: list[int] = []

    def visit(words: Iterable[int], ranks: list[int], descents: int):
        # words yields, for each letter v, the numerator of the mass of the
        # admissible length-j words ending in v; it is read once, into prefix
        j = len(ranks)
        if j == n:
            numerators.append(sum(words))
            sizes.append(sum(ranks))
            return
        prefix = list(itertools.accumulate(words))
        visit(map(operator.mul, weights, prefix), [0, *itertools.accumulate(ranks)], descents)
        if descents + 1 < len(weights):
            visit(itertools.chain((0,), map(operator.mul, upper, prefix)),
                  [*itertools.accumulate(ranks[::-1])][::-1] + [0], descents + 1)
        else:
            zeros = 2 ** (n - 1 - j)
            numerators.extend(itertools.repeat(0, zeros))
            sizes.extend(itertools.repeat(0, zeros))

    visit(weights, [1], 0)
    return _checked_classes(numerators, sizes, den**n)


def _checked_classes(numerators: list[int], sizes: list[int], scale: int) -> tuple:
    """The class table (numerators, sizes, scale) as given, refused when a
    numerator is negative or when the masses of S_n, sum_D |D| * N_D / scale,
    do not sum to 1."""
    if (least := min(numerators)) < 0:
        raise ValueError(f"negative mass for inverse-descent class {numerators.index(least)}")
    _check_total(sum(map(operator.mul, sizes, numerators)), scale)
    return numerators, sizes, scale


def _content_mass(bias, parts) -> Fraction:
    mass = Fraction(1)
    for p, b in itertools.compress(zip(bias, parts), parts):
        mass *= p ** b
    return mass


def exact_distribution(n: int, bias, *, max_n: int | None = None) -> ExactDistribution:
    """The exact single-shuffle measure: the cut listing of
    ``_cut_numerators`` read back as Fractions.  That listing deals every
    interleaving of every cut card by card and has checked the total, and
    each numerator is a product of positive weights, so the measure is
    wrapped unchecked."""
    check_size(n, cap=max_n)
    numerators, scale = _cut_numerators(n, bias)
    return ExactDistribution._unchecked(n, {Permutation._unchecked(ranks): Fraction(m, scale)
                                            for ranks, m in numerators.items()})


def _cut_numerators(n: int, bias) -> tuple[dict[tuple[int, ...], int], int]:
    """The single-shuffle masses of ``exact_distribution`` as integer
    numerators keyed by the permutation's images, in the order the
    permutations are first reached, and their common scale den^n.

    Each interleaving of a cut (b1..ba) carries mass p1^b1 * ... * pa^ba:
    the uniform choice among interleavings cancels the multinomial factor
    of the cut law.  An interleaving is a pile word, dealt here position by
    position in lexicographic order: the card at position j is the next
    card of pile word[j], so its standard rank is that pile's next unused
    rank, and a full deal is the word's standard permutation with no word
    listed or sorted.  The pile of each card dealt so far is kept on a
    stack, so the walk steps back and on without recursion; the last card
    is placed without a step, since one is left.  Only the a' nonzero
    letters are cut, and their a'^n words are refused by ``check_listing``.  Masses are summed as integer numerators
    w1^b1 * ... * wa'^ba' over den^n (``_weights``), keyed by the ranks,
    and refused unless they sum to den^n.
    """
    letters = [p for p in validate_bias(bias) if p]
    check_size(n)
    check_listing(n, len(letters), n, f"{len(letters)}^{n} pile words")
    _check_masses(letters, n)
    if n == 0:
        return {(): 1}, 1  # an empty deck has one arrangement whatever the letters
    weights, den = _weights(letters)
    numerators: dict[tuple[int, ...], int] = {}
    ranks = [0] * n  # the deal so far: the standard rank at each position
    dealt = [0] * n  # and the pile each position was dealt from
    for parts in weak_compositions(n, len(letters)):
        mass = math.prod(map(pow, weights, parts))
        # standardization sees only the order of the letters, so unused
        # letters are dropped before the words are dealt
        left = list(filter(None, parts))  # the cards each pile has still to deal
        unused = list(itertools.accumulate(left[:-1], initial=1))  # each pile's next rank
        piles = len(left)
        j = pile = 0  # the position being dealt and the first pile to try there
        while True:
            while pile < piles and not left[pile]:
                pile += 1
            if pile < piles:
                ranks[j] = unused[pile]
                if j < n - 1:
                    dealt[j] = pile
                    unused[pile] += 1
                    left[pile] -= 1
                    j, pile = j + 1, 0
                    continue
                key = tuple(ranks)
                numerators[key] = numerators.get(key, 0) + mass
            # position j is done: take back the card before it and try the next pile there
            j -= 1
            if j < 0:
                break
            pile = dealt[j]
            unused[pile] -= 1
            left[pile] += 1
            pile += 1
    _check_total(sum(numerators.values()), den**n)
    return numerators, den**n


def exact_distribution_drops(n: int, bias) -> ExactDistribution:
    """Same measure by the sequential drop rule, as an exact recursion.

    After a multinomial cut, cards drop one at a time, the next card coming
    from pile i with probability A_i / (A_1 + ... + A_a) where A_i counts
    the cards left in pile i.  Drops fill the new deck bottom-up.
    """
    bias = validate_bias(bias)
    check_size(n, cap=MAX_CACHED_N)
    a = len(bias)
    masses: dict[Permutation, Fraction] = {}
    arrangement = [0] * n

    def drop(remaining: list[int], starts: list[int], prob: Fraction):
        total = sum(remaining)
        if total == 0:
            perm = Permutation(arrangement)
            masses[perm] = masses.get(perm, Fraction(0)) + prob
            return
        for i in range(a):
            if remaining[i] == 0:
                continue
            # bottom card of pile i is its highest remaining label
            card = starts[i] + remaining[i]
            arrangement[total - 1] = card
            remaining[i] -= 1
            drop(remaining, starts, prob * Fraction(remaining[i] + 1, total))
            remaining[i] += 1

    for parts in weak_compositions(n, a):
        cut_mass = _content_mass(bias, parts) * multinomial(parts)
        if cut_mass == 0:
            continue
        starts = [0] + list(partial_sums(parts)[:-1])
        drop(list(parts), starts, cut_mass)
    return ExactDistribution(n, masses)


def exact_distribution_pile_words(n: int, bias, *, max_n: int = MAX_CACHED_N) -> ExactDistribution:
    """Same measure via the inverse description.

    Each card is dealt independently into pile w_c with probability
    p_{w_c}; reassembling the piles left to right sorts the cards stably by
    pile label.  That sorted order is the *inverse* of the shuffle, so each
    label word w contributes its mass to the inverse of the sorted
    arrangement, which is the standard permutation of w.
    """
    bias = validate_bias(bias)
    check_size(n, cap=max_n)
    masses: dict[Permutation, Fraction] = {}
    for word in itertools.product(range(len(bias)), repeat=n):
        mass = Fraction(1)
        for letter in word:
            mass *= bias[letter]
        if mass == 0:
            continue
        perm = standard_permutation(word)
        masses[perm] = masses.get(perm, Fraction(0)) + mass
    return ExactDistribution(n, masses)


def mass_by_inverse_descents(n: int, bias) -> dict[frozenset[int], Fraction]:
    """Single-shuffle mass of a permutation, keyed by descent set of its inverse.

    The mass of pi depends only on descent_set(pi^{-1}), a set that contains
    n: it is the fundamental quasisymmetric function of that set evaluated
    at the bias.  The integer class table of ``_kfold_classes`` at k = 1,
    with its sweep budget, read back as one Fraction per class.

    >>> classes = mass_by_inverse_descents(3, (Fraction(1, 2), Fraction(1, 2)))
    >>> classes[frozenset({3})], classes[frozenset({1, 3})], classes[frozenset({1, 2, 3})]
    (Fraction(1, 2), Fraction(1, 8), Fraction(0, 1))
    """
    numerators, _, scale = _kfold_classes(n, bias, 1)
    return {
        frozenset(i for i in range(1, n + 1) if i == n or index >> (n - 1 - i) & 1):
            Fraction(m, scale)
        for index, m in enumerate(numerators)
    }


def _kfold_walk(
    n: int, bias, k: int, *, labels=None
) -> tuple[list[int], int, Iterator[tuple[tuple, int]]]:
    """The numerators and scale of ``_kfold_classes`` and a walk over S_n in
    lexicographic order that yields each permutation pi whose class has
    nonzero mass, with its class index.

    pi is yielded as (labels[pi(1)-1], ..., labels[pi(n)-1]); the labels
    default to the cards 1..n, which yields pi's images.  S_n is walked as
    plain tuples, so n is capped at MAX_CACHED_N first, before the n labels
    are read (an iterator of them may stand for a huge n), and its class
    indices, those of ``permutations._inverse_descent_indices``, are read
    once, by the walk.
    """
    check_size(n, cap=MAX_CACHED_N)
    numerators, _, scale = _kfold_classes(n, bias, k)
    perms = itertools.permutations(range(1, n + 1) if labels is None else labels)
    indices, selected = itertools.tee(_inverse_descent_indices(n))
    return numerators, scale, itertools.compress(
        zip(perms, indices), map(numerators.__getitem__, selected))


def exact_kfold_distribution(n: int, bias, k: int) -> ExactDistribution:
    """Exact measure of k repeated shuffles, via the tensored bias.

    Avoids convolving S_n-sized tables: the k-fold measure is the single
    shuffle with bias tensor_power(bias, k), so it is constant on each
    inverse-descent class.  The integer class table of ``_kfold_classes``
    gives one Fraction per class, and each permutation of S_n takes its
    class's through the walk of ``_kfold_walk``.
    """
    numerators, scale, walk = _kfold_walk(n, bias, k)
    class_mass = [Fraction(m, scale) for m in numerators]
    return ExactDistribution(
        n, {Permutation._unchecked(images): class_mass[index] for images, index in walk}
    )


def tv_to_uniform(n: int, bias, k: int = 1) -> Fraction:
    """Exact distance from the k-fold shuffle to uniform, summed over classes.

    The mass N_D / S is constant on each inverse-descent class D, and both
    measures sum to 1, so the distance is sum_D |D| * max(N_D * n! - S, 0)
    / (S * n!), on integers, over the classes of the checked table of
    ``_kfold_classes`` that it gives a size: the others carry no mass.

    >>> tv_to_uniform(3, (Fraction(1, 2), Fraction(1, 2)))
    Fraction(1, 3)
    """
    numerators, sizes, scale = _kfold_classes(n, bias, k)
    fact = math.factorial(n)
    total = sum(size * max(m * fact - scale, 0)
                for size, m in itertools.compress(zip(sizes, numerators), sizes))
    return Fraction(total, scale * fact)


def uniform_distribution(n: int) -> ExactDistribution:
    mass = Fraction(1, math.factorial(n))
    return ExactDistribution(n, {p: mass for p in symmetric_group_list(n)})


def convolve(d1: ExactDistribution, d2: ExactDistribution) -> ExactDistribution:
    """Law of a d1-shuffle followed by a d2-shuffle.

    The first factor acts first and is the left factor of the composite:
    (d1 * d2)(pi) = sum_sigma d1(sigma) d2(sigma^{-1} pi).  This is the
    order under which convolving an a-shuffle with a b-shuffle equals the
    (ab)-shuffle with lexicographically tensored bias.
    """
    if d1.n != d2.n:
        raise ValueError(f"size mismatch: {d1.n} vs {d2.n}")
    out: dict[Permutation, Fraction] = {}
    for s1, m1 in d1.masses.items():
        for s2, m2 in d2.masses.items():
            c = s1 * s2
            out[c] = out.get(c, Fraction(0)) + m1 * m2
    return ExactDistribution(d1.n, out)


def tv_distance(d1: ExactDistribution, d2: ExactDistribution) -> Fraction:
    """Total variation distance (1/2) sum |d1(pi) - d2(pi)|, exact."""
    if d1.n != d2.n:
        raise ValueError(f"size mismatch: {d1.n} vs {d2.n}")
    keys = set(d1.masses) | set(d2.masses)
    return sum((abs(d1.mass(p) - d2.mass(p)) for p in keys), Fraction(0)) / 2


# --- mixing bounds ------------------------------------------------------

def suf_bound(spec: ShuffleSpec) -> Fraction:
    """Upper bound C(n,2) * (sum p_i^2)^k on tv(k-fold shuffle, uniform).

    Comes from the strong uniform time at which all cards have distinct
    pile-assignment histories; valid (and useful) whenever it is below 1.
    """
    if math.comb(spec.n, 2) == 0:
        return Fraction(0)  # before P_2^k, which can have billions of digits
    sums, scale = _power_sums(spec.bias, 2, spec.k)
    return Fraction(math.comb(spec.n, 2) * sums[2], scale**2)


def _collision_steps(n: int, gap, inverse) -> float:
    """log(n) / log(1/ssq): the shuffles over which ssq^k falls by a factor
    n, for ssq = sum p_i^2 of a bias with exact complement gap = 1 - ssq,
    0 < gap <= 1, and ``inverse`` the caller's rounded 1/ssq.

    Below gap = 1/4 the log is -log1p(-gap): 1/ssq would round to a float
    near 1 (to 1 itself within about 1e-16 of a one-letter bias), whose log
    keeps few digits or is 0.  Above, it is log(inverse), so the step counts
    print as they always have.  The count overflows to inf once gap is
    below about 1e-308, and stays inf where gap rounds to 0.
    """
    if gap >= Fraction(1, 4):
        return math.log(n) / math.log(inverse)
    base = -math.log1p(-float(gap))
    return math.log(n) / base if base else math.inf


def lalley_theta(p1) -> float:
    """Exponent theta solving p1^theta + p2^theta = (p1^2 + p2^2)^2.

    The left side is strictly decreasing in theta for 0 < p1 < 1, so the
    root is unique; found by bisection to width 1e-12 and validated by
    residual, not by a citation.  The equation is symmetric in p1 and p2,
    so it is solved for s = min(p1, p2) and q = 1 - (p1^2 + p2^2) = 2 s (1 - s),
    both exact before they are rounded, as
    s^theta + expm1(theta log1p(-s)) = expm1(2 log1p(-q)): 1 - s is never
    rounded, so a bias within 1e-16 of a one-letter bias keeps its root,
    which tends to 4 as s tends to 0.  Below the normal float range of s
    the root is 4 to double precision (it is 4 - 2s + O(s^2)).
    """
    if not 0 < p1 < 1:
        raise ValueError(f"p1 must be strictly between 0 and 1: {float(p1)}")
    p1 = Fraction(p1)
    small = min(p1, 1 - p1)
    s = float(small)
    if s < sys.float_info.min:
        return 4.0
    log_s = math.log1p(-s)
    rhs = math.expm1(2.0 * math.log1p(-float(2 * small * (1 - small))))

    def f(theta: float) -> float:
        return s ** theta + math.expm1(theta * log_s) - rhs

    lo = 0.0  # f(0) = 1 - rhs > 0
    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ArithmeticError("no bracket found for theta")
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def lalley_lower_steps(n: int, p1) -> float:
    """Lower-bound step count (3+theta)/4 * log_{1/(p1^2+p2^2)} n.

    At p1 = 1/2 this is 1.5 * log2(n).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    theta = lalley_theta(p1)
    p, p2 = float(p1), 1.0 - float(p1)
    gap = 2 * Fraction(p1) * (1 - Fraction(p1))  # 1 - (p1^2 + p2^2), exact
    return (3.0 + theta) / 4.0 * _collision_steps(n, gap, 1.0 / (p * p + p2 * p2))


# --- samplers -----------------------------------------------------------

def substream(seed: int, index: int) -> random.Random:
    """Derive an independently seeded RNG stream from a 64-bit master seed,
    refusing a seed outside 0..2^64-1.

    Stream i is random.Random(splitmix64(seed + (i+1)*GOLDEN)); the
    SplitMix64 finalizer decorrelates nearby seeds, so parallel workers can
    use substream(seed, worker_index) reproducibly.
    """
    mask = (1 << 64) - 1
    if not 0 <= seed <= mask:
        # the mix is modulo 2^64, so -1 would draw the stream of 2^64 - 1
        raise ValueError(f"seed {seed} is outside 0..2^64-1")
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return random.Random(z)


@functools.lru_cache(maxsize=4)
def _draw_bounds(n: int) -> tuple[tuple[int, int], ...]:
    """(i, (i + 1).bit_length()) for i = n - 1 down to 0: the largest value
    and the width of each ``rng.randrange(i + 1)`` draw that the shuffle and
    drop loops take card by card, so no card calls ``bit_length``."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, -1, -1))


def _shuffle(x: list, getrandbits) -> None:
    """``rng.shuffle(x)`` in place, consuming the same bits of the stream."""
    for i, bits in _draw_bounds(len(x))[:-1]:  # i = 0 draws nothing
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


@functools.lru_cache(maxsize=32)
def _label_table(cumulative: tuple[int, ...], denom: int) -> tuple[bytes, bytes]:
    """For the top byte of a 32-bit generator word, with denom below 2^8 and
    at most 256 letters: the category of each byte value (for
    ``bytes.translate``), and the byte values whose draw is denom or more,
    which are rejected.  Building it costs ~50-70 us, so it is kept per bias."""
    shift = 8 - denom.bit_length()
    rejected = bytes(b for b in range(256) if b >> shift >= denom)
    # translate deletes the rejected bytes first, so their entry (0) is never read
    table = bytes(bisect.bisect_right(cumulative, b >> shift) if b >> shift < denom else 0
                  for b in range(256))
    return table, rejected


def _byte_table(cumulative, denom: int, rng: random.Random) -> tuple[bytes, bytes] | None:
    """``_label_table`` when a category draw can be read as the top byte of
    one 32-bit word: on CPython's own generator, with denom below 2^8 and at
    most 256 letters.  None otherwise, and the draws go one call at a time."""
    if (denom.bit_length() <= 8 and len(cumulative) <= 256
            and type(rng).getrandbits is random.Random.getrandbits):
        return _label_table(tuple(cumulative), denom)
    return None


def _draw_labels(n: int, cumulative, denom: int, rng: random.Random) -> bytes | list[int]:
    """Pile labels of n independent cards: category of a uniform draw below
    denom, drawn as ``rng.randrange(denom)`` would draw it.

    ``getrandbits(b)`` for b <= 32 is one 32-bit word of CPython's Mersenne
    Twister shifted right by 32 - b, and ``getrandbits(32 * m)`` is m
    consecutive words, the first one lowest.  So under ``_byte_table``'s
    condition each draw is the top byte of a word: the words still missing
    are drawn at once, and one ``bytes.translate`` deletes the rejected top
    bytes and maps the rest to their categories, until n labels are drawn,
    which come back as bytes.  That takes the same words as one draw at a
    time, so the ``inverse`` sampler takes a run of labels in one call.  Any
    other generator or bias draws a list, one ``getrandbits`` call at a
    time: ``rng.randrange(denom)``'s loop written out in place, as are the
    draws of ``_shuffle``, ``_single_drop`` and ``_single_geometric``, since
    a helper called per card cost ~9% of the ``sampling`` benchmark's wall
    time.  Decoding the shuffle and drop draws from bytes in a Python loop
    measured slower than one call per draw.
    """
    getrandbits = rng.getrandbits
    tables = _byte_table(cumulative, denom, rng)
    if tables is not None:
        table, rejected = tables
        labels = b""
        while len(labels) < n:
            need = n - len(labels)
            top = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            labels += top.translate(table, rejected)
        return labels
    bits = denom.bit_length()
    labels = []
    for _ in range(n):
        r = getrandbits(bits)
        while r >= denom:
            r = getrandbits(bits)
        labels.append(bisect.bisect_right(cumulative, r))
    return labels


# Labels the ``inverse`` sampler draws in one call, and pile words ``sample``
# composes in one run: those of up to _LABEL_RUN // n shuffles, one at least.
# So memory is bounded by the run, not by k * n: at n = 52 and k = 3000 the
# traced peak is 24 kB with runs of 988 labels and 76 kB with runs of 4056.
_LABEL_RUN = 1024
_PARTITION_LETTERS = 4  # most piles ``sample`` partitions by; with more, a sort is cheaper
# pile p's ``bytes.translate`` table: 1 for letter p, 0 for every other byte
_PILE_MASKS = tuple(bytes(p) + b"\1" + bytes(255 - p) for p in range(_PARTITION_LETTERS))


# Each single sampler is a generator single(n, k, cumulative, denom, rng)
# that reads the a-letter bias as its thresholds (``_categorical``'s
# cumulative numerators over denom) and yields the k shuffles of one draw,
# first shuffle first, each as its pile word, unchecked: the pile 0..a-1 of
# the card at each position, as bytes or a list.  Its stable argsort is the
# shuffle's inverse order.

def _single_interleave(n, k, cumulative, denom, rng) -> Iterator[list[int]]:
    getrandbits = rng.getrandbits
    for _ in range(k):
        # sorted labels are the pile word of the drawn cut, pile i once per card
        word = sorted(_draw_labels(n, cumulative, denom, rng))
        _shuffle(word, getrandbits)  # uniform over distinct interleavings
        yield word


def _single_drop(n, k, cumulative, denom, rng) -> Iterator[list[int]]:
    getrandbits = rng.getrandbits
    bounds = _draw_bounds(n)
    piles = range(len(cumulative))
    for _ in range(k):
        labels = _draw_labels(n, cumulative, denom, rng)
        remaining = [labels.count(i) for i in piles]  # multinomial(n; p) pile sizes
        word = [0] * n
        for last, bits in bounds:
            # the card at position last + 1 comes from pile i w.p. remaining[i] / (last + 1)
            r = getrandbits(bits)
            while r > last:
                r = getrandbits(bits)
            i = 0
            while r >= (size := remaining[i]):
                r -= size
                i += 1
            remaining[i] = size - 1
            word[last] = i
        yield word


def _single_geometric(n, k, cumulative, denom, rng) -> Iterator[list[int]]:
    # n points in [0,1]: interval i w.p. p_i, uniform inside; x = (i-1+u)/a.
    # Sorting by x is sorting by (i, u); the map x -> a*x mod 1 leaves u, so
    # the pile word is the categories in u order.  Each point takes its
    # category and then its u from the stream, so the category draws are
    # inlined: under _byte_table's condition each reads its word's top byte
    # (getrandbits(8) takes the same one word), and one translate maps them.
    getrandbits, uniform = rng.getrandbits, rng.random
    tables = _byte_table(cumulative, denom, rng)
    if tables is not None:
        width, limit = 8, denom << (8 - denom.bit_length())
    else:
        width, limit = denom.bit_length(), denom
    for _ in range(k):
        draws, us = [], []
        for _ in range(n):
            r = getrandbits(width)
            while r >= limit:
                r = getrandbits(width)
            draws.append(r)
            us.append(uniform())
        cats = (bytes(draws).translate(tables[0]) if tables is not None
                else [bisect.bisect_right(cumulative, r) for r in draws])
        yield list(map(cats.__getitem__, sorted(range(n), key=us.__getitem__)))


def _single_inverse(n, k, cumulative, denom, rng) -> Iterator[bytes | list[int]]:
    # the labels are the pile words, and a run of shuffles takes them at once
    run = max(1, _LABEL_RUN // max(n, 1))
    for first in range(0, k, run):
        count = min(run, k - first)
        labels = _draw_labels(count * n, cumulative, denom, rng)
        for j in range(count):
            yield labels[j * n:(j + 1) * n]


_SINGLE_SAMPLERS: dict[str, Callable[..., Iterator[bytes | list[int]]]] = {
    "interleave": _single_interleave,
    "drop": _single_drop,
    "geometric": _single_geometric,
    "inverse": _single_inverse,
}
SAMPLE_METHODS = tuple(_SINGLE_SAMPLERS)


def _bad_word(method: str, n: int, a: int) -> ValueError:
    return ValueError(f"a {method} shuffle drew a word that is not {n} piles in 0..{a - 1}")


def sample(spec: ShuffleSpec, method: str = "inverse", rng: random.Random | None = None) -> Permutation:
    """Draw one permutation from the k-fold biased shuffle.

    The k single shuffles are sampled independently and composed with the
    first shuffle as the left factor, reproducibly for a seeded ``rng``.
    The samplers take the words of ``rng.getrandbits`` exactly as
    ``rng.randrange``, ``rng.shuffle`` and ``rng.random`` would, so ``rng``
    must be a ``random.Random`` whose ``randrange`` draws from
    ``getrandbits`` (any that does not override ``random()`` alone).
    CPython's own generator gives the label draws in batches (see
    ``_draw_labels``), a subclass that overrides ``getrandbits`` one call
    per draw, with the same stream and end state.

    Each shuffle comes as its pile word, refused unless it is n piles in
    0..a-1.  Up to ``_PARTITION_LETTERS`` piles, a run of up to ``_LABEL_RUN
    // n`` words is composed from its last shuffle back, then into the
    product: x composed with a shuffle's inverse order is the concatenation
    over the piles of ``itertools.compress(x, word == pile)``, all in C.
    With more piles each word is sorted instead.  Memory stays O(n + run),
    and a product that is not a permutation of 1..n is refused.
    """
    if method not in _SINGLE_SAMPLERS:
        raise ValueError(f"unknown method {method!r}; pick one of {SAMPLE_METHODS}")
    if rng is None:
        raise ValueError("a seeded random.Random is required")
    n, a = spec.n, len(spec.bias)
    cumulative, denom = spec._thresholds
    words = _SINGLE_SAMPLERS[method](n, spec.k, cumulative, denom, rng)
    masks = _PILE_MASKS[:a]
    inv = range(n)  # (s1 * ... * sj)^{-1} = sj^{-1} * ... * s1^{-1}, 0-based
    if len(masks) < a:
        for word in words:
            if len(word) != n:
                raise _bad_word(method, n, a)
            key = word if type(word) is list else list(word)  # a list key sorts ~1 us faster at n = 52
            order = sorted(range(n), key=key.__getitem__)
            # the order puts a least letter first and a greatest last
            if n and not 0 <= key[order[0]] <= key[order[-1]] < a:
                raise _bad_word(method, n, a)
            inv = order if type(inv) is range else list(map(order.__getitem__, inv))
    else:
        run = max(1, _LABEL_RUN // max(n, 1))
        for block in iter(lambda: list(itertools.islice(words, run)), []):
            x = range(n)
            for word in reversed(block):
                try:
                    word = bytes(word)
                except ValueError:  # a letter outside 0..255
                    raise _bad_word(method, n, a) from None
                parts = []
                for mask in masks:
                    parts += itertools.compress(x, word.translate(mask))
                # a letter outside 0..a-1 leaves its card out of every pile
                if len(word) != n or len(parts) != n:
                    raise _bad_word(method, n, a)
                x = parts
            inv = x if type(inv) is range else list(map(x.__getitem__, inv))
    images = [0] * n
    for card, position in enumerate(inv, start=1):
        images[position] = card
    # entries are positions of the deck: a slot left empty means another was filled twice
    if len(inv) != n or 0 in images:
        raise ValueError(f"not a permutation of 1..{n}: {tuple(images)!r}")
    return Permutation._unchecked(tuple(images))
