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
those methods, and they return each shuffle as an unchecked inverse order:
``sample`` composes the k of them and validates one permutation per draw.

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
from fractions import Fraction
from typing import Callable, Iterator

from .counting import multinomial
from .permutations import (
    DEFAULT_MAX_N,
    MAX_CACHED_N,
    Immutable,
    Permutation,
    check_size,
    partial_sums,
    standard_permutation,
    standard_ranks,
    symmetric_group_list,
    weak_compositions,
    words_with_content,
)

SAMPLE_METHODS = ("interleave", "drop", "geometric", "inverse")


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


def answer_refusal(bias, n: int, k: int = 1) -> str | None:
    """Why exact answers built from the power sums P_e^k, e = 0..n, of a
    bias are refused, or None when they fit in MAX_ANSWER_DIGITS.

    With d_e the reduced denominator of P_e, a product of power sums of
    total degree at most n, raised to the k-th power, has a denominator of
    at most (max_e d_e^(1/e))^(k n): for P_2^k of a fair bias that is 2^k,
    for P_n^k of 1/3,2/3 it is 3^(k n).  No k-th power is taken.
    """
    weights, den = _weights(bias)
    # P_e = s_e / den^e with s_e at most den^e; zero letters add nothing
    digits = k * n * max((math.log10(den**e // math.gcd(sum(w**e for w in weights), den**e)) / e
                          for e in range(1, n + 1)), default=0)
    if digits <= MAX_ANSWER_DIGITS:
        return None
    return (f"an exact answer of up to {math.ceil(digits)} digits (power sums of "
            f"degree {n} at k={k}) is above the budget of {MAX_ANSWER_DIGITS} digits")


def mass_refusal(bias, n: int, k: int = 1) -> str | None:
    """Why exact masses of the k-fold shuffle of n cards are refused, or None
    when they fit in MAX_ANSWER_DIGITS: each is a numerator over den^(kn),
    den the bias's common denominator, so k n log10(den) digits at most."""
    den = math.lcm(*(p.denominator for p in bias))
    # den = 1 takes any k: k * n is never made a float
    digits = k * n * math.log10(den) if den > 1 else 0
    if digits <= MAX_ANSWER_DIGITS:
        return None
    return (f"an exact answer of up to {math.ceil(digits)} digits (masses of {n} cards "
            f"at k={k}) is above the budget of {MAX_ANSWER_DIGITS} digits")


def _power_sums(bias, n: int, k: int = 1) -> tuple[list[int], int]:
    """Power sums P_e(bias)^k = N_e / D^e of the k-fold tensored bias, e = 0..n,
    as ([N_0..N_n], D): N_e = (sum_i w_i^e)^k, D = den^k, zero letters dropped.

    Refused, before any k-th power is taken, by ``answer_refusal``.
    """
    refusal = answer_refusal(bias, n, k)
    if refusal is not None:
        raise ValueError(refusal)
    weights, den = _weights(bias)
    weights = [w for w in weights if w]
    return [sum(w**e for w in weights) ** k for e in range(n + 1)], den**k


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
        # summed as integer numerators over the lcm of the denominators
        den = math.lcm(*{m.denominator for m in clean.values()})
        total = sum(m.numerator * (den // m.denominator) for m in clean.values())
        if total != den:
            raise ValueError(f"masses sum to {Fraction(total, den)}, not 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masses", clean)

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
# bounds n = 1: its 2^20 letters take ~0.15 s and 31 MB max RSS.  It bounds
# the class-size walk of ``tv_to_uniform`` too, which stays within the sweep's trie.
MAX_SWEEP_CELLS = 2**21


def sweep_refusal(n: int, letters: int, k: int) -> str | None:
    """Why a k-fold class sweep over ``letters`` nonzero letters is refused,
    or None when its 2^n * letters^k cells are within MAX_SWEEP_CELLS."""
    # exponents clipped at the budget's bit length keep huge n or k cheap to refuse
    bits = MAX_SWEEP_CELLS.bit_length()
    if 2 ** min(n, bits) * letters ** min(k, bits) <= MAX_SWEEP_CELLS:
        return None
    return (f"class sweep of 2^{n} * {letters}^{k} cells is above "
            f"the budget of {MAX_SWEEP_CELLS} cells")


def _kfold_classes(n: int, bias, k: int) -> tuple[list[int], int]:
    """Numerators N_D over den^(kn) of the k-fold masses of the 2^(n-1)
    inverse-descent classes D of S_n ([1] over 1 at n = 0).

    N_D sits at index sum_{i in D, i < n} 2^(n-1-i): position 1 is the high
    bit, and i is a descent of pi^{-1} iff i+1 sits left of i in pi.  The
    mass is the total mass of weakly increasing words over the k-fold
    tensored bias with strict rises forced at D (the fundamental
    quasisymmetric function F_D at that bias).  The sweep runs on integer
    numerators over the tensored letters, zero letters dropped since no
    counted word uses them.  Classes are the leaves of a depth-first trie
    over positions 1..n-1, so classes that agree on {1..j-1} share their
    first j steps: about 2^n * a'^k list cells for a' nonzero letters, which
    is refused over MAX_SWEEP_CELLS before any letter is built, as are
    masses over MAX_ANSWER_DIGITS.  A class of d >= a'^k descents needs
    d + 1 letters, so its subtree is filled with 0.
    """
    probs = validate_bias(bias)
    check_size(n, k=k)
    if n == 0:
        return [1], 1  # an empty deck has one arrangement whatever the letters
    letters = [p for p in probs if p]
    refusal = sweep_refusal(n, len(letters), k) or mass_refusal(letters, n, k)
    if refusal is not None:
        raise ValueError(refusal)
    weights, den = _weights(letters, k)
    out: list[int] = []

    def visit(words: list[int], j: int, descents: int):
        # words[v]: numerator of the mass of admissible length-j words ending in v
        if j == n:
            out.append(sum(words))
            return
        prefix = list(itertools.accumulate(words))
        visit(list(map(operator.mul, weights, prefix)), j + 1, descents)
        if descents + 1 < len(weights):
            visit([0, *map(operator.mul, weights[1:], prefix)], j + 1, descents + 1)
        else:
            out.extend(itertools.repeat(0, 2 ** (n - 1 - j)))

    visit(weights, 1, 0)
    return out, den**n


def _content_mass(bias, parts) -> Fraction:
    mass = Fraction(1)
    for p, b in itertools.compress(zip(bias, parts), parts):
        mass *= p ** b
    return mass


def exact_distribution(
    n: int, bias, *, max_n: int = DEFAULT_MAX_N
) -> ExactDistribution:
    """The exact single-shuffle measure, by enumerating cuts x interleavings.

    Each interleaving of a cut (b1..ba) carries mass p1^b1 * ... * pa^ba:
    the uniform choice among interleavings cancels the multinomial factor
    of the cut law.  An interleaving is a pile word: position j receives
    the next card of pile word[j], so the deck reading is the word's
    standard permutation.  Masses are summed as integer numerators
    w1^b1 * ... * wa^ba over den^n (``_weights``), keyed by the standard
    ranks, and read back as one Fraction per permutation in the order the
    permutations are first reached.
    """
    bias = validate_bias(bias)
    check_size(n, cap=max_n)
    refusal = mass_refusal(bias, n)
    if refusal is not None:
        raise ValueError(refusal)
    weights, den = _weights(bias)
    numerators: dict[tuple[int, ...], int] = {}
    for parts in weak_compositions(n, len(bias)):
        mass = math.prod(map(pow, weights, parts))
        if mass == 0:
            continue
        # standardization sees only the order of the letters, so unused
        # letters are dropped before the words are listed
        for word in words_with_content(list(filter(None, parts))):
            ranks = tuple(standard_ranks(word))
            numerators[ranks] = numerators.get(ranks, 0) + mass
    scale = den**n
    return ExactDistribution(n, {Permutation._unchecked(ranks): Fraction(m, scale)
                                 for ranks, m in numerators.items()})


def exact_distribution_drops(n: int, bias) -> ExactDistribution:
    """Same measure by the sequential drop rule, as an exact recursion.

    After a multinomial cut, cards drop one at a time, the next card coming
    from pile i with probability A_i / (A_1 + ... + A_a) where A_i counts
    the cards left in pile i.  Drops fill the new deck bottom-up.
    """
    bias = validate_bias(bias)
    check_size(n, cap=DEFAULT_MAX_N)
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


def exact_distribution_pile_words(
    n: int, bias, *, max_n: int = DEFAULT_MAX_N
) -> ExactDistribution:
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
    numerators, scale = _kfold_classes(n, bias, 1)
    return {
        frozenset(i for i in range(1, n + 1) if i == n or index >> (n - 1 - i) & 1):
            Fraction(m, scale)
        for index, m in enumerate(numerators)
    }


def _inverse_descent_indices(n: int) -> list[int]:
    """The class index of ``_kfold_classes`` of each pi in S_n, in
    lexicographic order: i in Des(pi^{-1}), i.e. i+1 sits left of i in pi,
    sets the bit 2^(n-1-i).

    Built up from S_1 by the leading card: in pi = (a, rest), card a sits
    leftmost, so a-1 is a descent of pi^{-1} and a is not; every other pair
    of cards i, i+1 keeps its order in rest, whose standardization runs
    through S_{m-1} in lexicographic order as rest does.  So the indices of
    S_m are those of S_{m-1} mapped through one table per leading card a,
    which drops the bit of the standardized pair (a-1, a) and puts the
    bits 1 and 0 of the pairs (a-1, a) and (a, a+1) in its place.
    """
    indices = [0]
    for m in range(2, n + 1):
        merged: list[int] = []
        for a in range(1, m + 1):
            shift = m - a  # place of the bit of the pair (a-1, a) in S_m
            low = (1 << max(shift - 1, 0)) - 1  # bits of the pairs (i, i+1), i > a
            table = [x >> shift << (shift + 1) | (a > 1) << shift | x & low
                     for x in range(2 ** (m - 2))]
            merged.extend(map(table.__getitem__, indices))
        indices = merged
    return indices


def _kfold_walk(
    n: int, bias, k: int, *, max_n: int = DEFAULT_MAX_N, labels=None
) -> tuple[list[int], int, Iterator[tuple[tuple, int]]]:
    """The k-fold class table (numerators, scale) of ``_kfold_classes`` and a
    walk over S_n in lexicographic order that yields each permutation pi
    whose class has nonzero mass, with its class index.

    pi is yielded as (labels[pi(1)-1], ..., labels[pi(n)-1]); the labels
    default to the cards 1..n, which yields pi's images.  The table is
    refused when a numerator is negative or when the masses of S_n,
    sum_D |D| * N_D / scale, do not sum to 1.  S_n is walked as plain
    tuples, so n is capped at MAX_CACHED_N as well as at ``max_n``.
    """
    check_size(n, cap=max_n)
    numerators, scale = _kfold_classes(n, bias, k)
    check_size(n, cap=MAX_CACHED_N)
    for index, m in enumerate(numerators):
        if m < 0:
            raise ValueError(f"negative mass for inverse-descent class {index}")
    indices = _inverse_descent_indices(n)
    per_perm = list(map(numerators.__getitem__, indices))
    total = sum(per_perm)
    if total != scale:
        raise ValueError(f"masses sum to {Fraction(total, scale)}, not 1")
    perms = itertools.permutations(range(1, n + 1) if labels is None else labels)
    return numerators, scale, itertools.compress(zip(perms, indices), per_perm)


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


def _class_sizes(n: int, most: int) -> list[int]:
    """|D| for each inverse-descent class D of S_n at its index in
    ``_kfold_classes``, or 0 past ``most`` descents below n.  |D| counts the
    permutations with descent set D, built on the sweep's trie: f[r] counts
    the arrangements so far whose last entry has rank r among them, and the
    next entry goes above it (prefix sums) or below it (suffix sums)."""
    out: list[int] = []

    def visit(f: list[int], descents: int):
        if descents > most:
            out.extend(itertools.repeat(0, 2 ** (n - len(f))))
        elif len(f) >= n:  # n = 0 has one class, as n = 1 does
            out.append(sum(f))
        else:
            visit([0, *itertools.accumulate(f)], descents)
            visit([*itertools.accumulate(f[::-1])][::-1] + [0], descents + 1)

    visit([1], 0)
    return out


def tv_to_uniform(n: int, bias, k: int = 1) -> Fraction:
    """Exact distance from the k-fold shuffle to uniform, summed over classes.

    The mass N_D / S is constant on each inverse-descent class D, and both
    measures sum to 1, so the distance is sum_D |D| * max(N_D * n! - S, 0)
    / (S * n!) over the 2^(n-1) classes, on integers.  A class with mass has
    fewer descents than the a'^k letters, so the size walk stops at the
    most descents of such a class, and MAX_SWEEP_CELLS bounds it too.

    >>> tv_to_uniform(3, (Fraction(1, 2), Fraction(1, 2)))
    Fraction(1, 3)
    """
    numerators, scale = _kfold_classes(n, bias, k)
    fact = math.factorial(n)
    most = max(index.bit_count() for index, m in enumerate(numerators) if m)
    excess = (m * fact - scale for m in numerators)
    total = sum(size * e for size, e in zip(_class_sizes(n, most), excess) if e > 0)
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


def _shuffle(x: list, getrandbits) -> None:
    """``rng.shuffle(x)`` in place, consuming the same bits of the stream."""
    for i in range(len(x) - 1, 0, -1):
        bits = (i + 1).bit_length()
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


def _draw_labels(n: int, cumulative, denom: int, rng: random.Random) -> list[int]:
    """Pile labels of n independent cards: category of a uniform draw below
    denom, drawn as ``rng.randrange(denom)`` would draw it.

    ``getrandbits(b)`` for b <= 32 is one 32-bit word of CPython's Mersenne
    Twister shifted right by 32 - b, and ``getrandbits(32 * m)`` is m
    consecutive words, the first one lowest.  So on that generator, with
    denom below 2^8 and at most 256 letters, each draw is the top byte of a
    word and each label fits in a byte: the words still missing are drawn
    at once, and one ``bytes.translate`` deletes the rejected top bytes and
    maps the rest to their categories, until n labels are drawn.  That
    takes the same words as one draw at a time.  Any other generator or
    bias draws one ``getrandbits`` call at a time.

    That per-call path is ``rng.randrange(denom)``'s loop (draw
    denom.bit_length() bits, redraw while the value is denom or more)
    written out in place, as are the draws of ``_shuffle``, ``_single_drop``
    and ``_single_geometric``: calling a helper for it once per card cost
    ~9% of the ``sampling`` benchmark's wall time (median of ten paired
    runs).  The shuffle and drop draws stay one call each, as decoding
    their bytes in a Python loop measured slower than the calls.
    """
    getrandbits = rng.getrandbits
    if (denom.bit_length() <= 8 and len(cumulative) <= 256
            and type(rng).getrandbits is random.Random.getrandbits):
        table, rejected = _label_table(tuple(cumulative), denom)
        labels = b""
        while len(labels) < n:
            need = n - len(labels)
            top = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            labels += top.translate(table, rejected)
        return list(labels)
    bits = denom.bit_length()
    labels = []
    for _ in range(n):
        r = getrandbits(bits)
        while r >= denom:
            r = getrandbits(bits)
        labels.append(bisect.bisect_right(cumulative, r))
    return labels


# Each single sampler returns one shuffle pi as its inverse order, unchecked:
# the list whose entry r is the 0-based position of card r + 1, which is
# pi^{-1} - 1.  ``sample`` composes these and checks the product once.

def _single_interleave(n, bias, cumulative, denom, rng) -> list[int]:
    # sorted labels are the pile word of the drawn cut, pile i once per card
    word = sorted(_draw_labels(n, cumulative, denom, rng))
    _shuffle(word, rng.getrandbits)  # uniform over distinct interleavings
    return sorted(range(n), key=word.__getitem__)


def _single_drop(n, bias, cumulative, denom, rng) -> list[int]:
    remaining = [0] * len(bias)
    for label in _draw_labels(n, cumulative, denom, rng):
        remaining[label] += 1  # multinomial(n; p) pile sizes
    tops = list(itertools.accumulate(remaining))  # each pile's bottom card, 1-based
    order = [0] * n
    getrandbits = rng.getrandbits
    for total in range(n, 0, -1):
        # the card at position total comes from pile i w.p. remaining[i] / total
        bits = total.bit_length()
        r = getrandbits(bits)
        while r >= total:
            r = getrandbits(bits)
        i = 0
        while r >= remaining[i]:
            r -= remaining[i]
            i += 1
        remaining[i] -= 1
        tops[i] -= 1
        order[tops[i]] = total - 1
    return order


def _single_geometric(n, bias, cumulative, denom, rng) -> list[int]:
    # n points in [0,1]: interval i w.p. p_i, uniform inside; x = (i-1+u)/a.
    # Sorting by x is sorting by (i, u); the map x -> a*x mod 1 leaves u, so
    # pi reads the (i, u)-rank of each point in u order.  Each point takes
    # its category and then its u from the stream, so the category draws are
    # inlined here rather than taken from _draw_labels.
    getrandbits, uniform = rng.getrandbits, rng.random
    bits = denom.bit_length()
    cats, us = [], []
    for _ in range(n):
        r = getrandbits(bits)
        while r >= denom:
            r = getrandbits(bits)
        cats.append(bisect.bisect_right(cumulative, r))
        us.append(uniform())
    # one stable sort by u (ties to the point index), then a stable sort of
    # the u ranks by category: (i, u)-rank r + 1 sits at u rank order[r]
    by_u = sorted(range(n), key=us.__getitem__)
    return sorted(range(n), key=list(map(cats.__getitem__, by_u)).__getitem__)


def _single_inverse(n, bias, cumulative, denom, rng) -> list[int]:
    # stacking the piles in label order sorts the cards stably by label: the
    # order it sorts them into is the inverse of the shuffle
    labels = _draw_labels(n, cumulative, denom, rng)
    return sorted(range(n), key=labels.__getitem__)


_SINGLE_SAMPLERS: dict[str, Callable] = {
    "interleave": _single_interleave,
    "drop": _single_drop,
    "geometric": _single_geometric,
    "inverse": _single_inverse,
}


def sample(spec: ShuffleSpec, method: str = "inverse", rng: random.Random | None = None) -> Permutation:
    """Draw one permutation from the k-fold biased shuffle.

    The k single shuffles are sampled independently and composed with the
    first shuffle as the left factor.  Reproducible for a fixed (seeded)
    ``rng`` and method.  The samplers take their words from
    ``rng.getrandbits`` exactly as ``rng.randrange``, ``rng.shuffle`` and
    ``rng.random`` would, so ``rng`` must be a ``random.Random`` whose
    ``randrange`` draws from ``getrandbits`` (any that does not override
    ``random()`` alone).  On CPython's own generator the label draws take
    their 32-bit words in batches (see ``_draw_labels``); a subclass that
    overrides ``getrandbits`` gets one call per draw.  Either way the seeded
    stream and the generator's state afterwards are the same.

    Each factor comes as its inverse order, and the inverse of the product
    is composed from them and inverted once at the end, so memory stays
    O(n) at any k.  A factor of the wrong length or with an entry outside
    0..n-1 is refused as it comes; a factor that repeats an entry fails
    the one validation of the product.
    """
    if method not in _SINGLE_SAMPLERS:
        raise ValueError(f"unknown method {method!r}; pick one of {SAMPLE_METHODS}")
    if rng is None:
        raise ValueError("a seeded random.Random is required")
    single = _SINGLE_SAMPLERS[method]
    n, bias = spec.n, spec.bias
    cumulative, denom = spec._thresholds
    inv = list(range(n))  # (s1 * ... * sj)^{-1} = sj^{-1} * ... * s1^{-1}, 0-based
    for _ in range(spec.k):
        order = single(n, bias, cumulative, denom, rng)
        if len(order) != n:
            raise ValueError(f"a {method} shuffle of {n} cards drew {len(order)} of them")
        # a negative entry would index from the end and could compose to a
        # valid product, so the range is checked per factor, not once
        if n and not 0 <= min(order) <= max(order) < n:
            raise ValueError(f"a {method} shuffle of {n} cards drew a position "
                             f"outside 0..{n - 1}")
        inv = [order[x] for x in inv]
    images = [0] * n
    for card, position in enumerate(inv, start=1):
        images[position] = card
    return Permutation(images)
