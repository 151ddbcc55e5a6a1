"""Biased riffle shuffles: samplers, exact measures, and mixing bounds.

A biased a-shuffle cuts an n-card deck into a piles with multinomial(p)
sizes and riffles the piles together uniformly over interleavings.  Reading
the shuffled deck top to bottom gives the one-line form of the resulting
permutation, and that reading defines the measure computed here.

Four equivalent sampling procedures are provided (``interleave``, ``drop``,
``geometric``, ``inverse``), plus exact enumeration routes for three of
them, so the equivalence is testable and not just asserted.  The samplers
take their bits from ``rng.getrandbits`` in exactly the order
``rng.randrange`` and ``rng.shuffle`` would, so seeded streams are those of
those methods, and they return unchecked image lists: ``sample`` composes
the k lists and validates one permutation per draw.

Composition convention: the shuffle applied first is the *left* factor, so
a k-fold shuffle is ``s1 * s2 * ... * sk``.  With this order, convolving an
a-shuffle with a b-shuffle is exactly an (ab)-shuffle whose bias is the
lexicographic tensor of the two bias vectors (first shuffle = major digit);
``convolve`` below follows the same order.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
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
)

SAMPLE_METHODS = ("interleave", "drop", "geometric", "inverse")


# --- bias vectors -------------------------------------------------------

def validate_bias(bias) -> tuple[Fraction, ...]:
    """Check a probability vector: entries >= 0 summing to exactly 1."""
    probs = tuple(p if type(p) is Fraction else Fraction(p) for p in bias)
    if not probs:
        raise ValueError("bias vector is empty")
    # checked on integer numerators: long tensored biases stay cheap
    weights, den = _weights(probs)
    if min(weights) < 0:
        raise ValueError(f"negative bias entry in {probs}")
    if sum(weights) != den:
        total = Fraction(sum(weights), den)
        raise ValueError(f"bias sums to {total}, not 1 (no silent renormalization)")
    return probs


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


def _power_sums(bias, n: int, k: int = 1) -> tuple[list[int], int]:
    """Power sums P_e(bias)^k = N_e / D^e of the k-fold tensored bias, e = 0..n,
    as ([N_0..N_n], D): N_e = (sum_i w_i^e)^k, D = den^k, zero letters dropped."""
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

    __slots__ = ("n", "bias", "k")

    def __init__(self, n: int, bias, k: int = 1):
        check_size(n, k=k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bias", validate_bias(bias))
        object.__setattr__(self, "k", k)

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
    is refused over MAX_SWEEP_CELLS before any letter is built.  A class of
    d >= a'^k descents needs d + 1 letters, so its subtree is filled with 0.
    """
    probs = validate_bias(bias)
    check_size(n, k=k)
    if n == 0:
        return [1], 1  # an empty deck has one arrangement whatever the letters
    letters = [p for p in probs if p]
    refusal = sweep_refusal(n, len(letters), k)
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


def _words_with_content(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Distinct words (tuples of 0-based letters) with the given letter
    counts, in lexicographic order, by a loop, so any length works."""
    word = [letter for letter, c in enumerate(counts) for _ in range(c)]
    while True:
        yield tuple(word)
        # next permutation: reverse the longest non-increasing tail, then swap
        # the entry before it with the first tail entry above that entry
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        word[i + 1:] = reversed(word[i + 1:])
        j = bisect.bisect_right(word, word[i], i + 1)
        word[i], word[j] = word[j], word[i]


def exact_distribution(
    n: int, bias, *, max_n: int = DEFAULT_MAX_N
) -> ExactDistribution:
    """The exact single-shuffle measure, by enumerating cuts x interleavings.

    Each interleaving of a cut (b1..ba) carries mass p1^b1 * ... * pa^ba:
    the uniform choice among interleavings cancels the multinomial factor
    of the cut law.  An interleaving is a pile word: position j receives
    the next card of pile word[j], so the deck reading is the word's
    standard permutation.
    """
    bias = validate_bias(bias)
    check_size(n, cap=max_n)
    masses: dict[Permutation, Fraction] = {}
    for parts in weak_compositions(n, len(bias)):
        mass = _content_mass(bias, parts)
        if mass == 0:
            continue
        # standardization sees only the order of the letters, so unused
        # letters are dropped before the words are listed
        for word in _words_with_content(list(filter(None, parts))):
            perm = standard_permutation(word)
            masses[perm] = masses.get(perm, Fraction(0)) + mass
    return ExactDistribution(n, masses)


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


def lalley_theta(p1) -> float:
    """Exponent theta solving p1^theta + p2^theta = (p1^2 + p2^2)^2.

    The left side is strictly decreasing in theta for 0 < p1 < 1, so the
    root is unique; found by bisection to width 1e-12 and validated by
    residual, not by a citation.
    """
    p1 = float(p1)
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"p1 must be strictly between 0 and 1: {p1}")
    p2 = 1.0 - p1
    rhs = (p1 * p1 + p2 * p2) ** 2

    def f(theta: float) -> float:
        return p1 ** theta + p2 ** theta - rhs

    lo = 0.0  # f(0) = 2 - rhs > 0
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
    p1 = float(p1)
    theta = lalley_theta(p1)
    p2 = 1.0 - p1
    r = p1 * p1 + p2 * p2
    return (3.0 + theta) / 4.0 * (math.log(n) / math.log(1.0 / r))


# --- samplers -----------------------------------------------------------

def substream(seed: int, index: int) -> random.Random:
    """Derive an independently seeded RNG stream from a 64-bit master seed.

    Stream i is random.Random(splitmix64(seed + (i+1)*GOLDEN)); the
    SplitMix64 finalizer decorrelates nearby seeds, so parallel workers can
    use substream(seed, worker_index) reproducibly.
    """
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return random.Random(z)


def _categorical(bias) -> tuple[list[int], int]:
    """Integer thresholds for exact categorical sampling of a rational bias."""
    weights, denom = _weights(bias)
    return list(itertools.accumulate(weights)), denom


def _randbelow(getrandbits, m: int) -> int:
    """``rng.randrange(m)`` for m >= 1, consuming the same bits of the stream.

    ``random.Random`` draws m.bit_length() bits and redraws while the value
    is m or more; ``getrandbits`` is the bound method of the generator.  The
    category draws, run n times per shuffle, inline this loop: calling it
    there costs ~9% of the ``sampling`` benchmark's wall time (median of ten
    paired runs).
    """
    bits = m.bit_length()
    r = getrandbits(bits)
    while r >= m:
        r = getrandbits(bits)
    return r


def _shuffle(x: list, getrandbits) -> None:
    """``rng.shuffle(x)`` in place, consuming the same bits of the stream."""
    for i in range(len(x) - 1, 0, -1):
        j = _randbelow(getrandbits, i + 1)
        x[i], x[j] = x[j], x[i]


def _draw_labels(n: int, cumulative, denom: int, rng: random.Random) -> list[int]:
    """Pile labels of n independent cards: category of a uniform draw below denom."""
    getrandbits = rng.getrandbits
    bits = denom.bit_length()
    labels = []
    for _ in range(n):
        r = getrandbits(bits)
        while r >= denom:
            r = getrandbits(bits)
        labels.append(bisect.bisect_right(cumulative, r))
    return labels


def _draw_counts(n: int, cumulative, denom, a: int, rng) -> list[int]:
    # multinomial(n; p) pile sizes = category counts of n independent draws
    counts = [0] * a
    for label in _draw_labels(n, cumulative, denom, rng):
        counts[label] += 1
    return counts


# Each single sampler returns the images of one shuffle as a list, unchecked:
# ``sample`` composes the lists and validates the product once.

def _single_interleave(n, bias, cumulative, denom, rng) -> list[int]:
    # sorted labels are the pile word of the drawn cut, pile i once per card
    word = sorted(_draw_labels(n, cumulative, denom, rng))
    _shuffle(word, rng.getrandbits)  # uniform over distinct interleavings
    return standard_ranks(word)


def _single_drop(n, bias, cumulative, denom, rng) -> list[int]:
    counts = _draw_counts(n, cumulative, denom, len(bias), rng)
    tops = list(itertools.accumulate(counts))  # label of each pile's bottom card
    remaining = list(counts)
    arrangement = [0] * n
    getrandbits = rng.getrandbits
    for total in range(n, 0, -1):
        r = _randbelow(getrandbits, total)
        acc = 0
        for i, left in enumerate(remaining):
            acc += left
            if r < acc:
                break
        arrangement[total - 1] = tops[i]
        tops[i] -= 1
        remaining[i] -= 1
    return arrangement


def _single_geometric(n, bias, cumulative, denom, rng) -> list[int]:
    # n points in [0,1]: interval i w.p. p_i, uniform inside; x = (i-1+u)/a.
    # Sorting by x is sorting by (i, u); the map x -> a*x mod 1 leaves u.
    # Stable sorts break ties by point index.  Each point takes its category
    # and then its u from the stream, so the category draws are inlined here
    # rather than taken from _draw_labels.
    getrandbits, uniform = rng.getrandbits, rng.random
    bits = denom.bit_length()
    pts, us = [], []
    for _ in range(n):
        r = getrandbits(bits)
        while r >= denom:
            r = getrandbits(bits)
        u = uniform()
        pts.append((bisect.bisect_right(cumulative, r), u))
        us.append(u)
    label = [0] * n
    for rank, t in enumerate(sorted(range(n), key=pts.__getitem__), start=1):
        label[t] = rank
    return [label[t] for t in sorted(range(n), key=us.__getitem__)]


def _single_inverse(n, bias, cumulative, denom, rng) -> list[int]:
    return standard_ranks(_draw_labels(n, cumulative, denom, rng))


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
    ``rng`` and method.  The samplers take their bits from
    ``rng.getrandbits`` exactly as ``rng.randrange`` and ``rng.shuffle``
    would, so ``rng`` must be a ``random.Random`` whose ``randrange`` draws
    from ``getrandbits`` (any that does not override ``random()`` alone).
    The factors are composed as image lists and only the product is
    validated: one check per draw, which a factor that repeats an image or
    has the wrong length fails.
    """
    if method not in _SINGLE_SAMPLERS:
        raise ValueError(f"unknown method {method!r}; pick one of {SAMPLE_METHODS}")
    if rng is None:
        raise ValueError("a seeded random.Random is required")
    single = _SINGLE_SAMPLERS[method]
    n, bias = spec.n, spec.bias
    cumulative, denom = _categorical(bias)
    images = list(range(1, n + 1))
    for _ in range(spec.k):
        # (images * factor)(i) = images(factor(i)), looked up 1-based
        padded = [0, *images]
        images = [padded[j] for j in single(n, bias, cumulative, denom, rng)]
    perm = Permutation(images)
    if perm.n != n:
        raise ValueError(f"a {method} shuffle of {n} cards drew a permutation of {perm.n}")
    return perm
