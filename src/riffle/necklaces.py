"""Words, standardization, and the Gessel-Reutenauer necklace bijection.

Words are tuples over the ordered alphabet {1..a}.  A necklace is a word up
to cyclic rotation, stored canonically as its lexicographically minimal
rotation; a necklace is primitive when no nontrivial rotation fixes it.
Multisets of necklaces are ``collections.Counter`` instances keyed by
canonical tuples; where one is only compared, it is its necklaces as one
sorted tuple.

Standardizing a word and decomposing the resulting permutation into cycles
turns every word into a multiset of necklaces with the same cycle
structure.  Restricted to words of fixed letter content, the map is a
bijection onto multisets of *primitive* necklaces with that content, which
is what makes the shuffle-measure cycle counting work.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from .permutations import (
    Permutation,
    check_listing,
    multinomial,
    partial_sums,
    standard_permutation,
    standard_ranks,
    words_with_content,
)

Word = tuple[int, ...]
Necklace = tuple[int, ...]
NecklaceMultiset = Counter  # Counter[Necklace]


def standardize(word: Iterable[int]) -> Permutation:
    """Standard permutation of a nonempty word: lexicographic ranks, ties to
    the left (``permutations.standard_permutation``).

    >>> standardize((2, 2, 1, 1, 2, 3, 3, 3, 2, 3, 2, 2)).images
    (3, 4, 1, 2, 5, 9, 10, 11, 6, 12, 7, 8)
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    return standard_permutation(word)


def min_rotation(seq: Iterable[int]) -> Necklace:
    """Canonical form of a cyclic word: its lexicographically least rotation.

    Every rotation is a length-n window of the word read twice, and the
    least one starts where the last Lyndon factor of the doubled word that
    begins before n begins, so one Duval scan (``_lyndon_starts``) finds it
    in linear time, from indices alone.

    >>> min_rotation((3, 2, 3, 3, 2)), min_rotation((2, 1, 2, 1))
    ((2, 3, 2, 3, 3), (1, 2, 1, 2))
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty necklace")
    return _least_rotation(seq)


def _least_rotation(letters: list[int]) -> Necklace:
    """``min_rotation`` of a nonempty list, which it doubles in place."""
    m = len(letters)
    letters += letters
    start = _lyndon_starts(letters, m)[-1]
    return tuple(letters[start:start + m])


def is_primitive(necklace: Iterable[int]) -> bool:
    """True iff no nontrivial rotation fixes the necklace.

    >>> is_primitive((1, 1, 2, 2)), is_primitive((1, 2, 1, 2))
    (True, False)
    """
    seq = tuple(necklace)
    n = len(seq)
    for period in range(1, n):
        if n % period == 0 and seq == seq[period:] + seq[:period]:
            return False
    return True


def necklace_decomposition(word: Iterable[int]) -> NecklaceMultiset:
    """Multiset of necklaces obtained by reading the word's letters around
    each cycle of its standard permutation (``_sorted_necklaces``).

    The multiset of necklace lengths always equals the cycle type of
    ``standardize(word)``.
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    return Counter(_sorted_necklaces(word))


def _sorted_necklaces(word: Word) -> tuple[Necklace, ...]:
    """The necklaces of a nonempty word in sorted order, each once per copy:
    the letters read around each cycle of its standard ranks, following
    i -> st(i), each in canonical (least-rotation) form.  Two words give
    equal tuples exactly when their necklace multisets are equal, so the
    tuple is the multiset's hashable key."""
    ranks = standard_ranks(word)
    seen = [False] * len(word)
    out = []
    for start, letter in enumerate(word):
        if seen[start]:
            continue
        seen[start] = True
        j = ranks[start] - 1
        if j == start:  # a fixed point is a one-letter necklace
            out.append((letter,))
            continue
        around = [letter]
        while not seen[j]:
            seen[j] = True
            around.append(word[j])
            j = ranks[j] - 1
        out.append(_least_rotation(around))
    out.sort()
    return tuple(out)


def word_from_permutation(perm: Permutation, parts: Iterable[int]) -> Word:
    """The unique word with parts[i-1] copies of letter i standardizing to ``perm``.

    Exists iff the descent set of perm^{-1} is contained in the partial
    sums of ``parts``; the letter at position j is the block of perm(j)
    among those partial sums.

    >>> word_from_permutation(Permutation([2, 3, 1]), (1, 2))
    (2, 2, 1)
    """
    parts = _letter_counts(parts)
    psums = partial_sums(parts)
    n = perm.n
    if n != (psums[-1] if psums else 0):
        raise ValueError(f"parts {parts} do not sum to n={n}")
    # position[v] is where value v sits; v is an inverse descent when v + 1 sits before it
    position = [0] * (n + 1)
    for j, value in enumerate(perm.images):
        position[value] = j
    allowed = set(psums)
    bad = [v for v in range(1, n) if position[v] > position[v + 1] and v not in allowed]
    if bad:
        raise ValueError(
            f"no word with content {parts} standardizes to {perm}: "
            f"inverse descent at {bad}"
        )
    return tuple(map(_block_table(parts).__getitem__, perm.images))


def _block_table(parts: tuple[int, ...]) -> list[int]:
    """Entry v is the block of value v among the partial sums of ``parts``,
    the letter that value v gets (entry 0 is unused): the word of a
    permutation whose inverse descents lie in those sums reads its images
    through this table."""
    return [0, *(letter for letter, b in enumerate(parts, start=1) for _ in range(b))]


def ubar_forward(perm: Permutation, parts: Iterable[int]) -> NecklaceMultiset:
    """Necklace multiset of the unique content-``parts`` word standardizing
    to ``perm``.

    Restricted to permutations whose *inverse* descent set lies in the
    partial sums of ``parts`` (the condition under which the word exists),
    this is a cycle-structure preserving bijection onto multisets of
    primitive necklaces with parts[i-1] copies of letter i.
    """
    return necklace_decomposition(word_from_permutation(perm, parts))


# --- primitive necklace counting and enumeration ------------------------

def _letter_counts(parts: Iterable[int]) -> tuple[int, ...]:
    """``parts`` as a tuple of letter counts, refused if one is negative."""
    parts = tuple(parts)
    if parts and min(parts) < 0:
        raise ValueError(f"negative letter count in {parts}")
    return parts


def primitive_count(parts: Iterable[int]) -> int:
    """Number of primitive necklaces with parts[i-1] copies of letter i.

    Moebius inversion over the common divisors of the letter counts:
    (1/n) sum_{d | gcd} mu(d) * (n/d)! / prod (r_i/d)!.

    >>> primitive_count((2, 2)), primitive_count((1, 1, 1))
    (1, 2)
    """
    from .counting import _primitive_count  # here: bijection loads necklaces, not counting
    return _primitive_count(_letter_counts(parts), math.factorial)


def _lyndon_walk(parts: tuple[int, ...]) -> list[Necklace]:
    """Lyndon words with exactly parts[i-1] copies of letter i, in
    lexicographic order.

    The Fredricksen-Kessler-Maiorana walk over prenecklaces, bounded by the
    letter counts: with p the length of the longest Lyndon prefix of
    word[1..t-1], letter t is at least word[t-p]; p stays on equality and
    becomes t otherwise, and word[1..t] is a Lyndon word exactly when p = t.
    The walk is depth first with letters in increasing order, so words come
    out sorted.  It is a loop over one iterator of letters still to try at
    each position, so a content of any length costs no recursion.  It visits
    only prenecklaces: keeping the words of the content that
    ``lyndon_factors`` leaves whole took 0.042 s against 0.009 s over every
    content of at most 3 letters and total at most 8 (CPython 3.11).
    """
    n, top = sum(parts), len(parts)
    nonzero = [letter for letter, r in enumerate(parts, start=1) if r]
    if len(nonzero) == 1:  # a power of one letter is a Lyndon word only at length 1
        return [(nonzero[0],)] if n == 1 else []
    counts = [0, *parts]  # copies left of each letter; 0 is no letter
    word = [0] * (n + 1)  # the word is word[1..t]; word[0] = 0 is below every letter
    ps = [0, 1] + [0] * n  # ps[t]: p on reaching position t
    tries = [iter(range(1, top + 1))]  # tries[t - 1]: letters left to try at position t
    out: list[Necklace] = []
    while tries:
        t = len(tries)
        if word[t]:  # put back the letter last tried here
            counts[word[t]] += 1
        for letter in tries[-1]:
            if counts[letter]:
                break
        else:
            word[t] = 0
            tries.pop()
            continue
        counts[letter] -= 1
        word[t] = letter
        p = ps[t] if letter == word[t - ps[t]] else t
        if t < n:
            ps[t + 1] = p
            tries.append(iter(range(word[t + 1 - p] or 1, top + 1)))
        elif p == n:
            out.append(tuple(word[1:]))
    return out


def enumerate_primitive_necklaces(parts: Iterable[int]) -> list[Necklace]:
    """All primitive necklaces with the given letter content, canonical and
    sorted; the brute-force counterpart of ``primitive_count``.

    A primitive necklace's least rotation is a Lyndon word, so this lists
    the Lyndon words of the content by the prenecklace walk of
    ``_lyndon_walk``, which never forms a word that is not a prenecklace
    and shares nothing with the Moebius count it checks.  Contents are
    refused by ``_check_content``.
    """
    parts = _check_content(parts)
    if not sum(parts):
        raise ValueError("all letter counts are zero")
    return _lyndon_walk(parts)


def _check_content(parts: Iterable[int]) -> tuple[int, ...]:
    """``parts`` as letter counts, refused by ``check_listing``."""
    parts = _letter_counts(parts)
    words = multinomial(parts)
    check_listing(sum(parts), words, 1, f"{words} words of content {parts}")
    return parts


def lyndon_factors(word: Iterable[int]) -> list[Necklace]:
    """The Chen-Fox-Lyndon factorization of a word: the unique
    non-increasing sequence of Lyndon words whose concatenation is the
    word, by Duval's linear scan (``_lyndon_starts``).

    >>> lyndon_factors((2, 1, 2, 1, 1, 2))
    [(2,), (1, 2), (1, 1, 2)]
    """
    word = tuple(word)
    starts = _lyndon_starts(word, len(word))
    return [word[i:j] for i, j in zip(starts, [*starts[1:], len(word)])]


def _lyndon_starts(word: Sequence[int], stop: int) -> list[int]:
    """Where each Chen-Fox-Lyndon factor of ``word`` that begins before
    ``stop`` begins, in order: Duval's scan, which reads letters by index
    and slices nothing."""
    starts: list[int] = []
    i = 0
    while i < stop:
        # word[i..j-1] is a power of a Lyndon word of length j - k plus a prefix of it
        j, k = i + 1, i
        while j < len(word) and word[k] <= word[j]:
            k = i if word[k] < word[j] else k + 1
            j += 1
        while i <= k and i < stop:
            starts.append(i)
            i += j - k
    return starts


def enumerate_primitive_multisets(parts: Iterable[int]) -> list[NecklaceMultiset]:
    """All multisets of primitive necklaces with combined letter content
    exactly ``parts``, one per word of that content, in the words'
    lexicographic order.  Small-scale oracle for the bijection.

    A Lyndon word is the least rotation of a primitive necklace, and every
    word is one non-increasing product of Lyndon words (Chen-Fox-Lyndon),
    so the words of a content and these multisets correspond one to one
    through ``lyndon_factors``.  That map uses neither standardization nor
    cycles, so it shares nothing with the Gessel map it checks.  Contents
    are refused by ``_check_content``.
    """
    return [Counter(key) for key in _primitive_keys(parts)]


def _primitive_keys(parts: Iterable[int]) -> Iterator[tuple[Necklace, ...]]:
    """The multisets of ``enumerate_primitive_multisets`` one at a time, each
    as its sorted tuple of necklaces, the key ``_sorted_necklaces`` gives, so
    a caller that keeps only the keys never holds a ``Counter``."""
    parts = _check_content(parts)
    # letter 0 gets no copies, so the words run over the letters 1..len(parts)
    for word in words_with_content([0, *parts]):
        yield tuple(sorted(lyndon_factors(word)))


def letters(necklace: Iterable[int]) -> str:
    """Render small alphabets as letters for display: (1, 2) -> 'ab'."""
    return "".join(chr(ord("a") + x - 1) if 1 <= x <= 26 else f"<{x}>" for x in necklace)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
