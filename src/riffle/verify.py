"""Self-verification suites: every identity the package implements, checked
against brute force or an independent route at small deck sizes.

Each check names itself once, in ``@_suite``, and returns ``(passed,
detail)``, whose detail names the first counterexample on failure.  The
registry turns that pair into a ``CheckResult``, and a check that raises
into a failed one whose detail is the exception's type and message.  The
CLI ``verify`` subcommand runs the suites and exits nonzero if any fail.
The suites are the one home of each release criterion:
``tests/test_acceptance.py`` calls them with the caps of a ``VerifyConfig``
pinned at the acceptance values, and adds only the checks that need an
independent test-only oracle (scipy, numpy).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter

from .permutations import (
    Permutation,
    _inverse_descent_indices,
    compositions,
    count_inversions,
    cycle_type,
    cycle_type_key,
    descent_index,
    descent_set,
    partial_sums,
    symmetric_group_list,
    weak_compositions,
)

# Each suite imports the modules it calls, so a run loads only what its
# selected suites check: ``--only gessel`` loads no ``fractions``.


@functools.cache
def _bias_panel() -> tuple[tuple[Fraction, ...], ...]:
    """Fixed bias panel: five vectors spanning alphabet sizes 1..3."""
    from fractions import Fraction as F

    return (
        (F(1),),
        (F(1, 2), F(1, 2)),
        (F(1, 3), F(2, 3)),
        (F(1, 2), F(1, 4), F(1, 4)),
        (F(1, 6), F(1, 3), F(1, 2)),
    )


def __getattr__(name: str):
    """``BIAS_PANEL`` is built on first access (PEP 562); any other name is
    missing."""
    if name != "BIAS_PANEL":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _bias_panel()


class CheckResult:
    """Outcome of one suite: its name, whether it passed, and a detail line."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def to_json_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class VerifyConfig:
    """Caps, sample count and seed of a verification run."""

    __slots__ = ("n_max", "count_n_max", "samples", "seed")

    def __init__(self, n_max: int = 5, count_n_max: int = 6, samples: int = 20000, seed: int = 1):
        self.n_max = n_max
        self.count_n_max = count_n_max
        self.samples = samples
        self.seed = seed


_SUITES: dict[str, object] = {}


def _suite(name: str):
    """Register a check, which returns ``(passed, detail)``, as the suite
    ``name``.  The suite, also bound to the check's own name, returns a
    ``CheckResult``: the check's pair, or a failure naming the exception's
    type and message if the check raises."""
    def register(check):
        @functools.wraps(check)
        def suite(config: VerifyConfig) -> CheckResult:
            try:
                passed, detail = check(config)
            except Exception as exc:  # a crash is a failure with a traceback summary
                return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
            return CheckResult(name, passed, detail)

        _SUITES[name] = suite
        return suite

    return register


def suite_names() -> list[str]:
    return list(_SUITES)


def run(only: str | None = None, config: VerifyConfig | None = None) -> list[CheckResult]:
    config = config or VerifyConfig()
    return [suite(config) for name, suite in _SUITES.items() if only is None or only in name]


@_suite("shuffle-table")
def check_shuffle_table(config: VerifyConfig) -> tuple[bool, str]:
    """The six symbolic three-card masses, at three rational bias points."""
    from fractions import Fraction as F

    from . import shuffles

    for p1 in (F(1, 2), F(1, 3), F(1, 5)):
        p2 = 1 - p1
        dist = shuffles.exact_distribution(3, (p1, p2))
        expected = {
            Permutation([1, 2, 3]): p1**3 + p1**2 * p2 + p1 * p2**2 + p2**3,
            Permutation([1, 3, 2]): p1**2 * p2,
            Permutation([3, 2, 1]): F(0),
            Permutation([2, 1, 3]): p1 * p2**2,
            Permutation([2, 3, 1]): p1 * p2**2,
            Permutation([3, 1, 2]): p1**2 * p2,
        }
        for perm, want in expected.items():
            if dist.mass(perm) != want:
                return False, f"p1={p1}, {perm}: {dist.mass(perm)} != {want}"
    return True, "3-card masses match at p1 in {1/2, 1/3, 1/5}"


@_suite("description-equivalence")
def check_description_equivalence(config: VerifyConfig) -> tuple[bool, str]:
    """Cut/interleave, sequential drops, and pile-sorting give one measure."""
    from . import shuffles

    panel = _bias_panel()
    for n in range(0, config.n_max + 1):
        for bias in panel:
            d1 = shuffles.exact_distribution(n, bias)
            d2 = shuffles.exact_distribution_drops(n, bias)
            d4 = shuffles.exact_distribution_pile_words(n, bias)
            dd = shuffles.exact_kfold_distribution(n, bias, 1)
            if not (d1 == d2 == d4 == dd):
                return False, f"routes disagree at n={n}, bias={bias}"
    return True, f"4 exact routes agree for n <= {config.n_max}, panel of {len(panel)}"


@_suite("geometric-fit")
def check_geometric_fit(config: VerifyConfig) -> tuple[bool, str]:
    """Goodness of fit of the point-dropping sampler against the exact law."""
    import random
    from fractions import Fraction as F

    from . import shuffles

    n, bias = 4, (F(1, 3), F(2, 3))
    dist = shuffles.exact_distribution(n, bias)
    rng = random.Random(config.seed)
    spec = shuffles.ShuffleSpec(n, bias, 1)
    counts: Counter = Counter()
    for _ in range(config.samples):
        counts[shuffles.sample(spec, "geometric", rng)] += 1
    outside = sum(c for perm, c in counts.items() if dist.mass(perm) == 0)
    if outside:
        return False, f"{outside} samples outside the support"
    stat = 0.0
    dof = -1
    for perm, mass in dist.masses.items():
        expect = float(mass) * config.samples
        stat += (counts[perm] - expect) ** 2 / expect
        dof += 1
    crit = _chi2_quantile(0.999, dof)
    if stat > crit:
        return False, f"chi2 {stat:.1f} > {crit:.1f} at dof {dof}"
    return True, f"chi2 {stat:.1f} <= {crit:.1f} (dof {dof}, {config.samples} samples)"


def _chi2_quantile(prob: float, dof: int) -> float:
    # Wilson-Hilferty cube approximation; adequate for a pass/fail report.
    from statistics import NormalDist  # loaded only by the suite that fits a law
    z = NormalDist().inv_cdf(prob)
    return dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


@_suite("convolution")
def check_convolution(config: VerifyConfig) -> tuple[bool, str]:
    """Composing shuffles equals one shuffle with tensored bias."""
    from fractions import Fraction as F

    from . import shuffles

    pairs = [
        ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        ((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))),
        ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 4), F(1, 4))),
    ]
    for n in range(1, config.n_max + 1):
        for pa, pb in pairs:
            left = shuffles.convolve(
                shuffles.exact_distribution(n, pa), shuffles.exact_distribution(n, pb)
            )
            right = shuffles.exact_distribution(n, shuffles.tensor_bias(pa, pb))
            if left != right:
                return False, f"n={n}, ({len(pa)},{len(pb)})-shuffles differ"
    return True, f"tensor identity exact for n <= {config.n_max}, (a,b) in {{(2,2),(2,3)}}"


@_suite("mixing-bound")
def check_mixing_bound(config: VerifyConfig) -> tuple[bool, str]:
    """Exact distance to uniform never exceeds the pair-collision bound, and
    the descent-class sum gives the same distance as the sum over S_n."""
    from fractions import Fraction as F

    from . import shuffles

    fair = (F(1, 2), F(1, 2))
    if shuffles.tv_distance(
        shuffles.exact_distribution(3, fair), shuffles.uniform_distribution(3)
    ) != F(1, 3):
        return False, "3-card fair shuffle is not at distance 1/3 from uniform"
    for n in range(2, config.n_max + 1):
        uniform = shuffles.uniform_distribution(n)
        for bias in _bias_panel():
            if len(bias) == 1:
                continue
            for k in range(0, 9):
                bound = shuffles.suf_bound(shuffles.ShuffleSpec(n, bias, k))
                if bound >= 1:
                    continue
                tv = shuffles.tv_distance(
                    shuffles.exact_kfold_distribution(n, bias, k), uniform
                )
                if shuffles.tv_to_uniform(n, bias, k) != tv:
                    return False, f"class-sum tv differs from S_n tv at n={n}, k={k}, bias={bias}"
                if tv > bound:
                    return False, f"tv {tv} > bound {bound} at n={n}, k={k}, bias={bias}"
    return True, f"tv <= C(n,2)(sum p^2)^k wherever bound < 1, n <= {config.n_max}, k <= 8"


@_suite("lalley")
def check_lalley(config: VerifyConfig) -> tuple[bool, str]:
    """The lower-bound exponent and step count behave as advertised."""
    from fractions import Fraction as F

    from . import shuffles

    theta = shuffles.lalley_theta(F(1, 2))
    if abs(theta - 3.0) > 1e-10:
        return False, f"theta(1/2) = {theta!r}, want 3"
    for n in (2, 52, 1024):
        steps = shuffles.lalley_lower_steps(n, F(1, 2))
        if abs(steps - 1.5 * math.log2(n)) > 1e-9:
            return False, f"steps({n}, 1/2) = {steps!r}, want 1.5 log2 {n}"
    for p1 in (0.4, 0.45, 0.55):
        th = shuffles.lalley_theta(p1)
        p2 = 1 - p1
        residual = abs(p1**th + p2**th - (p1 * p1 + p2 * p2) ** 2)
        if residual > 1e-10:
            return False, f"residual {residual} at p1={p1}"
    return True, "theta(1/2) = 3 and residuals < 1e-10"


@_suite("standardize-example")
def check_standardize_example(config: VerifyConfig) -> tuple[bool, str]:
    """The 12-letter worked example: standardization and its necklaces."""
    from . import necklaces

    word = (2, 2, 1, 1, 2, 3, 3, 3, 2, 3, 2, 2)
    st = necklaces.standardize(word)
    if st.images != (3, 4, 1, 2, 5, 9, 10, 11, 6, 12, 7, 8):
        return False, f"standardization gave {st.images}"
    dec = necklaces.necklace_decomposition(word)
    want = Counter({(1, 2): 2, (2,): 1, (2, 3): 1, (2, 3, 2, 3, 3): 1})
    if dec != want:
        return False, f"necklace multiset gave {sorted(dec.items())}"
    if necklaces.word_from_permutation(st, (2, 6, 4)) != word:
        return False, "word does not round-trip through its standardization"
    return True, "12-letter example reproduced byte-exactly"


@_suite("gessel-bijection")
def check_gessel_bijection(config: VerifyConfig) -> tuple[bool, str]:
    """Exhaustive bijectivity and cycle preservation for small decks.

    For each composition of n, the permutations whose inverse descent set
    lies in its partial sums are counted against ``count_descent_subset``;
    those sets are read off ``permutations._inverse_descent_indices``, which
    walks S_n in the lexicographic order of ``symmetric_group_list``.
    Each one's word, its images read through the composition's block table,
    gives its necklaces as one sorted tuple.  That image must keep the
    permutation's cycle type, be primitive, and check its key off the target
    set, the same keys of the primitive multisets of the content: a key not
    there fails (a repeat is not injective, an outsider not onto), and so
    does a key left over (not onto).
    """
    from . import counting, necklaces

    for n in range(1, config.n_max + 1):
        perms = symmetric_group_list(n)
        # inverse descent sets as descent_index bitmasks, in the lexicographic
        # order of perms, and the sorted cycle lengths, one list per cycle type
        masks = list(_inverse_descent_indices(n))
        shared: dict = {}
        cycle_lengths = [
            shared.setdefault(key, [length for length, count in key for _ in range(count)])
            for key in (cycle_type_key(cycle_type(p)) for p in perms)
        ]
        for parts in compositions(n):
            allowed = descent_index(partial_sums(parts), n)
            if sum(not mask & ~allowed for mask in masks) != counting.count_descent_subset(parts):
                return False, f"domain size off at n={n}, parts={parts}"
            target = set(necklaces._primitive_keys(parts))
            block = necklaces._block_table(parts)
            for p, mask, lengths in zip(perms, masks, cycle_lengths):
                if mask & ~allowed:
                    continue
                image = necklaces._sorted_necklaces(tuple(map(block.__getitem__, p.images)))
                if sorted(map(len, image)) != lengths:
                    return False, f"cycle type broken at {p}, parts={parts}"
                if not all(map(necklaces.is_primitive, image)):
                    return False, f"imprimitive image at {p}, parts={parts}"
                if image not in target:
                    # a miss walks the keys again, once, to tell a repeat from a foreign key
                    if image in necklaces._primitive_keys(parts):
                        return False, (f"not injective at n={n}, parts={parts}: "
                                       f"the image of {p} repeats")
                    return False, (f"not onto at n={n}, parts={parts}: "
                                   f"the image of {p} is no target")
                target.remove(image)
            if target:
                return False, (f"not onto at n={n}, parts={parts}: "
                               f"{len(target)} of the targets unreached")
    return True, f"bijective with matching cycle structure for all n <= {config.n_max}"


@_suite("necklace-counts")
def check_necklace_counts(config: VerifyConfig) -> tuple[bool, str]:
    """Moebius counting of primitive necklaces against enumeration."""
    from . import necklaces

    for a in (1, 2, 3):
        for total in range(1, config.count_n_max + 1):
            for parts in weak_compositions(total, a):
                want = len(necklaces.enumerate_primitive_necklaces(parts))
                got = necklaces.primitive_count(parts)
                if got != want:
                    return False, f"M{parts} = {got}, enumeration finds {want}"
    return True, f"M(r) matches enumeration through size {config.count_n_max}, a <= 3"


@_suite("cycle-pgf")
def check_cycle_pgf(config: VerifyConfig) -> tuple[bool, str]:
    """Product-formula cycle PGF against the brute-force joint PGF."""
    from fractions import Fraction as F

    from . import genfuncs, shuffles

    for n in range(1, config.n_max + 1):
        for bias in _bias_panel():
            got = genfuncs.cycle_structure_pgf(n, bias)
            want = genfuncs.cycle_pgf_from_distribution(shuffles.exact_distribution(n, bias))
            if got != want:
                return False, f"joint PGF differs at n={n}, bias={bias}"
            if got.expected_count(1) != genfuncs.expected_fixed_points(
                shuffles.ShuffleSpec(n, bias, 1)
            ):
                return False, f"E[N_1] is not the fixed-point mean at n={n}, bias={bias}"
    if genfuncs.expected_fixed_points(shuffles.ShuffleSpec(3, (F(1, 2), F(1, 2)), 1)) != F(7, 4):
        return False, "fair 3-card fixed-point mean is not 7/4"
    return True, f"cycle PGFs exact for n <= {config.n_max}"


@_suite("fixed-points")
def check_fixed_points(config: VerifyConfig) -> tuple[bool, str]:
    """Fixed-point PGF, its mean, and the unbiased-minimum inequality."""
    from fractions import Fraction as F

    from . import genfuncs, shuffles

    for n in range(1, config.n_max + 1):
        for bias in _bias_panel():
            pgf = genfuncs.fixed_point_pgf(n, bias)
            if pgf != _brute_fixed_point_law(n, bias):
                return False, f"fixed-point PGF differs at n={n}, bias={bias}"
            mean = sum(m * c for m, c in enumerate(pgf))
            if mean != genfuncs.expected_fixed_points(shuffles.ShuffleSpec(n, bias, 1)):
                return False, f"PGF mean mismatch at n={n}, bias={bias}"
            a = len(bias)
            for j in range(1, n + 1):
                # power means: the unbiased vector minimizes sum p_i^j
                if sum(p**j for p in bias) < F(1, a ** (j - 1)):
                    return False, f"power-sum inequality fails at {bias}, j={j}"
    return True, f"fixed-point PGFs exact for n <= {config.n_max}"


def _brute_fixed_point_law(n: int, bias) -> tuple[Fraction, ...]:
    """P(N_1 = 0..n) for one shuffle, read off the cut listing of
    ``exact_distribution``: its integer numerators summed by the fixed
    points of each permutation, one Fraction per count."""
    from fractions import Fraction

    from . import shuffles

    numerators, scale = shuffles._cut_numerators(n, bias)
    sums, cards = [0] * (n + 1), range(1, n + 1)
    for ranks, m in numerators.items():
        sums[sum(map(operator.eq, ranks, cards))] += m
    return tuple(Fraction(total, scale) for total in sums)


def _descent_subsets(n: int):
    """(J, index of J) for every descent set J of S_n, each containing n."""
    for r in range(n):
        for inner in itertools.combinations(range(1, n), r):
            deset = frozenset(inner) | {n}
            yield deset, descent_index(deset, n)


@_suite("descent-counts")
def check_descent_counts(config: VerifyConfig) -> tuple[bool, str]:
    """Inclusion-exclusion and determinant descent counts against brute force."""
    from . import counting

    for n in range(1, config.count_n_max + 1):
        buckets = counting._descent_table(n)[0]
        total = 0
        for deset, index in _descent_subsets(n):
            want = buckets[index]
            ie = counting.count_descent_exact(n, deset)
            det = counting.count_descent_det(n, sorted(deset - {n}))
            if not (ie == det == want):
                return False, f"n={n}, J={sorted(deset)}: ie={ie}, det={det}, brute={want}"
            total += ie
        if total != math.factorial(n):
            return False, f"counts do not sum to {n}! at n={n}"
    return True, f"ie = det = brute for all descent sets, n <= {config.count_n_max}"


@_suite("ncycle-counts")
def check_ncycle_counts(config: VerifyConfig) -> tuple[bool, str]:
    """Both n-cycle descent formulas against brute force."""
    from . import counting

    for n in range(1, config.count_n_max + 1):
        buckets = counting._descent_table(n)[1]
        total = 0
        for deset, index in _descent_subsets(n):
            want = buckets[index]
            ie = counting.ncycles_descent_ie(n, deset)
            det = counting.ncycles_descent_det(n, deset)
            if not (ie == det == want):
                return False, f"n={n}, J={sorted(deset)}: ie={ie}, det={det}, brute={want}"
            total += ie
        if total != sum(buckets):
            return False, f"n-cycle counts do not sum at n={n}"
    return True, f"ie = det = brute over n-cycles, n <= {config.count_n_max}"


@_suite("involution-counts")
def check_involution_counts(config: VerifyConfig) -> tuple[bool, str]:
    """Symmetric-matrix enumeration against brute-force involution counts."""
    from . import counting

    for n in range(1, config.count_n_max + 1):
        involutions = [
            (mask, count) for mask, count in enumerate(counting._descent_table(n)[2]) if count
        ]
        for kset, kmask in _descent_subsets(n):
            want = sum(count for mask, count in involutions if not mask & ~kmask)
            got = counting.involutions_descent_subset(n, kset)
            if got != want:
                return False, f"n={n}, K={sorted(kset)}: {got} != {want}"
    return True, f"matrix count = involution count, n <= {config.count_n_max}"


@_suite("inversion-stats")
def check_inversion_stats(config: VerifyConfig) -> tuple[bool, str]:
    """Both inversion-PGF routes, the brute PGF, and the moment formulas."""
    from fractions import Fraction as F

    from . import genfuncs, shuffles

    fair = (F(1, 2), F(1, 2))
    for n in range(1, config.n_max + 1):
        for bias in _bias_panel():
            series = genfuncs.inversion_pgf(n, bias)
            comp = genfuncs.inversion_pgf_from_compositions(n, bias)
            brute = genfuncs.inversion_pgf_from_distribution(
                shuffles.exact_distribution(n, bias)
            )
            if not (series == comp == brute):
                return False, f"inversion PGF routes differ at n={n}, bias={bias}"
            if series(1) != 1:
                return False, f"PGF not normalized at n={n}, bias={bias}"
            mean = series.derivative()(1)
            if mean != genfuncs.expected_inversions(shuffles.ShuffleSpec(n, bias, 1)):
                return False, f"inversion mean mismatch at n={n}, bias={bias}"
            # unbiased bias maximizes the inversion mean at fixed a
            a = len(bias)
            unbiased = tuple(F(1, a) for _ in range(a))
            if genfuncs.expected_inversions(
                shuffles.ShuffleSpec(n, bias, 1)
            ) > genfuncs.expected_inversions(shuffles.ShuffleSpec(n, unbiased, 1)):
                return False, f"biased mean exceeds unbiased at n={n}, bias={bias}"
    if genfuncs.expected_inversions(shuffles.ShuffleSpec(3, fair, 1)) != F(3, 4):
        return False, "fair 3-card inversion mean is not 3/4"
    if genfuncs.expected_descents(shuffles.ShuffleSpec(3, fair, 1)) != F(3, 2):
        return False, "fair 3-card descent mean is not 3/2"
    return True, f"inversion PGFs and moments exact for n <= {config.n_max}"


@_suite("monte-carlo")
def check_monte_carlo(config: VerifyConfig) -> tuple[bool, str]:
    """Sampled means of the three statistics against the closed forms."""
    from fractions import Fraction as F

    from . import genfuncs, shuffles

    n = 52
    bias = (F(2, 5), F(3, 5))
    for k in (1, 5, 10):
        stats = sample_statistics(n, bias, k, config.samples, shuffles.substream(config.seed, k))
        closed = {
            "fixed_points": genfuncs.expected_fixed_points(shuffles.ShuffleSpec(n, bias, k)),
            "inversions": genfuncs.expected_inversions(shuffles.ShuffleSpec(n, bias, k)),
            "descents": genfuncs.expected_descents(shuffles.ShuffleSpec(n, bias, k)),
        }
        for stat, want in closed.items():
            mean, se = stats[stat]
            if abs(mean - float(want)) > 4 * se:
                return False, (f"k={k} {stat}: sample mean {mean:.4f} vs exact "
                               f"{float(want):.4f} (4 se = {4 * se:.4f})")
    return True, f"all means within 4 se at {config.samples} samples, k in {{1,5,10}}"


def sample_statistics(
    n: int, bias, k: int, samples: int, rng: random.Random
) -> dict[str, tuple[float, float]]:
    """Empirical (mean, standard error) of fixed points, inversions, and
    descents, drawing the k-fold shuffle as a single tensored shuffle."""
    from . import shuffles

    spec = shuffles.ShuffleSpec(n, shuffles.tensor_power(bias, k), 1)
    sums = {"fixed_points": 0.0, "inversions": 0.0, "descents": 0.0}
    sumsq = dict(sums)
    for _ in range(samples):
        perm = shuffles.sample(spec, "inverse", rng)
        values = {
            "fixed_points": sum(map(operator.eq, perm.images, range(1, n + 1))),
            "inversions": count_inversions(perm.images),
            "descents": len(descent_set(perm)),
        }
        for stat, v in values.items():
            sums[stat] += v
            sumsq[stat] += v * v
    out = {}
    for stat in sums:
        mean = sums[stat] / samples
        var = max(sumsq[stat] / samples - mean * mean, 0.0)
        out[stat] = (mean, math.sqrt(var / samples))
    return out
