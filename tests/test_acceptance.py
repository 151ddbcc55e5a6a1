"""Acceptance suite: one test per release criterion, at full stated caps.

Each criterion runs its ``riffle.verify`` suite, the one home of that check,
with the caps pinned here.  Only what needs an independent test-only oracle
is written out in this file: the scipy chi-squared quantile in C2 and the
numpy sampler in C11.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (plus timing).  Tolerances are pinned in the suites and here:
exact equalities are exact, float checks carry their stated epsilon.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
from scipy import stats as scipy_stats

from riffle import verify
from riffle.genfuncs import expected_descents, expected_fixed_points, expected_inversions
from riffle.permutations import Permutation
from riffle.shuffles import ShuffleSpec, exact_distribution, sample, substream, tensor_power


@contextmanager
def criterion(cid: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {cid}: FAIL")
        raise
    print(f"ACCEPTANCE {cid}: PASS ({time.perf_counter() - start:.1f}s)")


def assert_suite_passes(check, **caps):
    result = check(verify.VerifyConfig(**caps))
    assert result.passed, result.detail


def test_c01_three_card_mass_table():
    with criterion("C1 three-card mass table"):
        assert_suite_passes(verify.check_shuffle_table)


def test_c02_description_equivalence():
    with criterion("C2 description equivalence"):
        assert_suite_passes(verify.check_description_equivalence, n_max=5)
        # point-dropping sampler: chi-squared goodness of fit at 1e-3
        n, bias, samples = 4, (F(1, 3), F(2, 3)), 100_000
        dist = exact_distribution(n, bias)
        rng = substream(20260810, 1)
        spec = ShuffleSpec(n, bias, 1)
        counts: dict[Permutation, int] = {}
        for _ in range(samples):
            perm = sample(spec, "geometric", rng)
            counts[perm] = counts.get(perm, 0) + 1
        assert all(dist.mass(p) > 0 for p in counts), "samples outside the support"
        stat = sum(
            (counts.get(p, 0) - float(mass) * samples) ** 2 / (float(mass) * samples)
            for p, mass in dist.masses.items()
        )
        dof = len(dist.masses) - 1
        critical = scipy_stats.chi2.ppf(1 - 1e-3, dof)
        assert stat <= critical, f"chi2 {stat:.2f} > {critical:.2f}"


def test_c03_convolution_tensor_identity():
    with criterion("C3 convolution = tensored shuffle"):
        assert_suite_passes(verify.check_convolution, n_max=5)


def test_c04_tv_within_bound():
    with criterion("C4 distance to uniform within bound"):
        assert_suite_passes(verify.check_mixing_bound, n_max=6)


def test_c05_lalley_constants():
    with criterion("C5 lower-bound exponent"):
        assert_suite_passes(verify.check_lalley)


def test_c06_worked_example_byte_exact():
    with criterion("C6 twelve-letter worked example"):
        assert_suite_passes(verify.check_standardize_example)


def test_c07_bijection_exhaustive():
    with criterion("C7 necklace bijection, all compositions to n = 6"):
        assert_suite_passes(verify.check_gessel_bijection, n_max=6)


def test_c08_cycle_generating_function():
    with criterion("C8 cycle-structure generating function"):
        assert_suite_passes(verify.check_cycle_pgf, n_max=6)


def test_c09_descent_counting_formulas():
    with criterion("C9 descent counting formulas"):
        assert_suite_passes(verify.check_descent_counts, count_n_max=8)
        assert_suite_passes(verify.check_ncycle_counts, count_n_max=8)
        assert_suite_passes(verify.check_involution_counts, count_n_max=8)


def test_c10_inversion_statistics():
    with criterion("C10 inversion statistics"):
        assert_suite_passes(verify.check_inversion_stats, n_max=7)


def test_c11_monte_carlo_closure():
    with criterion("C11 Monte Carlo closure at n = 52"):
        n, bias, samples = 52, (F(2, 5), F(3, 5)), 100_000
        for k in (1, 5, 10):
            rng = np.random.default_rng(20260810 + k)
            probs = np.array([float(x) for x in tensor_power(bias, k)])
            probs /= probs.sum()
            labels = rng.choice(len(probs), size=(samples, n), p=probs)
            sigma = np.argsort(labels, axis=1, kind="stable")
            pi0 = np.argsort(sigma, axis=1, kind="stable")  # row-wise inverse

            fixed = (pi0 == np.arange(n)).sum(axis=1)
            descents = (pi0[:, :-1] > pi0[:, 1:]).sum(axis=1) + 1
            inversions = np.zeros(samples, dtype=np.int64)
            for i in range(n - 1):
                inversions += (labels[:, i, None] > labels[:, i + 1:]).sum(axis=1)

            # cards i < j are inverted exactly when their pile labels invert
            check = slice(0, 50)
            brute = np.array([
                sum(
                    1
                    for i in range(n)
                    for j in range(i + 1, n)
                    if pi0[r, i] > pi0[r, j]
                )
                for r in range(check.start, check.stop)
            ])
            assert np.array_equal(brute, inversions[check])

            spec = ShuffleSpec(n, bias, k)
            closed = {
                "fixed points": (fixed, expected_fixed_points(spec)),
                "inversions": (inversions, expected_inversions(spec)),
                "descents": (descents, expected_descents(spec)),
            }
            for name, (values, want) in closed.items():
                mean = values.mean()
                se = values.std(ddof=1) / math.sqrt(samples)
                assert abs(mean - float(want)) <= 4 * se, (
                    k, name, mean, float(want), 4 * se
                )
