import argparse
import ast
import contextlib
import hashlib
import importlib
import inspect
import itertools
import json
import math
import os
import pkgutil
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riffle
from riffle import counting, genfuncs, permutations, shuffles, verify
from riffle.cli import _json_text, build_parser, main
from riffle.genfuncs import expected_inversions
from riffle.shuffles import ShuffleSpec, exact_kfold_distribution
from riffle.verify import BIAS_PANEL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_reproducible_byte_identical(capsys):
    argv = ["sample", "--n", "5", "--p", "1/2,1/2", "--k", "1", "--seed", "7",
            "--samples", "3"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 3
    for line in out1.splitlines():
        assert sorted(map(int, line.split())) == [1, 2, 3, 4, 5]


def test_sample_single_pile_streams_identity(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "3", "--p", "1", "--samples", "10",
                           "--seed", "1")
    assert code == 0
    assert out.splitlines() == ["1 2 3"] * 10


def test_sample_json_format(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "4", "--p", "1/2,1/2", "--seed", "3",
                           "--samples", "2", "--format", "json")
    assert code == 0
    for line in out.splitlines():
        assert sorted(json.loads(line)) == [1, 2, 3, 4]


def test_sample_requires_seed(capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "3", "--p", "1/2,1/2")
    assert code == 2
    assert "seed" in err


def test_bad_bias_is_rejected(capsys):
    code, _, err = run_cli(capsys, "dist", "--n", "3", "--p", "0.5,0.6")
    assert code == 2
    assert "renormalization" in err


def test_dist_json(capsys):
    code, out, _ = run_cli(capsys, "dist", "--n", "3", "--p", "1/3,2/3")
    assert code == 0
    obj = json.loads(out)
    # the JSON is written by hand: it must print back unchanged
    assert out == json.dumps(obj) + "\n"
    assert obj["n"] == 3
    assert {"perm": [1, 2, 3], "p": "5/9"} in obj["masses"]
    assert {"perm": [1, 3, 2], "p": "2/27"} in obj["masses"]


def _dist_text(dist, fmt):
    """``dist`` as the dist subcommand prints it; the JSON is the library's
    ``to_json_obj``, the route the benchmark's digests are recorded from."""
    if fmt == "csv":
        return "".join(["perm,p\n", *(f"{' '.join(map(str, perm.images))},{m.numerator}/{m.denominator}\n"
                                       for perm, m in sorted(dist.masses.items()))])
    return json.dumps(dist.to_json_obj()) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("k", [0, 2, 3])
@pytest.mark.parametrize("text", [",".join(f"{p.numerator}/{p.denominator}" for p in bias)
                                  for bias in BIAS_PANEL])
def test_dist_prints_the_kfold_distribution(capsys, text, k, fmt):
    # the class table is printed without building the distribution; the
    # validated library route must print the same text
    for n in range(7):
        want = _dist_text(exact_kfold_distribution(n, shuffles.parse_bias(text), k), fmt)
        assert run_cli(capsys, "dist", "--n", str(n), "--p", text, "--k", str(k),
                       "--format", fmt) == (0, want, "")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("text, k", [("1/3,2/3", 2), ("1/2,1/4,1/4", 1)],
                         ids=["classes", "pile-words"])
def test_dist_prints_the_same_text_across_chunks(capsys, text, k, n, fmt):
    # 1,312 to 40,320 rows: the writer's chunks must join without a seam
    want = _dist_text(exact_kfold_distribution(n, shuffles.parse_bias(text), k), fmt)
    assert run_cli(capsys, "dist", "--n", str(n), "--p", text, "--k", str(k),
                   "--format", fmt) == (0, want, "")


def test_dist_memory_does_not_hold_the_output():
    # the output is 6.4 MB of JSON; the rows are written as they are walked,
    # and the class indices of S_9 are yielded from the 8! of S_8
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["dist", "--n", "9", "--p", "1/3,2/3", "--k", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


def test_dist_of_one_shuffle_holds_one_integer_per_permutation():
    # 4,084 pile-word masses kept as integer numerators with one text per
    # distinct mass: about 1.2 MB of Python allocations, against 2.3 MB when a
    # Fraction, a Permutation and a text were built for each
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["dist", "--n", "12", "--p", "1/2,1/2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1_600_000


@pytest.mark.parametrize("argv", [
    ["dist", "--n", "8", "--p", "1/3,2/3", "--k", "2", "--format", "csv"],
    ["sample", "--n", "52", "--p", "1/2,1/2", "--k", "7", "--samples", "100000", "--seed", "1"],
], ids=["dist", "sample"])
def test_a_reader_that_stops_early_gets_one_error_line(argv):
    src = str(Path(riffle.__file__).resolve().parents[1])
    with subprocess.Popen([sys.executable, "-m", "riffle.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, "error: stdout was closed before the output was written\n")


# Bad class tables of S_3 over the scale 4, each passed through the table's one check.
BAD_CLASS_TABLES = pytest.mark.parametrize("table, message", [
    ([1, 1, 1, 1], "masses sum to 3/2, not 1"),
    ([5, 0, 0, -1], "negative mass for inverse-descent class 3"),
], ids=["sum", "negative"])


def _bad_classes(monkeypatch, table):
    monkeypatch.setattr(shuffles, "_kfold_classes", lambda n, bias, k: shuffles._checked_classes(
        table, [1, 2, 2, 1], 4))


@BAD_CLASS_TABLES
def test_dist_refuses_a_bad_class_table(capsys, monkeypatch, table, message):
    _bad_classes(monkeypatch, table)
    assert run_cli(capsys, "dist", "--n", "3", "--p", "1/2,1/2", "--k", "2") == \
        (2, "", f"error: {message}\n")


@BAD_CLASS_TABLES
def test_tv_refuses_a_bad_class_table(capsys, monkeypatch, table, message):
    _bad_classes(monkeypatch, table)
    assert run_cli(capsys, "tv", "--n", "3", "--p", "1/2,1/2", "--k", "2") == \
        (2, "", f"error: {message}\n")


def test_dist_above_s9_is_refused_on_the_class_route(capsys):
    assert run_cli(capsys, "dist", "--n", "10", "--p", "1/3,2/3", "--k", "2") == \
        (2, "", "error: n=10 above cap 9\n")


def test_dist_of_one_shuffle_by_pile_words_keeps_its_digest(capsys):
    # k = 1 with 2^8 <= 8! goes through exact_distribution's integer masses
    code, out, _ = run_cli(capsys, "dist", "--n", "8", "--p", "1/3,2/3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "90cf4788b98c5d8679b391e780219b25e2ecf6708e2d62f6fba27b135d9efd97"


def test_dist_csv(capsys):
    code, out, _ = run_cli(capsys, "dist", "--n", "2", "--p", "1/3,2/3",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["perm,p", "1 2,7/9", "2 1,2/9"]


# Exact distances of 1..3 fair shuffles of 10 cards, equal to the closed form
# of Bayer and Diaconis (checked against it in tests/test_shuffles.py).
FAIR_TV_10 = ["604631/604800", "1562377/1814400", "812046492277/1902536294400"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tv_past_s9_is_the_fair_closed_form(capsys, k):
    code, out, err = run_cli(capsys, "tv", "--n", "10", "--p", "1/2,1/2", "--k", str(k))
    assert (code, err) == (0, "")
    assert json.loads(out)["exact_tv"] == FAIR_TV_10[k - 1]


def test_report_past_s9_fills_the_exact_column(capsys):
    code, out, err = run_cli(capsys, "report", "--n", "10", "--p", "1/2,1/2", "--k-max", "3",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert [row["exact_tv"] for row in json.loads(out)["rows"]] == FAIR_TV_10


def _timed_cli(*argv, **options) -> tuple[float, subprocess.CompletedProcess]:
    src = str(Path(riffle.__file__).resolve().parents[1])
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "riffle.cli", *argv], timeout=60,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          **options)
    return time.perf_counter() - start, done


def _two_gigabytes_of_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


HUGE = "99999999999"


@pytest.mark.parametrize("method, code, out, err", [
    ("ie", 0, f'{{"J": [{HUGE}], "n": {HUGE}, "exact": 1, "ncycles": 0, "method": "ie"}}\n', ""),
    ("det", 0, f'{{"J": [{HUGE}], "n": {HUGE}, "exact": 1, "ncycles": 0, "method": "det"}}\n',
     ""),
    ("brute", 2, "", f"error: n={HUGE} above cap 9\n"),
])
def test_count_of_a_huge_deck_answers_within_a_second(method, code, out, err):
    # J = {n}: checking J once built the set 1..n, a MemoryError under this
    # limit, and the ie term formed n!; the identity is the one permutation
    # and no n-cycle
    elapsed, done = _timed_cli("count", "--n", HUGE, "--j", HUGE, "--method", method,
                               preexec_fn=_two_gigabytes_of_address_space)
    assert elapsed < 1
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_count_det_of_four_hundred_positions_prints_within_two_seconds():
    # J = {1..400}: Bareiss elimination of the 400 x 400 binomial matrix ran
    # past 20 s; the unit-Hessenberg recurrence takes O(k^2) products
    j = ",".join(map(str, range(1, 401)))
    elapsed, done = _timed_cli("count", "--n", "400", "--j", j, "--method", "det")
    assert elapsed < 2
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {"J": list(range(1, 401)), "n": 400, "exact": 1,
                                       "ncycles": 0, "method": "det"}


def test_tv_of_sixteen_cards_prints_within_two_seconds():
    elapsed, done = _timed_cli("tv", "--n", "16", "--p", "0.4,0.6", "--k", "4")
    assert elapsed < 2
    assert done.returncode == 0
    tv = Fraction(json.loads(done.stdout)["exact_tv"])
    assert tv == shuffles.tv_to_uniform(16, (Fraction(2, 5), Fraction(3, 5)), 4)


def test_tv_of_one_letter_at_the_budget_prints_within_three_seconds():
    # 2^21 * 1^3 cells is the budget itself; every class but the identity's is empty
    elapsed, done = _timed_cli("tv", "--n", "21", "--p", "1", "--k", "3")
    assert elapsed < 3
    assert done.returncode == 0
    assert Fraction(json.loads(done.stdout)["exact_tv"]) == 1 - Fraction(1, math.factorial(21))


def test_dist_of_a_thousand_cards_one_pile(capsys):
    # the word listing nested once per card and overflowed the stack at n = 1000
    code, out, err = run_cli(capsys, "dist", "--n", "1000", "--p", "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 1000, "masses": [{"perm": list(range(1, 1001)), "p": "1/1"}]}


def test_brute_counts_reach_s9_with_no_flag():
    elapsed, done = _timed_cli("count", "--n", "9", "--j", "1,9", "--method", "brute")
    assert (done.returncode, done.stderr) == (0, "")
    # a descent at 1 alone: a first card above 1, then the rest rising
    assert json.loads(done.stdout) == {"J": [1, 9], "n": 9, "exact": 8, "ncycles": 1,
                                       "method": "brute"}
    assert elapsed < 15


@pytest.mark.parametrize("deset", ["9", "2,4,6,8,9", "1,2,3,4,5,6,7,8,9"])
def test_brute_counts_of_s9_match_the_determinants(capsys, deset):
    # the brute table's inverse-descent walk and cyclic orders at the cap,
    # against the determinant formulas that never list a permutation
    def counted(method):
        code, out, err = run_cli(capsys, "count", "--n", "9", "--j", deset, "--method", method)
        assert (code, err) == (0, "")
        result = json.loads(out)
        return result["exact"], result["ncycles"]

    assert counted("brute") == counted("det")


def test_brute_counts_list_no_permutation_objects(capsys, monkeypatch):
    def listed(n):
        raise AssertionError(f"S_{n} listed as Permutation objects")

    # counting does not import symmetric_group_list, so this is its one home
    monkeypatch.setattr(permutations, "symmetric_group_list", listed)
    assert run_cli(capsys, "count", "--n", "9", "--j", "1,9", "--method", "brute") == (
        0, '{"J": [1, 9], "n": 9, "exact": 8, "ncycles": 1, "method": "brute"}\n', "")


def test_cycle_pgf_needs_no_flag_above_s9(capsys):
    code, out, err = run_cli(capsys, "stats", "--n", "10", "--p", "1/2,1/2", "--stat", "cycle-pgf")
    assert (code, err) == (0, "")
    pgf = genfuncs.cycle_structure_pgf(10, (Fraction(1, 2),) * 2)
    assert json.loads(out)["terms"] == [
        {"type": [list(part) for part in key], "p": f"{c.numerator}/{c.denominator}"}
        for key, c in sorted(pgf.terms.items())]


@pytest.mark.parametrize("factor, message", [
    (2, "masses sum to 2, not 1"),
    (-1, "negative coefficient of q^0"),
], ids=["sum", "negative"])
def test_stats_refuses_a_bad_inversion_law(capsys, monkeypatch, factor, message):
    # the integer series of E q^Inv on 3 cards, scaled before it is divided
    exp_integers = genfuncs._exp_integers
    monkeypatch.setattr(genfuncs, "_exp_integers", lambda a, n, width: [
        [factor * x for x in f] for f in exp_integers(a, n, width)])
    assert run_cli(capsys, "stats", "--n", "3", "--p", "1/2,1/2", "--stat", "inv-pgf") == \
        (2, "", f"error: {message}\n")


def test_cycle_pgf_of_33_cards_prints_within_five_seconds():
    # 33 * (p(0) + ... + p(33)) = 1,780,779 cells, the largest n within the budget
    elapsed, done = _timed_cli("stats", "--n", "33", "--p", "1/2,1/2", "--stat", "cycle-pgf")
    assert (done.returncode, done.stderr) == (0, "")
    assert sum(Fraction(term["p"]) for term in json.loads(done.stdout)["terms"]) == 1
    assert elapsed < 5


@pytest.mark.parametrize("argv, estimate", [
    (["stats", "--n", "54", "--p", "1/2,1/2", "--stat", "inv-pgf"],
     "C(55,2) * (C(54,2)+1) = 2126520 cells is above the budget of 2097152 cells"),
    (["stats", "--n", "150", "--n-max", "150", "--p", "1/2,1/2", "--stat", "inv-pgf"],
     "C(151,2) * (C(150,2)+1) = 126568200 cells"),
    (["dist", "--n", "999", "--p", "1/2,1/2"],
     "999 cards * 2^999 pile words is above the budget of 3265920 listed cards"),
    (["dist", "--n", "100000000", "--p", "1"], "100000000 cards * 1^100000000 pile words"),
    (["dist", "--n", "99999999999", "--p", "2/3,1/3", "--k", "9"], "n=99999999999 above cap 9"),
    (["stats", "--n", "34", "--p", "1/2,1/2", "--stat", "cycle-pgf"],
     "34 * (p(0) + ... + p(34)) cells (the terms to p(34) give 2253282) is above the "
     "budget of 2097152 cells"),
    (["stats", "--n", "200", "--n-max", "200", "--p", "1/2,1/2", "--stat", "cycle-pgf"],
     "200 * (p(0) + ... + p(200)) cells (the terms to p(26) give 2346400) is above the "
     "budget of 2097152 cells"),
    (["stats", "--n", "1000000", "--p", "1/2,1/2", "--stat", "cycle-pgf"],
     "1000000 * (p(0) + ... + p(1000000)) cells"),
    # within the cells and the answer digits, but each product is of 433-digit ints
    (["stats", "--n", "33", "--p", "1/7,2/7,4/7", "--k", "140", "--stat", "cycle-pgf"],
     "cycle-type table of 1780779 cells plus 53963 coefficient products of 433 machine "
     "digits each (P_33^140 has a 12970-bit denominator), 25146758 cells in all, is above "
     "the budget of 2097152 cells"),
], ids=["inv-pgf-54", "inv-pgf-n-max-150", "dist-999", "dist-one-letter-1e8",
        "dist-classes-1e11", "cycle-pgf-34", "cycle-pgf-n-max-200", "cycle-pgf-1e6",
        "cycle-pgf-digits"])
def test_work_over_budget_is_refused_with_its_estimate(argv, estimate):
    elapsed, done = _timed_cli(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert estimate in done.stderr
    assert elapsed < 1


@pytest.mark.parametrize("n, want", [("5", "1"), ("4", "1/2,1/2")],
                         ids=["one-letter", "two-letters"])
def test_dist_cuts_only_the_nonzero_letters(capsys, n, want):
    # all C(n + a - 1, a - 1) cuts of the a letters were walked, the zero-mass ones skipped
    elapsed, done = _timed_cli("dist", "--n", n, "--p", ",".join([want] + ["0"] * 200))
    assert elapsed < 1
    assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, "dist", "--n", n,
                                                                   "--p", want)


def test_report_of_an_empty_deck_fills_every_row(capsys):
    # the one class of n = 0 needs no letter, so no k is over the sweep budget
    code, out, err = run_cli(capsys, "report", "--n", "0", "--p", "1/2,1/2", "--k-max", "23",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert [row["exact_tv"] for row in json.loads(out)["rows"]] == ["0/1"] * 23


@pytest.mark.parametrize("argv, detail", [
    (["--only", "fixed-points", "--n-max", "6"], "fixed-point PGFs exact for n <= 6"),
    (["--only", "geometric-fit", "--samples", "2000"],
     "chi2 10.2 <= 31.4 (dof 11, 2000 samples)"),
    (["--only", "monte-carlo", "--samples", "300"],
     "all means within 4 se at 300 samples, k in {1,5,10}"),
], ids=["fixed-points", "geometric-fit", "monte-carlo"])
def test_verify_suites_run_through_the_cli(capsys, argv, detail):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert json.loads(out) == {"name": argv[1], "passed": True, "detail": detail}
    assert err == "1/1 suites passed\n"


def test_tv_json(capsys):
    code, out, _ = run_cli(capsys, "tv", "--n", "3", "--p", "1/2,1/2")
    assert code == 0
    obj = json.loads(out)
    assert obj["exact_tv"] == "1/3"
    assert obj["tv_bound"] == "3/2"


_JSON_TEXTS = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f0a1'))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans()
    | st.integers() | st.integers(-10**4000, 10**4000)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | _JSON_TEXTS,
    lambda items: st.lists(items) | st.lists(items).map(tuple)
    | st.dictionaries(_JSON_TEXTS, items),
    max_leaves=20)


@given(_JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_the_json_writer_gives_the_text_of_json_dumps(value):
    # ints of thousands of digits, nan, +-inf, -0.0, control characters,
    # quotes, backslashes and non-BMP text, in lists, tuples and dicts
    assert _json_text(value) == json.dumps(value)


def test_stats_moments(capsys):
    for n, stat, value in [("3", "fixed-points", "7/4"), ("3", "inversions", "3/4"),
                           ("3", "descents", "3/2"), ("0", "fixed-points", "0/1"),
                           ("0", "inversions", "0/1"), ("0", "descents", "0/1")]:
        code, out, _ = run_cli(capsys, "stats", "--n", n, "--p", "1/2,1/2",
                               "--stat", stat)
        assert code == 0
        assert json.loads(out)["exact"] == value


def test_stats_pgfs(capsys):
    code, out, _ = run_cli(capsys, "stats", "--n", "3", "--p", "1/2,1/2",
                           "--stat", "inv-pgf")
    assert json.loads(out)["coeffs"] == ["1/2", "1/4", "1/4"]
    code, out, _ = run_cli(capsys, "stats", "--n", "3", "--p", "1/2,1/2",
                           "--stat", "cycle-pgf")
    terms = json.loads(out)["terms"]
    assert {"type": [[3, 1]], "p": "1/4"} in terms


def test_dist_with_a_1024_letter_bias(capsys):
    # n=1: a RecursionError inside the composition walk before it became a
    # loop; n=2: C(1025, 2) letter contents before k=1 went through the
    # inverse-descent class sweep, now taken when it is the shorter list
    bias = ",".join(["1/1024"] * 1024)
    code, out, _ = run_cli(capsys, "dist", "--n", "1", "--p", bias)
    assert code == 0
    assert json.loads(out) == {"n": 1, "masses": [{"perm": [1], "p": "1/1"}]}
    code, out, _ = run_cli(capsys, "dist", "--n", "2", "--p", bias)
    assert code == 0
    # identity: a weakly increasing pile word, 1024 * 1025 / 2 of 1024^2
    assert json.loads(out) == {"n": 2, "masses": [{"perm": [1, 2], "p": "1025/2048"},
                                                  {"perm": [2, 1], "p": "1023/2048"}]}


def test_dist_of_one_shuffle_lists_pile_words_above_s9(capsys):
    # k=1 above MAX_CACHED_N is listed by its 2^10 pile words, not from S_10
    code, out, _ = run_cli(capsys, "dist", "--n", "10", "--p", "1/2,1/2")
    assert code == 0
    masses = {tuple(m["perm"]): Fraction(m["p"]) for m in json.loads(out)["masses"]}
    # every binary word standardizes to a distinct permutation except the
    # n + 1 weakly increasing ones, which all give the identity
    assert len(masses) == 2**10 - 10
    assert masses[tuple(range(1, 11))] == Fraction(11, 1024)
    assert sum(masses.values()) == 1


def rising_sequence_cycle_law(n: int, a: int) -> dict:
    """Cycle-type law of a fair a-shuffle of n cards, from Bayer and Diaconis:
    pi has mass C(a + n - 1 - d, n) / a^n with d = des(pi^-1)."""
    want: dict = {}
    for images in itertools.permutations(range(1, n + 1)):
        position = {card: i for i, card in enumerate(images)}
        d = sum(1 for card in range(1, n) if position[card] > position[card + 1])
        seen, lengths = set(), []
        for start in range(1, n + 1):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = images[i - 1]
                length += 1
            if length:
                lengths.append(length)
        key = tuple(sorted(Counter(lengths).items()))
        want[key] = want.get(key, Fraction(0)) + Fraction(math.comb(a + n - 1 - d, n), a**n)
    return want


def cycle_pgf_terms(out: str) -> dict:
    return {
        tuple(tuple(pair) for pair in term["type"]): Fraction(term["p"])
        for term in json.loads(out)["terms"]
    }


def test_cycle_pgf_of_ten_fair_shuffles_is_the_rising_sequence_law(capsys):
    # ten fair shuffles are one 1024-shuffle
    code, out, _ = run_cli(capsys, "stats", "--n", "3", "--p", "1/2,1/2", "--k", "10",
                           "--stat", "cycle-pgf")
    assert code == 0
    assert cycle_pgf_terms(out) == rising_sequence_cycle_law(3, 2**10)


def test_cycle_pgf_of_twenty_fair_shuffles_is_the_rising_sequence_law(capsys):
    # 2^20 tensored letters, which the kernel never builds
    code, out, _ = run_cli(capsys, "stats", "--n", "3", "--p", "1/2,1/2", "--k", "20",
                           "--stat", "cycle-pgf")
    assert code == 0
    assert cycle_pgf_terms(out) == rising_sequence_cycle_law(3, 2**20)


def test_inv_pgf_of_forty_fair_shuffles(capsys):
    # 2^40 tensored letters, which the kernel never builds
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "stats", "--n", "3", "--p", "1/2,1/2", "--k", "40",
                           "--stat", "inv-pgf")
    assert time.perf_counter() - start < 1
    assert code == 0
    coeffs = [Fraction(c) for c in json.loads(out)["coeffs"]]
    assert sum(coeffs) == 1
    mean = sum(j * c for j, c in enumerate(coeffs))
    assert mean == Fraction(math.comb(3, 2), 2) * (1 - Fraction(1, 2**40))


def test_inv_pgf_of_a_52_card_deck(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "stats", "--n", "52", "--p", "1/2,1/2", "--k", "7",
                           "--stat", "inv-pgf")
    assert time.perf_counter() - start < 3
    assert code == 0
    coeffs = [Fraction(c) for c in json.loads(out)["coeffs"]]
    assert sum(coeffs) == 1
    mean = sum(j * c for j, c in enumerate(coeffs))
    assert mean == expected_inversions(ShuffleSpec(52, (Fraction(1, 2),) * 2, 7))


@pytest.mark.parametrize("argv, k, answer", [
    (("tv", "--n", "5", "--p", "1,0"), "100000000", '"exact_tv": "119/120"'),
    (("tv", "--n", "1", "--p", "1,0"), "100000000", '"exact_tv": "0/1"'),
    (("dist", "--n", "3", "--p", "1,0"), "100000000", '[{"perm": [1, 2, 3], "p": "1/1"}]'),
    # C(0,2) = 0, so the bound needs no (sum p_i^2)^k
    (("tv", "--n", "0", "--p", "1/2,1/2"), "1000000000", '"tv_bound": "0/1"'),
    # below n = 2 the one power sum read is P_1 = 1, and P_2 is not read
    (("stats", "--n", "1", "--p", "1/3,2/3", "--stat", "inv-pgf"), "10000000",
     '"coeffs": ["1/1"]'),
    (("stats", "--n", "1", "--p", "1/3,2/3", "--stat", "fixed-points"), "10000000",
     '"exact": "1/1"'),
    (("stats", "--n", "1", "--p", "1/3,2/3", "--stat", "cycle-pgf"), "10000000",
     '"terms": [{"type": [[1, 1]], "p": "1/1"}]'),
    (("stats", "--n", "0", "--p", "1/3,2/3", "--stat", "cycle-pgf"), "10000000",
     '"terms": [{"type": [], "p": "1/1"}]'),
    (("stats", "--n", "1", "--p", "1/2,1/2", "--stat", "inversions"), "1000000000",
     '"exact": "0/1"'),
    (("stats", "--n", "1", "--p", "1/2,1/2", "--stat", "descents"), "1000000000",
     '"exact": "1/1"'),
])
def test_a_huge_k_that_changes_nothing_is_answered_at_once(capsys, argv, k, answer):
    # 1^k = 1 passes the sweep budget, so a one-letter bias must not be tensored k times
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv, "--k", k)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert answer in out
    _, at_three, _ = run_cli(capsys, *argv, "--k", "3")
    assert out == at_three.replace('"k": 3,', f'"k": {k},')


def test_tv_of_forty_fair_shuffles_is_refused_before_tensoring(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "tv", "--n", "6", "--p", "1/2,1/2", "--k", "40")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "2^6 * 2^40 cells" in err


def test_count_ie_over_its_term_budget_is_refused_before_walking(capsys):
    # J = {1..43}: 2^42 subsets and p(0) + ... + p(42) = 313,065 groups
    j = ",".join(str(i) for i in range(1, 44))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--n", "43", "--j", j, "--method", "ie")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "2^42 subsets" in err and "(at least 313065)" in err


def test_count_ie_weighs_its_groups_by_their_gaps(capsys):
    # J = {1..42}: p(0) + ... + p(41) = 259,891 groups, within the budget as
    # a count, each copying a tuple of up to 42 gaps: the walk took 3-7 s
    j = ",".join(str(i) for i in range(1, 43))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--n", "42", "--j", j, "--method", "ie")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: inclusion-exclusion over 2^41 subsets of J, p(c) groups at each "
                   "cut c (at least 259891) of up to 42 gaps each (at least 10915422 in all), "
                   "is above the budget of 262144 terms\n")


def test_arithmetic_errors_exit_3_without_traceback(capsys, monkeypatch):
    def no_divide(n, deset):
        raise ArithmeticError(f"divisor sum not divisible by n={n}")

    monkeypatch.setattr(counting, "ncycles_descent_det", no_divide)
    code, out, err = run_cli(capsys, "count", "--n", "3", "--j", "1,3", "--method", "det")
    assert code == 3
    assert out == ""
    assert err == "error: divisor sum not divisible by n=3\n"


@pytest.mark.parametrize("method", ["ie", "det", "brute"])
def test_count_names_a_negative_deck_size(capsys, method):
    assert run_cli(capsys, "count", "--n", "-1", "--j", "-1", "--method", method) == \
        (2, "", "error: negative deck size\n")


@pytest.mark.parametrize("method", ["ie", "det", "brute"])
@pytest.mark.parametrize("j, message", [
    ("1", "descent set must contain n=3: [1]"),
    ("4,3", "descent set not within 1..3: [3, 4]"),
    ("0,3", "descent set not within 1..3: [0, 3]"),
], ids=["without-n", "above-n", "zero"])
def test_count_refuses_a_malformed_descent_set_on_every_method(capsys, method, j, message):
    assert run_cli(capsys, "count", "--n", "3", "--j", j, "--method", method) == \
        (2, "", f"error: {message}\n")


def test_count_ie_at_the_edge_of_its_term_budget(capsys):
    # 2^18 subsets of J = {1..19}, the most that MAX_IE_TERMS held as a group
    # count; weighed by their 19 gaps, the p(0) + ... + p(18) = 1,597 groups
    # are 30,343 terms
    j = ",".join(str(i) for i in range(1, 20))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--n", "19", "--j", j, "--method", "ie")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    want = {"J": list(range(1, 20)), "n": 19, "exact": 1, "ncycles": 0, "method": "ie"}
    assert out == json.dumps(want) + "\n"


@pytest.mark.parametrize("j", [range(1, 25), [*range(1, 12), *range(13, 25)]],
                         ids=["all", "all-but-12"])
def test_count_ie_past_its_subsets_within_its_groups_equals_det(capsys, j):
    # 2^23 and 2^22 subsets, over MAX_IE_TERMS, in at most p(0) + ... + p(23)
    # = 5,763 groups of up to 24 gaps, 138,312 terms, within it
    j = ",".join(map(str, j))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--n", "24", "--j", j, "--method", "ie")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert run_cli(capsys, "count", "--n", "24", "--j", j, "--method", "det") == \
        (0, out.replace('"ie"', '"det"'), "")


def test_count_json_all_methods(capsys):
    want = {"J": [1, 3], "n": 3, "exact": 2, "ncycles": 1}
    for method in ("ie", "det", "brute"):
        code, out, _ = run_cli(capsys, "count", "--n", "3", "--j", "1,3",
                               "--method", method)
        assert code == 0
        assert json.loads(out) == want | {"method": method}


def test_bijection_word(capsys):
    code, out, _ = run_cli(capsys, "bijection", "--word",
                           "2,2,1,1,2,3,3,3,2,3,2,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["standardized"] == [3, 4, 1, 2, 5, 9, 10, 11, 6, 12, 7, 8]
    assert {"necklace": [2, 3, 2, 3, 3], "letters": "bcbcc", "mult": 1} in obj["necklaces"]


def test_bijection_perm_requires_parts(capsys):
    code, _, err = run_cli(capsys, "bijection", "--perm", "2,3,1")
    assert code == 2 and "parts" in err


def test_bijection_refuses_parts_with_a_word(capsys):
    # --parts is the content of --perm; with --word it was silently ignored
    assert run_cli(capsys, "bijection", "--word", "1,2", "--parts", "1,1") == \
        (2, "", "error: --parts goes with --perm, and only with it\n")


@pytest.mark.parametrize("argv, flag, text, bad", [
    (["count", "--n", "3", "--j", "1,,3"], "--j", "1,,3", ""),
    (["bijection", "--word", "2,1,a"], "--word", "2,1,a", "a"),
    (["bijection", "--perm", "2,1.5", "--parts", "1,1"], "--perm", "2,1.5", "1.5"),
    (["bijection", "--perm", "2,1", "--parts", "1,"], "--parts", "1,", ""),
], ids=["j", "word", "perm", "parts"])
def test_integer_list_flags_name_the_flag_they_cannot_parse(capsys, argv, flag, text, bad):
    assert run_cli(capsys, *argv) == (
        2, "", f"error: cannot parse {flag} {text!r}: "
               f"invalid literal for int() with base 10: {bad!r}\n")


def test_report_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "report", "--n", "4", "--p", "1/2,1/2",
                           "--k-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[4] == "k,tv_bound,exact_tv"
    assert lines[5].startswith("1,3/1,")
    bounds = [line.split(",")[1] for line in lines[5:]]
    assert bounds == ["3/1", "3/2", "3/4"]


def test_report_above_cap_omits_exact(capsys):
    code, out, err = run_cli(capsys, "report", "--n", "52", "--p", "0.4,0.6",
                             "--k-max", "2", "--format", "json")
    assert code == 0
    assert "omitted" in err
    obj = json.loads(out)
    assert all(row["exact_tv"] is None for row in obj["rows"])
    assert obj["lalley_lower_steps"] == pytest.approx(9.1509, abs=1e-3)


def test_report_ends_the_exact_column_at_the_sweep_budget(capsys):
    # rows 1-8 are within 2^8 * 3^8 cells; k = 9 is the first row over budget
    code, out, err = run_cli(capsys, "report", "--n", "8", "--p", "1/3,1/3,1/3",
                             "--k-max", "10", "--format", "json")
    assert code == 0
    assert err == ("note: exact_tv omitted from k=9 on: class sweep of 2^8 * 3^9 cells "
                   "is above the budget of 2097152 cells\n")
    rows = json.loads(out)["rows"]
    assert [row["exact_tv"] is None for row in rows] == [False] * 8 + [True] * 2


def test_report_ends_the_bound_column_at_the_answer_budget(capsys):
    # P_2 of this bias has a denominator of 10^200 / 2: k = 20 is 3994 digits, k = 21 is 4194
    third = 10**100 // 3
    bias = f"{third}/{10**100},{10**100 - third}/{10**100}"
    code, out, err = run_cli(capsys, "report", "--n", "52", "--p", bias, "--k-max", "22",
                             "--format", "json")
    assert code == 0
    notes = err.splitlines()
    assert len(notes) == 2 and notes[0].startswith("note: exact_tv omitted from k=1 on:")
    assert notes[1] == ("note: tv_bound omitted from k=21 on: an exact answer of up to 4194 "
                        "digits (power sums of degree 2 at k=21) is above the budget of "
                        "4000 digits")
    rows = json.loads(out)["rows"]
    assert [row["tv_bound"] is None for row in rows] == [False] * 20 + [True] * 2
    assert Fraction(rows[19]["tv_bound"]) == shuffles.suf_bound(
        ShuffleSpec(52, shuffles.parse_bias(bias), 20))
    code, out, _ = run_cli(capsys, "report", "--n", "52", "--p", bias, "--k-max", "22")
    assert code == 0 and out.splitlines()[-1] == "22,,"


def test_report_near_a_one_letter_bias_prints_finite_step_counts(capsys):
    # 1 - sum p^2 = 2e-20 is lost in a float sum p^2, which rounded to 1 and
    # divided by log(1) = 0; the two step counts now come from 1 - sum p^2
    big = 10**20
    for bias in (f"1/{big},{big - 1}/{big}", f"{big - 1}/{big},1/{big}"):
        code, out, err = run_cli(capsys, "report", "--n", "52", "--p", bias, "--k-max", "1",
                                 "--format", "json")
        assert code == 0, err
        obj = json.loads(out)
        lalley, suffices = obj["lalley_lower_steps"], obj["suffices_steps"]
        assert math.isfinite(lalley) and math.isfinite(suffices)
        # log(1/sum p^2) is 2e-20 to first order, and theta is 4
        assert suffices == pytest.approx(2 * math.log(52) / 2e-20, rel=1e-12)
        assert lalley == pytest.approx(7 / 4 * math.log(52) / 2e-20, rel=1e-11)


def test_verify_filtered_suites(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "lalley")
    assert code == 0
    results = [json.loads(line) for line in out.splitlines()]
    assert results and all(r["passed"] for r in results)
    assert "1/1 suites passed" in err


def test_verify_runs_at_the_largest_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "necklace-counts", "--n-max", "8")
    assert code == 0
    assert json.loads(out)["detail"].endswith("through size 8, a <= 3")


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nonesuch")
    assert code == 2
    assert "no suite" in err


def test_a_suite_that_raises_fails_with_the_exception(capsys, monkeypatch):
    def no_theta(p1):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(shuffles, "lalley_theta", no_theta)
    want = ("lalley", False, "raised ZeroDivisionError: float division by zero")
    results = [verify.check_lalley(verify.VerifyConfig()), *verify.run(only="lalley")]
    assert [(r.name, r.passed, r.detail) for r in results] == [want, want]
    code, out, err = run_cli(capsys, "verify", "--only", "lalley")
    assert (code, err) == (1, "0/1 suites passed\n")
    assert json.loads(out) == dict(zip(("name", "passed", "detail"), want))


def test_only_the_registry_builds_a_check_result():
    # each suite names itself once, in @_suite: the registry wraps the
    # check's (passed, detail) into the CheckResult, so no suite keeps a name
    src = Path(verify.__file__).parent
    tree = ast.parse((src / "verify.py").read_text())
    register = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_suite")
    built = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and "CheckResult" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert built
    assert all(name == "verify.py" and register.lineno <= line <= register.end_lineno
               for name, line in built)
    suites = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_suite"
                      for d in node.decorator_list)]
    assert len(suites) == len(verify.suite_names())
    assert [(suite.name, node.lineno) for suite in suites for node in ast.walk(suite)
            if isinstance(node, ast.Name) and node.id == "name"
            and isinstance(node.ctx, ast.Store)] == []


@pytest.mark.parametrize("argv", [
    ["report", "--n", "6", "--p", "1/2,1/2", "--k-max", "-3"],
    ["report", "--n", "6", "--p", "1/2,1/2", "--k-max", "0"],
    ["verify", "--only", "lalley", "--samples", "0"],
    ["verify", "--only", "monte", "--samples", "-5"],
    ["verify", "--only", "equivalence", "--n-max", "-2"],
    ["verify", "--only", "equivalence", "--n-max", "9"],
    ["verify", "--only", "equivalence", "--n-max", "10"],
    ["stats", "--n", "3", "--p", "1/2,1/2", "--stat", "inv-pgf", "--n-max", "0"],
    ["dist", "--n", "-1", "--p", "1/2,1/2", "--k", "2"],
    ["dist", "--n", "-1", "--p", "1/2,1/2"],
], ids=["report-k-max-negative", "report-k-max-zero", "verify-samples-zero",
        "verify-samples-negative", "verify-n-max-negative", "verify-n-max-9",
        "verify-n-max-10", "stats-n-max-zero", "dist-n-negative-k2", "dist-n-negative"])
def test_bad_counts_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("k", ["1", "2"])
def test_negative_deck_size_is_named(capsys, k):
    # k = 1 reached math.factorial(-1), k = 2 recursed without end
    assert run_cli(capsys, "dist", "--n", "-1", "--p", "1/2,1/2", "--k", k) == \
        (2, "", "error: negative deck size\n")


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_flag_is_read_by_its_handler():
    # a parser declares the flags of the subcommand it is built for, and
    # none when it is built for none
    names = list(_subparsers(build_parser()))
    assert names == ["sample", "dist", "tv", "stats", "count", "bijection", "report", "verify"]
    for sub in _subparsers(build_parser()).values():
        assert [a.dest for a in sub._actions] == ["help"]
    for name in names:
        sub = _subparsers(build_parser(name))[name]
        source = inspect.getsource(sub.get_default("handler"))
        flags = [action for action in sub._actions if action.dest != "help"]
        assert flags, f"{name} declares no flag"
        for action in flags:
            read = re.search(rf"\bargs\.{action.dest}\b", source) or (
                action.dest == "n_max" and "_n_max(args)" in source)
            assert read, f"{name} declares {action.option_strings[0]} but never reads it"


@pytest.mark.parametrize("argv", [
    ["tv", "--n", "3", "--p", "1/2,1/2", "--seed", "1"],
    ["bijection", "--word", "1,2", "--n-max", "3"],
    ["dist", "--n", "3", "--p", "1/2,1/2", "--format", "lines"],
    ["report", "--n", "3", "--p", "1/2,1/2", "--format", "lines"],
    # tv and report are limited by the sweep budget alone
    ["tv", "--n", "3", "--p", "1/2,1/2", "--n-max", "0"],
    ["report", "--n", "3", "--p", "1/2,1/2", "--n-max", "0"],
    # dist and count list S_n up to its one cap, which no flag raises
    ["dist", "--n", "3", "--p", "1/2,1/2", "--n-max", "0"],
    ["count", "--n", "3", "--j", "1,3", "--method", "brute", "--n-max", "0"],
], ids=["tv-seed", "bijection-n-max", "dist-format-lines", "report-format-lines",
        "tv-n-max-zero", "report-n-max-zero", "dist-n-max-zero", "count-n-max-zero"])
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert capsys.readouterr().out == ""


def test_negative_k_is_named(capsys):
    assert run_cli(capsys, "tv", "--n", "3", "--p", "1/2,1/2", "--k", "-1") == \
        (2, "", "error: negative k\n")


def test_bijection_refuses_a_negative_part(capsys):
    # the parts sum to n, but (3, -1) is no letter content
    assert run_cli(capsys, "bijection", "--perm", "1,2", "--parts", "3,-1") == \
        (2, "", "error: negative letter count in (3, -1)\n")


@pytest.mark.parametrize("command", [
    ["sample", "--n", "5", "--p", "1/2,1/2"],
    ["verify", "--only", "lalley"],
])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seeds_outside_64_bits_are_refused(capsys, command, seed):
    # the seed is mixed modulo 2^64: -1 drew the stream of 2^64 - 1, 2^64 that of 0
    assert run_cli(capsys, *command, "--seed", seed) == \
        (2, "", f"error: seed {seed} is outside 0..2^64-1\n")


@pytest.mark.parametrize("argv, digits", [
    (["--n", "2", "--k", "1000000000", "--stat", "inversions"], "301029996"),
    (["--n", "2", "--k", "1000000000", "--stat", "descents"], "301029996"),
    (["--n", "52", "--k", "100000", "--stat", "fixed-points"], "1535253"),
])
def test_closed_forms_past_the_answer_budget_are_refused_at_once(capsys, argv, digits):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "stats", "--p", "1/2,1/2", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"up to {digits} digits" in err and "budget of 4000 digits" in err


def test_the_answer_budget_admits_what_it_estimates_to_fit(capsys):
    # a fair P_2^k is 1/2^k: k = 13287 is 3999.8 digits, k = 13288 is 4000.1
    code, out, _ = run_cli(capsys, "stats", "--n", "52", "--p", "1/2,1/2", "--k", "13287",
                           "--stat", "inversions")
    assert code == 0
    assert Fraction(json.loads(out)["exact"]) == 663 * (1 - Fraction(1, 2**13287))
    code, _, err = run_cli(capsys, "stats", "--n", "52", "--p", "1/2,1/2", "--k", "13288",
                           "--stat", "inversions")
    assert code == 2 and "4000 digits" in err


def _tiny_bias(exponent):
    # 1/10^e and its complement, written out in full
    return f"1/{10**exponent},{10**exponent - 1}/{10**exponent}"


@pytest.mark.parametrize("argv, digits", [
    (["tv", "--n", "6", "--p", _tiny_bias(300), "--k", "3"], "5400"),
    (["dist", "--n", "3", "--p", _tiny_bias(1500), "--k", "1"], "4500"),
    (["dist", "--n", "3", "--p", _tiny_bias(1500), "--k", "2"], "9000"),
    (["dist", "--n", "4", "--p", _tiny_bias(1001), "--k", "1"], "4004"),  # by pile words
], ids=["tv", "dist-k1", "dist-k2", "dist-pile-words"])
def test_class_answers_past_the_answer_budget_are_refused_at_once(capsys, argv, digits):
    # these printed Python's own 4300-digit error after building the answer
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"up to {digits} digits" in err and "budget of 4000 digits" in err


def test_report_ends_the_exact_column_at_the_answer_budget(capsys):
    # the masses have up to 3600 digits at k = 2 and 5400 at k = 3
    bias = _tiny_bias(300)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "report", "--n", "6", "--p", bias, "--k-max", "4")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert err == ("note: exact_tv omitted from k=3 on: an exact answer of up to 5400 digits "
                   "(masses of 6 cards at k=3) is above the budget of 4000 digits\n")
    rows = [line.split(",") for line in out.splitlines()[5:]]
    assert [k for k, _, _ in rows] == ["1", "2", "3", "4"]
    assert all(bound for _, bound, _ in rows)
    assert [bool(tv) for _, _, tv in rows] == [True, True, False, False]
    assert Fraction(rows[1][2]) == shuffles.tv_to_uniform(6, shuffles.parse_bias(bias), 2)


def test_report_past_both_answer_budgets_prints_its_whole_table(capsys):
    # sum p^2 alone has 4002 digits: the step counts come from it as floats
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "report", "--n", "6", "--p", _tiny_bias(2001),
                             "--k-max", "2")
    assert time.perf_counter() - start < 1
    assert code == 0
    notes = err.splitlines()
    assert len(notes) == 2
    assert notes[0].startswith("note: tv_bound omitted from k=1 on: an exact answer of up "
                               "to 4002 digits")
    assert notes[1].startswith("note: exact_tv omitted from k=1 on: an exact answer of up "
                               "to 12006 digits")
    assert out.splitlines()[2:] == ["# lalley_lower_steps=inf", "# suffices_steps=inf",
                                    "k,tv_bound,exact_tv", "1,,", "2,,"]


def _loaded_after(probe: str, *argv: str) -> list[str]:
    """The modules of ``_WATCHED`` loaded once ``probe`` has run, in a fresh
    ``python -S`` (no site, so only riffle's own imports count)."""
    src = str(Path(riffle.__file__).resolve().parents[1])
    script = f"import sys\n{probe}\nprint(sorted({_WATCHED!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


_LIBRARY = {"riffle.counting", "riffle.genfuncs", "riffle.necklaces", "riffle.qpoly",
            "riffle.shuffles", "riffle.verify"}
_WATCHED = {"array", "dataclasses", "decimal", "fractions", "json", "struct", "typing",
            *_LIBRARY}
# what every subcommand that reads a bias loads: shuffles and its Fractions
_EXACT = ["decimal", "fractions", "riffle.shuffles"]


# what each verify suite loads besides riffle.verify
_SUITE_LOADS = {
    **dict.fromkeys(["shuffle-table", "description-equivalence", "geometric-fit", "convolution",
                     "mixing-bound", "lalley"], _EXACT),
    "standardize-example": ["riffle.necklaces"],
    "gessel-bijection": ["riffle.counting", "riffle.necklaces"],
    "necklace-counts": ["riffle.counting", "riffle.necklaces"],
    "cycle-pgf": _EXACT + ["riffle.genfuncs"],
    "fixed-points": _EXACT + ["riffle.genfuncs"],
    **dict.fromkeys(["descent-counts", "ncycle-counts", "involution-counts"],
                    ["riffle.counting"]),
    "inversion-stats": _EXACT + ["riffle.genfuncs", "riffle.qpoly"],
    "monte-carlo": _EXACT + ["riffle.genfuncs"],
}


def test_every_verify_suite_has_a_loading_row():
    assert list(_SUITE_LOADS) == verify.suite_names()


def test_importing_the_cli_leaves_dataclasses_and_verify_unloaded():
    # struct and array stay unloaded too: the sampler decodes bytes without
    # them; and the handlers, not the module, import fractions and shuffles
    assert _loaded_after("import riffle.cli") == []


@pytest.mark.parametrize("argv, loaded", [
    (["sample", "--n", "52", "--p", "1/2,1/2", "--k", "7", "--seed", "1", "--samples", "2"],
     _EXACT),
    (["dist", "--n", "4", "--p", "1/2,1/4,1/4", "--k", "2"], _EXACT),
    (["dist", "--n", "3", "--p", "1/3,2/3", "--format", "csv"], _EXACT),
    (["tv", "--n", "6", "--p", "1/2,1/4,1/4", "--k", "6"], _EXACT),
    (["report", "--n", "6", "--p", "2/7,5/7", "--k-max", "3"], _EXACT),
    (["report", "--n", "5", "--p", "1/3,2/3", "--k-max", "2", "--format", "json"], _EXACT),
    (["stats", "--n", "4", "--p", "1/2,1/2", "--stat", "inversions"],
     sorted(_EXACT + ["riffle.genfuncs"])),
    (["stats", "--n", "5", "--p", "1/3,2/3", "--k", "2", "--stat", "cycle-pgf"],
     sorted(_EXACT + ["riffle.genfuncs"])),
    (["stats", "--n", "4", "--p", "1/2,1/2", "--stat", "inv-pgf"],
     sorted(_EXACT + ["riffle.genfuncs", "riffle.qpoly"])),
    (["count", "--n", "4", "--j", "2,4"], ["riffle.counting"]),
    (["bijection", "--word", "2,2,1,1,2,3"], ["riffle.necklaces"]),
    # each suite alone, at caps that keep the sixteen runs near a second
    *[(["verify", "--only", suite, "--n-max", "3", "--samples", "300"],
       sorted(["riffle.verify", *loaded])) for suite, loaded in _SUITE_LOADS.items()],
], ids=["sample", "dist-classes", "dist-cuts", "tv", "report", "report-json", "stats-inversions",
        "stats-cycle-pgf", "inv-pgf", "count", "bijection",
        *[f"verify-{suite}" for suite in _SUITE_LOADS]])
def test_each_subcommand_loads_only_what_it_runs(argv, loaded):
    # a run through main loads no library module its subcommand does not
    # call, json nowhere (the CLI writes its own JSON text), and typing
    # nowhere; count, bijection and the necklace and descent suites need no
    # Fraction.  The probe asserts exit 0, so each suite row also passes
    probe = ("import contextlib, io\nfrom riffle.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(sys.argv[1:]) == 0")
    assert _loaded_after(probe, *argv) == loaded


def test_no_riffle_module_imports_typing():
    probe = "import riffle, riffle.cli, riffle.verify; from riffle import *"
    assert _loaded_after(probe) == sorted({"decimal", "fractions", *_LIBRARY})


_CHOICES = "{sample,dist,tv,stats,count,bijection,report,verify}"


@pytest.mark.parametrize("argv, code, out, err", [
    (["--help"], 0,
     f"usage: riffle [-h] {_CHOICES} ...\n\n"
     "Biased riffle shuffles: samplers, exact measures, and the combinatorics of the\n"
     "permutations they produce.\n\n"
     "positional arguments:\n"
     f"  {_CHOICES}\n"
     "    sample              draw permutations from a biased shuffle\n"
     "    dist                exact distribution of the shuffle on S_n\n"
     "    tv                  exact distance to uniform, with the upper bound\n"
     "    stats               exact shuffle statistics and generating functions\n"
     "    count               permutations and n-cycles by descent set\n"
     "    bijection           standardize a word / map a permutation to necklaces\n"
     "    report              table of mixing bounds and exact distances over k\n"
     "    verify              run the self-verification suites\n\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n", ""),
    (["sample", "--help"], 0,
     "usage: riffle sample [-h] --n N --p P [--k K] [--samples SAMPLES]\n"
     "                     [--method {interleave,drop,geometric,inverse}]\n"
     "                     [--seed SEED] [--format {lines,json,csv}]\n\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --n N\n"
     "  --p P                 bias vector, e.g. 1/3,2/3 or 0.4,0.6\n"
     "  --k K                 number of repeated shuffles\n"
     "  --samples SAMPLES\n"
     "  --method {interleave,drop,geometric,inverse}\n"
     "  --seed SEED           64-bit RNG seed\n"
     "  --format {lines,json,csv}\n"
     "                        output format\n", ""),
    (["shuffle"], 2, "",
     f"usage: riffle [-h] {_CHOICES} ...\n"
     "riffle: error: argument command: invalid choice: 'shuffle' (choose from 'sample', "
     "'dist', 'tv', 'stats', 'count', 'bijection', 'report', 'verify')\n"),
    (["tv", "--n", "3"], 2, "",
     "usage: riffle tv [-h] --n N --p P [--k K]\n"
     "riffle tv: error: the following arguments are required: --p\n"),
    (["dist", "--help"], 0,
     "usage: riffle dist [-h] --n N --p P [--k K] [--format {json,csv}]\n\n"
     "options:\n"
     "  -h, --help           show this help message and exit\n"
     "  --n N\n"
     "  --p P\n"
     "  --k K\n"
     "  --format {json,csv}  output format\n", ""),
    (["tv", "--help"], 0,
     "usage: riffle tv [-h] --n N --p P [--k K]\n\n"
     "options:\n"
     "  -h, --help  show this help message and exit\n"
     "  --n N\n"
     "  --p P\n"
     "  --k K\n", ""),
    (["stats", "--help"], 0,
     "usage: riffle stats [-h] --n N --p P [--k K] --stat\n"
     "                    {fixed-points,inversions,descents,cycle-pgf,inv-pgf}\n"
     "                    [--n-max N_MAX]\n\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --n N\n"
     "  --p P\n"
     "  --k K\n"
     "  --stat {fixed-points,inversions,descents,cycle-pgf,inv-pgf}\n"
     "  --n-max N_MAX         accepted and checked to be at least 1, but changes no\n"
     "                        answer: each stat is limited by its own work\n", ""),
    (["count", "--help"], 0,
     "usage: riffle count [-h] --n N --j J [--method {ie,det,brute}]\n\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --n N\n"
     "  --j J                 descent set containing n, e.g. 1,3\n"
     "  --method {ie,det,brute}\n", ""),
    (["bijection", "--help"], 0,
     "usage: riffle bijection [-h] [--word WORD] [--perm PERM] [--parts PARTS]\n\n"
     "options:\n"
     "  -h, --help     show this help message and exit\n"
     "  --word WORD    comma-separated letters, e.g. 2,2,1,1\n"
     "  --perm PERM    one-line permutation, e.g. 3,1,2\n"
     "  --parts PARTS  letter content for --perm, e.g. 1,2\n", ""),
    (["report", "--help"], 0,
     "usage: riffle report [-h] --n N --p P [--k-max K_MAX] [--format {csv,json}]\n\n"
     "options:\n"
     "  -h, --help           show this help message and exit\n"
     "  --n N\n"
     "  --p P\n"
     "  --k-max K_MAX\n"
     "  --format {csv,json}  output format\n", ""),
    (["verify", "--help"], 0,
     "usage: riffle verify [-h] [--only ONLY] [--samples SAMPLES] [--seed SEED]\n"
     "                     [--n-max N_MAX]\n\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --only ONLY        run suites whose name contains this string\n"
     "  --samples SAMPLES\n"
     "  --seed SEED        64-bit RNG seed\n"
     "  --n-max N_MAX      largest deck size the suites check (at most 8)\n", ""),
    ([], 2, "",
     f"usage: riffle [-h] {_CHOICES} ...\n"
     "riffle: error: the following arguments are required: command\n"),
    # the subcommand's flags are known, so only the unknown one is named
    (["tv", "--n", "3", "--p", "1/2,1/2", "--bogus"], 2, "",
     f"usage: riffle [-h] {_CHOICES} ...\n"
     "riffle: error: unrecognized arguments: --bogus\n"),
    (["--bogus", "tv", "--n", "3", "--p", "1/2,1/2"], 2, "",
     f"usage: riffle [-h] {_CHOICES} ...\n"
     "riffle: error: unrecognized arguments: --bogus\n"),
    (["tv", "--n=3", "--p=1/2,1/2"], 0,
     '{"n": 3, "bias": ["1/2", "1/2"], "k": 1, "exact_tv": "1/3", '
     '"exact_tv_float": 0.3333333333333333, "tv_bound": "3/2", "tv_bound_float": 1.5}\n', ""),
    (["count", "--n", "4", "--j", "2,4", "--meth", "det"], 0,
     '{"J": [2, 4], "n": 4, "exact": 5, "ncycles": 1, "method": "det"}\n', ""),
    (["tv", "--n", "x", "--p", "1/2,1/2"], 2, "",
     "usage: riffle tv [-h] --n N --p P [--k K]\n"
     "riffle tv: error: argument --n: invalid int value: 'x'\n"),
    (["count", "--n", "4", "--j", "2,4", "--method", "bogus"], 2, "",
     "usage: riffle count [-h] --n N --j J [--method {ie,det,brute}]\n"
     "riffle count: error: argument --method: invalid choice: 'bogus' "
     "(choose from 'ie', 'det', 'brute')\n"),
    (["stats", "--n", "4", "--p", "1/2,1/2", "--stat", "bogus"], 2, "",
     "usage: riffle stats [-h] --n N --p P [--k K] --stat\n"
     "                    {fixed-points,inversions,descents,cycle-pgf,inv-pgf}\n"
     "                    [--n-max N_MAX]\n"
     "riffle stats: error: argument --stat: invalid choice: 'bogus' (choose from "
     "'fixed-points', 'inversions', 'descents', 'cycle-pgf', 'inv-pgf')\n"),
], ids=["help", "sample-help", "unknown-subcommand", "missing-p", "dist-help", "tv-help",
        "stats-help", "count-help", "bijection-help", "report-help", "verify-help",
        "no-arguments", "unknown-flag", "unknown-flag-first", "flag-equals", "abbreviated-flag",
        "bad-int", "bad-method", "bad-stat"])
def test_parser_text_is_pinned(monkeypatch, capsys, argv, code, out, err):
    # argparse wraps at the terminal width, which it reads from COLUMNS; a
    # run the parser accepts returns its code instead of exiting
    monkeypatch.setenv("COLUMNS", "80")
    try:
        returned = main(argv)
    except SystemExit as exit_:
        returned = exit_.code
    assert returned == code
    assert capsys.readouterr() == (out, err)


def test_every_benchmark_span_names_a_riffle_function():
    # perfbench/tracer.py wraps each (module, function) of SPANS by name, so a
    # rename in riffle would stop the benchmark's traced runs
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spans = next(node.value for node in ast.parse(tracer.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "SPANS")
    names = [ast.literal_eval(key) for key in spans.keys]
    assert len(names) >= 19
    for module, function in names:
        assert callable(getattr(importlib.import_module(f"riffle.{module}"), function, None)), \
            f"riffle.{module}.{function}"


def test_every_riffle_name_the_digest_recorder_calls_exists():
    # perfbench/record.py rebuilds the benchmark's digests through these
    # names and keywords, so a rename in riffle would stop the recorder
    recorder = Path(__file__).resolve().parents[1] / "perfbench" / "record.py"
    tree = ast.parse(recorder.read_text())
    modules = {name: importlib.import_module(f"riffle.{name}")
               for name in ("shuffles", "genfuncs", "counting")}
    read, keywords = set(), []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            read.add((node.value.id, node.attr))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            keywords += [(node.func.value.id, node.func.attr, kw.arg) for kw in node.keywords]
    assert len(read) >= 15
    for module, name in sorted(read):
        assert hasattr(modules[module], name), f"riffle.{module}.{name}"
    assert {("shuffles", "exact_distribution", "max_n"),
            ("shuffles", "exact_distribution_pile_words", "max_n"),
            ("genfuncs", "inversion_pgf_from_compositions", "max_n")} <= set(keywords)
    for module, name, keyword in keywords:
        parameters = inspect.signature(getattr(modules[module], name)).parameters
        assert keyword in parameters, f"riffle.{module}.{name}({keyword}=...)"


def test_max_n_is_a_keyword_only_where_a_caller_passes_it():
    # the one S_n cap is MAX_CACHED_N; a function takes max_n only when the
    # CLI or the digest recorder sets it
    declared = set()
    for module in pkgutil.iter_modules(riffle.__path__):
        loaded = importlib.import_module(f"riffle.{module.name}")
        for name, value in vars(loaded).items():
            if (inspect.isfunction(value) and value.__module__ == loaded.__name__
                    and "max_n" in inspect.signature(value).parameters):
                declared.add(name)
    assert declared == {"exact_distribution", "exact_distribution_pile_words",
                        "inversion_pgf_from_compositions"}
    root = Path(__file__).resolve().parents[1]
    passed = set()
    for path in (root / "src" / "riffle" / "cli.py", root / "perfbench" / "record.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and any(kw.arg == "max_n" for kw in node.keywords)):
                passed.add(node.func.attr)
    assert passed == declared
