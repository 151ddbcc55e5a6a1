"""The benchmark's workloads: riffle CLI command lists, their output checks,
the robustness probes, and the predicted links from per-layer metrics to
end-to-end metrics.

Nothing here imports riffle.  Every check recomputes the expected output
from first principles or compares it with a digest that ``record.py``
verified once against an independent route of the library.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

SAMPLE_N = 52
SAMPLE_K = 7
SAMPLE_BIAS = "0.4,0.6"
SAMPLE_COUNT = 1000
SAMPLE_METHODS = ("inverse", "interleave", "drop", "geometric")
# A sampler passes when its mean inversion and fixed-point counts lie within
# this many standard errors of the exact expectations.  Fixed before any run.
SAMPLE_Z_TOL = 5.0

BIJECTION_LETTERS = 30
BIJECTION_ALPHABET = 3


@dataclass(frozen=True)
class Command:
    """One riffle invocation and the check its captured output must pass.

    ``check(stdout, stderr, returncode)`` returns None when the output is
    correct and a one-line reason otherwise.
    """

    argv: tuple[str, ...]
    check: Callable[[str, str, int], str | None]

    @property
    def text(self) -> str:
        return " ".join(self.argv)


# --- checks -------------------------------------------------------------

def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())["digests"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_check(want: str | None):
    """Exit 0 and stdout whose SHA-256 is ``want``."""

    def check(out: str, err: str, rc: int) -> str | None:
        if rc != 0:
            return f"exit {rc}: {_last_line(err)}"
        if want is None:
            return "no recorded digest"
        if digest(out) != want:
            return "stdout differs from the expected output"
        return None

    return check


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:200] if lines else ""


def _inversions(perm: list[int]) -> int:
    seen: list[int] = []
    count = 0
    for x in reversed(perm):
        pos = bisect.bisect_left(seen, x)
        count += pos
        seen.insert(pos, x)
    return count


def expected_sample_moments(n: int, bias, k: int) -> tuple[Fraction, Fraction]:
    """Exact E[inversions] and E[fixed points] after k biased shuffles.

    The closed forms of ``genfuncs.expected_inversions`` and
    ``genfuncs.expected_fixed_points``, restated so the check does not rest
    on the code it checks (``record.py`` confirms they agree).
    """
    ssq = sum(p * p for p in bias)
    inv = Fraction(math.comb(n, 2), 2) * (1 - ssq**k)
    fixed = sum(sum(p**j for p in bias) ** k for j in range(1, n + 1))
    return inv, fixed


def sample_check(n: int, bias_text: str, k: int, samples: int):
    bias = tuple(Fraction(p) for p in bias_text.split(","))
    want_inv, want_fixed = (float(x) for x in expected_sample_moments(n, bias, k))
    identity = list(range(1, n + 1))

    def check(out: str, err: str, rc: int) -> str | None:
        if rc != 0:
            return f"exit {rc}: {_last_line(err)}"
        lines = out.split("\n")
        if lines[-1] != "" or len(lines) != samples + 1:
            return f"expected {samples} lines, got {len(lines) - 1}"
        inv_sum = inv_sq = fix_sum = fix_sq = 0
        for line in lines[:-1]:
            try:
                perm = [int(t) for t in line.split(" ")]
            except ValueError:
                return f"unparsable line {line[:60]!r}"
            if sorted(perm) != identity:
                return f"not a permutation of 1..{n}: {line[:60]!r}"
            inv = _inversions(perm)
            fix = sum(1 for i, x in enumerate(perm, start=1) if i == x)
            inv_sum += inv
            inv_sq += inv * inv
            fix_sum += fix
            fix_sq += fix * fix
        for stat, total, sq, want in (
            ("inversions", inv_sum, inv_sq, want_inv),
            ("fixed points", fix_sum, fix_sq, want_fixed),
        ):
            mean = total / samples
            se = math.sqrt(max(sq / samples - mean * mean, 0.0) / samples)
            if abs(mean - want) > SAMPLE_Z_TOL * se:
                return f"mean {stat} {mean:.3f}, exact {want:.3f}, {SAMPLE_Z_TOL} se = {SAMPLE_Z_TOL * se:.3f}"
        return None

    return check


def _letters(seq) -> str:
    return "".join(chr(ord("a") + x - 1) if 1 <= x <= 26 else f"<{x}>" for x in seq)


def bijection_expected(word: list[int]) -> str:
    """stdout of ``riffle bijection --word``: the standard permutation (ranks,
    ties to the left) and the necklaces read around its cycles, each in its
    least rotation."""
    n = len(word)
    order = sorted(range(n), key=lambda j: (word[j], j))
    st = [0] * n
    for rank, j in enumerate(order, start=1):
        st[j] = rank
    seen = [False] * n
    necklaces: Counter = Counter()
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(word[i])
            i = st[i] - 1
        necklaces[min(tuple(cyc[s:] + cyc[:s]) for s in range(len(cyc)))] += 1
    obj = {
        "word": word,
        "letters": _letters(word),
        "standardized": st,
        "necklaces": [
            {"necklace": list(neck), "letters": _letters(neck), "mult": m}
            for neck, m in sorted(necklaces.items())
        ],
    }
    return json.dumps(obj) + "\n"


# --- probes -------------------------------------------------------------

def clean_error(out: str, err: str, rc: int) -> bool:
    """A refusal done right: nonzero exit, nothing on stdout, and one
    ``error:`` line on stderr with no traceback."""
    lines = err.strip().splitlines()
    return rc != 0 and not out and len(lines) == 1 and lines[0].startswith("error:")


def _refusal_only(out: str, err: str, rc: int) -> str | None:
    if clean_error(out, err, rc):
        return None
    return f"exit {rc} without a one-line error ({_last_line(err) or _last_line(out) or 'no output'})"


def _fair_cycle_pgf_terms(n: int, a: int) -> list[dict]:
    """Cycle-type law of one unbiased a-shuffle on n cards, from the
    rising-sequence formula P(pi) = C(a + n - 1 - d, n) / a^n with d the
    number of descents of pi^-1 (Bayer and Diaconis 1992)."""
    terms: dict[tuple, Fraction] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        inv = [0] * n
        for i, x in enumerate(perm):
            inv[x - 1] = i + 1
        d = sum(1 for i in range(n - 1) if inv[i] > inv[i + 1])
        mass = Fraction(math.comb(a + n - 1 - d, n), a**n)
        lengths: Counter = Counter()
        seen = [False] * n
        for s in range(n):
            length, i = 0, s
            while not seen[i]:
                seen[i] = True
                i = perm[i] - 1
                length += 1
            if length:
                lengths[length] += 1
        key = tuple(sorted(lengths.items()))
        terms[key] = terms.get(key, Fraction(0)) + mass
    return [
        {"type": [list(pair) for pair in key], "p": f"{c.numerator}/{c.denominator}"}
        for key, c in sorted(terms.items())
        if c
    ]


def _cycle_pgf_probe(out: str, err: str, rc: int) -> str | None:
    if clean_error(out, err, rc):
        return None
    if rc != 0:
        return f"exit {rc} without a one-line error ({_last_line(err)})"
    try:
        terms = json.loads(out)["terms"]
    except (ValueError, KeyError):
        return "output is not the cycle-pgf JSON"
    if terms != _fair_cycle_pgf_terms(3, 2**10):
        return "cycle-pgf terms differ from the rising-sequence formula"
    return None


def _gessel_probe(out: str, err: str, rc: int) -> str | None:
    if clean_error(out, err, rc):
        return None
    try:
        result = json.loads(out)
    except ValueError:
        return f"exit {rc}, output is not one JSON result"
    if rc == 0 and result.get("name") == "gessel-bijection" and result.get("passed") is True:
        return None
    return f"exit {rc}: {result.get('detail', '')[:160]}"


PROBES: tuple[Command, ...] = (
    Command(tuple("stats --n 3 --p 1/2,1/2 --k 10 --stat cycle-pgf".split()), _cycle_pgf_probe),
    Command(tuple("report --n 6 --p 1/2,1/2 --k-max -3".split()), _refusal_only),
    Command(tuple("verify --only gessel --n-max 7".split()), _gessel_probe),
)


# --- workloads ----------------------------------------------------------

def _full_descent_set(n: int) -> str:
    return ",".join(str(j) for j in range(1, n + 1))


def _digest_commands(texts: list[str]) -> list[Command]:
    digests = load_digests()
    return [Command(tuple(t.split()), digest_check(digests.get(t))) for t in texts]


MIXING_WIDE = [
    "tv --n 6 --p 1/2,1/4,1/4 --k 6",
    "tv --n 6 --p 2/7,5/7 --k 9",
]
MIXING_DEEP = [
    "report --n 8 --p 0.4,0.6 --k-max 2",
    "dist --n 8 --p 1/3,2/3 --k 2",
]
SERIES_EXACT = [
    "stats --n 7 --p 1/2,1/4,1/4 --k 2 --stat cycle-pgf",
    "stats --n 12 --p 0.4,0.6 --k 3 --stat inv-pgf --n-max 12",
    f"count --n 24 --j {_full_descent_set(24)} --method det",
    f"count --n 16 --j {_full_descent_set(16)} --method ie",
    "verify --only counts --n-max 8",
    "verify --only fixed-points --n-max 7",
    "verify --only gessel --n-max 6",
]
EXACT_COMMANDS = MIXING_WIDE + MIXING_DEEP + SERIES_EXACT


def sampling_commands(seed: int) -> list[Command]:
    return [
        Command(
            (
                "sample", "--n", str(SAMPLE_N), "--p", SAMPLE_BIAS, "--k", str(SAMPLE_K),
                "--samples", str(SAMPLE_COUNT), "--seed", str(seed), "--method", method,
            ),
            sample_check(SAMPLE_N, SAMPLE_BIAS, SAMPLE_K, SAMPLE_COUNT),
        )
        for method in SAMPLE_METHODS
    ]


def bijection_word(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(1, BIJECTION_ALPHABET) for _ in range(BIJECTION_LETTERS)]


def series_commands(seed: int) -> list[Command]:
    word = bijection_word(seed)
    return _digest_commands(SERIES_EXACT) + [
        Command(
            ("bijection", "--word", ",".join(map(str, word))),
            digest_check(digest(bijection_expected(word))),
        )
    ]


# Workload name -> its command list for a seed.  BENCHMARK.json says why
# each workload was chosen.
WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "mixing-wide": lambda seed: _digest_commands(MIXING_WIDE),
    "mixing-deep": lambda seed: _digest_commands(MIXING_DEEP),
    "sampling": sampling_commands,
    "series": series_commands,
}


# Which end-to-end metric each per-layer metric should move, on which
# workload.  Later changes cite these by name when they claim or rule out an
# effect.
PREDICTED_LINKS: dict[str, str] = {
    "cli.main.self_s": "wall_ref_s on mixing-deep (dist output) and sampling",
    "shuffles.mass_by_inverse_descents.*": "wall_ref_s on mixing-wide; ~2% of wall_ref_s on mixing-deep; nothing on sampling or series",
    "shuffles.tensor_power.*": "wall_ref_s on mixing-wide; nothing on sampling or series",
    "shuffles.exact_kfold_distribution.*": "wall_ref_s and peak_rss_mb on mixing-deep; almost nothing on mixing-wide",
    "shuffles.ExactDistribution.*": "wall_ref_s and peak_rss_mb on mixing-deep; almost nothing on mixing-wide",
    "shuffles.uniform_distribution.self_s": "wall_ref_s and peak_rss_mb on mixing-deep; almost nothing on mixing-wide",
    "shuffles.tv_distance.*": "wall_ref_s and peak_rss_mb on mixing-deep; almost nothing on mixing-wide",
    "shuffles.sample.*": "draws_per_s and wall_ref_s on sampling",
    "permutations.*": "wall_ref_s on mixing-deep, sampling and series",
    "genfuncs.*": "wall_ref_s on series",
    "qpoly.*": "wall_ref_s on series (inv-pgf is almost all q-polynomial arithmetic)",
    "counting.*": "wall_ref_s on series",
    "necklaces.*": "wall_ref_s on series",
    "verify.*": "wall_ref_s on series",
}
