#!/usr/bin/env python3
"""Record the stdout digests that the benchmark's exact commands are held to.

    python3 perfbench/record.py

Run from the root of a source checkout.  Each exact command of the
workloads runs once as a subprocess; its stdout is rebuilt byte for byte
from an independent route of the library before its SHA-256 is written to
``perfbench/digests.json``, together with the environment it was recorded
on.  Slow by design (the k-fold laws are built by repeated convolution, a
few minutes in all); it is never run by the benchmark itself.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from riffle import counting, genfuncs, shuffles  # noqa: E402
from riffle.permutations import Permutation, cycles  # noqa: E402


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def options(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def kfold_by_convolution(n: int, bias, k: int):
    """Laws of 1..k repeated shuffles, each the convolution of single-shuffle laws."""
    single = shuffles.exact_distribution(n, bias, max_n=n)
    law = single
    laws = [single]
    for _ in range(k - 1):
        law = shuffles.convolve(law, single)
        laws.append(law)
    return laws


def expect_tv(argv):
    opt = options(argv)
    n, k = int(opt["n"]), int(opt["k"])
    bias = shuffles.parse_bias(opt["p"])
    tv = shuffles.tv_distance(kfold_by_convolution(n, bias, k)[-1], shuffles.uniform_distribution(n))
    bound = math.comb(n, 2) * sum(p * p for p in bias) ** k
    obj = {
        "n": n,
        "bias": [frac_str(p) for p in bias],
        "k": k,
        "exact_tv": frac_str(tv),
        "exact_tv_float": float(tv),
        "tv_bound": frac_str(bound),
        "tv_bound_float": float(bound),
    }
    return json.dumps(obj) + "\n"


def expect_report(argv):
    opt = options(argv)
    n, k_max = int(opt["n"]), int(opt["k-max"])
    bias = shuffles.parse_bias(opt["p"])
    uniform = shuffles.uniform_distribution(n)
    ssq = sum(p * p for p in bias)
    lines = [
        f"# n={n}",
        f"# bias={','.join(frac_str(p) for p in bias)}",
        f"# lalley_lower_steps={shuffles.lalley_lower_steps(n, bias[0])}",
        f"# suffices_steps={2 * math.log(n) / math.log(1 / ssq)}",
        "k,tv_bound,exact_tv",
    ]
    for k, law in enumerate(kfold_by_convolution(n, bias, k_max), start=1):
        tv = shuffles.tv_distance(law, uniform)
        lines.append(f"{k},{frac_str(math.comb(n, 2) * ssq**k)},{frac_str(tv)}")
    return "\n".join(lines) + "\n"


def expect_dist(argv):
    opt = options(argv)
    n, k = int(opt["n"]), int(opt["k"])
    bias = shuffles.tensor_power(shuffles.parse_bias(opt["p"]), k)
    law = shuffles.exact_distribution_pile_words(n, bias, max_n=n)
    return json.dumps(law.to_json_obj()) + "\n"


def stats_header(opt):
    return {
        "n": int(opt["n"]),
        "bias": [frac_str(p) for p in shuffles.parse_bias(opt["p"])],
        "k": int(opt["k"]),
        "stat": opt["stat"],
    }


def expect_cycle_pgf(argv):
    opt = options(argv)
    n, k = int(opt["n"]), int(opt["k"])
    law = kfold_by_convolution(n, shuffles.parse_bias(opt["p"]), k)[-1]
    pgf = genfuncs.cycle_pgf_from_distribution(law)
    out = stats_header(opt)
    out["terms"] = [
        {"type": [[length, count] for length, count in key], "p": frac_str(c)}
        for key, c in sorted(pgf.terms.items())
    ]
    return json.dumps(out) + "\n"


def expect_inv_pgf(argv):
    opt = options(argv)
    n, k = int(opt["n"]), int(opt["k"])
    bias = shuffles.tensor_power(shuffles.parse_bias(opt["p"]), k)
    pgf = genfuncs.inversion_pgf_from_compositions(n, bias, max_n=n)
    out = stats_header(opt)
    out["coeffs"] = [frac_str(c) for c in pgf.coeffs]
    return json.dumps(out) + "\n"


def count_by_signature(n: int, deset: frozenset[int]) -> int:
    """Permutations of S_n with descent set exactly ``deset`` (n included),
    by the up-down dynamic program over relative ranks of prefixes."""
    ways = [1]  # ways[r]: prefixes of length i whose last entry has rank r
    for i in range(1, n):
        total, nxt = 0, [0] * (i + 1)
        if i in deset:  # pi(i) > pi(i+1): new rank below the previous one
            for r in range(i - 1, -1, -1):
                total += ways[r]
                nxt[r] = total
        else:
            for r in range(i + 1):
                nxt[r] = total
                if r < i:
                    total += ways[r]
        ways = nxt
    return sum(ways)


def expect_count(argv):
    opt = options(argv)
    n = int(opt["n"])
    deset = frozenset(int(t) for t in opt["j"].split(","))
    if deset != frozenset(range(1, n + 1)):
        raise ValueError("count commands are recorded on the full descent set only")
    exact = count_by_signature(n, deset)
    # the one permutation with every descent is n..1, an n-cycle only for n <= 2
    ncycles = int(len(cycles(Permutation(range(n, 0, -1)))) == 1)
    if opt["method"] == "ie":  # the determinant route must agree as well
        other = counting.ncycles_descent_det(n, deset), counting.count_descent_det(n, range(1, n))
        if other != (ncycles, exact):
            raise AssertionError(f"determinant route gives {other}")
    obj = {"J": sorted(deset), "n": n, "exact": exact, "ncycles": ncycles, "method": opt["method"]}
    return json.dumps(obj) + "\n"


def check_verify(out: str) -> None:
    results = [json.loads(line) for line in out.splitlines()]
    if not results or not all(r["passed"] for r in results):
        raise AssertionError(f"verify suites failed: {results}")


EXPECT = {"tv": expect_tv, "report": expect_report, "dist": expect_dist, "count": expect_count}


def expected_stdout(argv: list[str]) -> str | None:
    if argv[0] == "stats":
        return {"cycle-pgf": expect_cycle_pgf, "inv-pgf": expect_inv_pgf}[options(argv)["stat"]](argv)
    if argv[0] == "verify":
        return None
    return EXPECT[argv[0]](argv)


def check_sample_moments() -> None:
    bias = shuffles.parse_bias(workloads.SAMPLE_BIAS)
    spec = shuffles.ShuffleSpec(workloads.SAMPLE_N, bias, workloads.SAMPLE_K)
    want = (genfuncs.expected_inversions(spec), genfuncs.expected_fixed_points(spec))
    if workloads.expected_sample_moments(spec.n, bias, spec.k) != want:
        raise AssertionError("sample moments disagree with genfuncs")


def environment() -> dict:
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True
    ).stdout.strip()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main() -> int:
    run.BUILD.mkdir(exist_ok=True)
    check_sample_moments()
    digests = {}
    with run.Spawner() as spawn:
        for text in workloads.EXACT_COMMANDS:
            record_one(text, spawn, digests)
    record = {"recorded_on": environment(), "digests": digests}
    workloads.DIGESTS.write_text(json.dumps(record, indent=2) + "\n")
    return 0


def record_one(text: str, spawn, digests: dict[str, str]) -> None:
    argv = text.split()
    res = spawn([sys.executable, "-c", run.ENTRY, *argv], 600.0)
    if res.rc != 0:
        raise AssertionError(f"{text}: exit {res.rc}\n{res.err}")
    want = expected_stdout(argv)
    if want is None:
        check_verify(res.out)
    elif res.out != want:
        raise AssertionError(f"{text}: stdout differs from the independent route")
    digests[text] = workloads.digest(res.out)
    print(f"ok {res.wall:7.2f} s  {text}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
