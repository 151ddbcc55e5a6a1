"""Command-line front end.

Subcommands: sample, dist, tv, stats, count, bijection, report, verify.
Results go to stdout (JSON unless another format is chosen); diagnostics go
to stderr.  Runs with the same configuration, including --seed, produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import counting, genfuncs, necklaces, shuffles
from .permutations import DEFAULT_MAX_N, MAX_CACHED_N, Permutation, descent_set, is_n_cycle
from .shuffles import ShuffleSpec, parse_bias


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _add_n_max(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--n-max", type=int, default=None, help="override the exact-enumeration cap"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riffle",
        description="Biased riffle shuffles: samplers, exact measures, and the "
        "combinatorics of the permutations they produce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw permutations from a biased shuffle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="bias vector, e.g. 1/3,2/3 or 0.4,0.6")
    p.add_argument("--k", type=int, default=1, help="number of repeated shuffles")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--method", choices=shuffles.SAMPLE_METHODS, default="inverse")
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    p.add_argument(
        "--format", choices=("lines", "json", "csv"), default="lines", help="output format"
    )
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("dist", help="exact distribution of the shuffle on S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    _add_n_max(p)
    p.set_defaults(handler=cmd_dist)

    p = sub.add_parser("tv", help="exact distance to uniform, with the upper bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(handler=cmd_tv)

    p = sub.add_parser("stats", help="exact shuffle statistics and generating functions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument(
        "--stat",
        choices=("fixed-points", "inversions", "descents", "cycle-pgf", "inv-pgf"),
        required=True,
    )
    _add_n_max(p)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("count", help="permutations and n-cycles by descent set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", required=True, help="descent set containing n, e.g. 1,3")
    p.add_argument("--method", choices=("ie", "det", "brute"), default="ie")
    _add_n_max(p)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("bijection", help="standardize a word / map a permutation to necklaces")
    p.add_argument("--word", help="comma-separated letters, e.g. 2,2,1,1")
    p.add_argument("--perm", help="one-line permutation, e.g. 3,1,2")
    p.add_argument("--parts", help="letter content for --perm, e.g. 1,2")
    p.set_defaults(handler=cmd_bijection)

    p = sub.add_parser("report", help="table of mixing bounds and exact distances over k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--only", default=None, help="run suites whose name contains this string")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    _add_n_max(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def cmd_sample(args) -> int:
    if args.seed is None:
        raise ValueError("sampling requires --seed")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    spec = ShuffleSpec(args.n, parse_bias(args.p), args.k)
    rng = shuffles.substream(args.seed, 0)
    for _ in range(args.samples):
        perm = shuffles.sample(spec, args.method, rng)
        if args.format == "json":
            print(json.dumps(list(perm.images)))
        elif args.format == "csv":
            print(",".join(map(str, perm.images)))
        else:
            print(" ".join(map(str, perm.images)))
    return 0


def _n_max(args) -> int:
    """The --n-max cap: the default when the flag is absent, refused below 1."""
    if args.n_max is None:
        return DEFAULT_MAX_N
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    return args.n_max


def _print_masses(n: int, fmt: str, rows) -> None:
    """Print the (card labels as strings, mass text) rows of a distribution
    on S_n as one JSON object or as CSV; json.dumps would print the same."""
    if fmt == "csv":
        text = "\n".join(["perm,p", *[" ".join(labels) + "," + p for labels, p in rows]])
    else:
        entries = ", ".join(['{"perm": [' + ", ".join(labels) + '], "p": "' + p + '"}'
                             for labels, p in rows])
        text = f'{{"n": {n}, "masses": [{entries}]}}'
    print(text)


def cmd_dist(args) -> int:
    n, bias, k, max_n = args.n, parse_bias(args.p), args.k, _n_max(args)
    # One shuffle can be listed as its a'^n pile words over the a' nonzero
    # letters or as S_n read off the descent classes (which stops at
    # MAX_CACHED_N): take the shorter list.  A negative n goes to the class
    # route, which refuses it.
    letters = sum(1 for p in bias if p)
    if k == 1 and n >= 0 and (n > MAX_CACHED_N or letters**n <= math.factorial(n)):
        dist = shuffles.exact_distribution(n, bias, max_n=max_n)
        rows = [(tuple(map(str, perm.images)), frac_str(mass))
                for perm, mass in sorted(dist.masses.items())]
    else:
        # one mass text per class; S_n is walked only to place each permutation
        numerators, scale, walk = shuffles._kfold_walk(
            n, bias, k, max_n=max_n, labels=[str(card) for card in range(1, n + 1)])
        texts = [frac_str(Fraction(m, scale)) for m in numerators]
        rows = ((labels, texts[index]) for labels, index in walk)
    _print_masses(n, args.format, rows)
    return 0


def cmd_tv(args) -> int:
    bias = parse_bias(args.p)
    spec = ShuffleSpec(args.n, bias, args.k)
    tv = shuffles.tv_to_uniform(args.n, bias, args.k)
    bound = shuffles.suf_bound(spec)
    print(
        json.dumps(
            {
                "n": args.n,
                "bias": [frac_str(p) for p in bias],
                "k": args.k,
                "exact_tv": frac_str(tv),
                "exact_tv_float": float(tv),
                "tv_bound": frac_str(bound),
                "tv_bound_float": float(bound),
            }
        )
    )
    return 0


def cmd_stats(args) -> int:
    max_n = _n_max(args)
    bias = parse_bias(args.p)
    spec = ShuffleSpec(args.n, bias, args.k)
    out: dict = {
        "n": args.n,
        "bias": [frac_str(p) for p in bias],
        "k": args.k,
        "stat": args.stat,
    }
    if args.stat in ("fixed-points", "inversions", "descents"):
        value = {
            "fixed-points": genfuncs.expected_fixed_points,
            "inversions": genfuncs.expected_inversions,
            "descents": genfuncs.expected_descents,
        }[args.stat](spec)
        out["exact"] = frac_str(value)
        out["float"] = float(value)
    elif args.stat == "cycle-pgf":
        pgf = genfuncs.cycle_structure_pgf(args.n, bias, args.k, max_n=max_n)
        out["terms"] = [
            {"type": [[length, count] for length, count in key], "p": frac_str(c)}
            for key, c in sorted(pgf.terms.items())
        ]
    else:  # inv-pgf
        pgf = genfuncs.inversion_pgf(args.n, bias, args.k, max_n=max_n)
        out["coeffs"] = [frac_str(c) for c in pgf.coeffs]
    print(json.dumps(out))
    return 0


def cmd_count(args) -> int:
    max_n = _n_max(args)
    n = args.n
    deset = frozenset(int(t) for t in args.j.split(","))
    if args.method == "ie":
        exact = counting.count_descent_exact(n, deset)
        ncyc = counting.ncycles_descent_ie(n, deset)
    elif args.method == "det":
        exact = counting.count_descent_det(n, sorted(deset - {n}))
        ncyc = counting.ncycles_descent_det(n, deset)
    else:
        exact = counting.brute_count(n, lambda p: descent_set(p) == deset, max_n=max_n)
        ncyc = counting.brute_count(
            n, lambda p: is_n_cycle(p) and descent_set(p) == deset, max_n=max_n
        )
    print(
        json.dumps(
            {"J": sorted(deset), "n": n, "exact": exact, "ncycles": ncyc, "method": args.method}
        )
    )
    return 0


def cmd_bijection(args) -> int:
    if (args.word is None) == (args.perm is None):
        raise ValueError("give exactly one of --word or --perm")
    if args.word is not None:
        word = tuple(int(t) for t in args.word.split(","))
        if any(letter < 1 for letter in word):
            raise ValueError("letters are 1-based")
        st = necklaces.standardize(word)
        multiset = necklaces.necklace_decomposition(word)
    else:
        if args.parts is None:
            raise ValueError("--perm requires --parts")
        perm = Permutation(int(t) for t in args.perm.split(","))
        parts = tuple(int(t) for t in args.parts.split(","))
        word = necklaces.word_from_permutation(perm, parts)
        st = perm
        multiset = necklaces.necklace_decomposition(word)
    print(
        json.dumps(
            {
                "word": list(word),
                "letters": necklaces.letters(word),
                "standardized": list(st.images),
                "necklaces": [
                    {"necklace": list(neck), "letters": necklaces.letters(neck), "mult": m}
                    for neck, m in sorted(multiset.items())
                ],
            }
        )
    )
    return 0


def cmd_report(args) -> int:
    if args.k_max < 1:
        raise ValueError("--k-max must be at least 1")
    bias = parse_bias(args.p)
    n = args.n
    lalley = None
    if len(bias) == 2 and 0 < bias[0] < 1 and n >= 2:
        lalley = shuffles.lalley_lower_steps(n, bias[0])
    # exact, with no answer budget: only the float step count is printed
    ssq = sum(p * p for p in bias)
    suffices = None
    if ssq < 1 and n >= 2:
        suffices = 2 * shuffles._collision_steps(n, 1 - ssq, 1 / ssq)
    letters = sum(1 for p in bias if p)
    rows, refusal, bound_refusal = [], None, None
    for k in range(1, args.k_max + 1):
        # the answers' digits and the sweep grow with k, so each column ends
        # at its first row over budget (a bound of 0 below n = 2 never does)
        if n >= 2 and bound_refusal is None and (
                bound_refusal := shuffles.answer_refusal(bias, 2, k)):
            print(f"note: tv_bound omitted from k={k} on: {bound_refusal}", file=sys.stderr)
        bound = None if bound_refusal else shuffles.suf_bound(ShuffleSpec(n, bias, k))
        if refusal is None and (refusal := shuffles.sweep_refusal(n, letters, k) or
                                shuffles.mass_refusal(bias, n, k)):
            print(f"note: exact_tv omitted from k={k} on: {refusal}", file=sys.stderr)
        exact_tv = None if refusal else shuffles.tv_to_uniform(n, bias, k)
        rows.append((k, bound, exact_tv))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": n,
                    "bias": [frac_str(p) for p in bias],
                    "lalley_lower_steps": lalley,
                    "suffices_steps": suffices,
                    "rows": [
                        {
                            "k": k,
                            "tv_bound": frac_str(bound) if bound is not None else None,
                            "exact_tv": frac_str(tv) if tv is not None else None,
                        }
                        for k, bound, tv in rows
                    ],
                }
            )
        )
    else:
        print(f"# n={n}")
        print(f"# bias={','.join(frac_str(p) for p in bias)}")
        print(f"# lalley_lower_steps={lalley if lalley is not None else ''}")
        print(f"# suffices_steps={suffices if suffices is not None else ''}")
        print("k,tv_bound,exact_tv")
        for k, bound, tv in rows:
            print(f"{k},{frac_str(bound) if bound is not None else ''},"
                  f"{frac_str(tv) if tv is not None else ''}")
    return 0


def cmd_verify(args) -> int:
    from . import verify  # the suites load only for this subcommand

    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    config = verify.VerifyConfig(samples=args.samples)
    if args.n_max is not None:
        n_max = _n_max(args)
        if n_max > DEFAULT_MAX_N:
            # the suites build exact distributions at the default enumeration cap
            raise ValueError(f"--n-max must be at most {DEFAULT_MAX_N} for verify")
        config.n_max = config.count_n_max = n_max
    if args.seed is not None:
        shuffles.substream(args.seed, 0)  # refuses a seed out of range before any suite runs
        config.seed = args.seed
    results = verify.run(only=args.only, config=config)
    if not results:
        raise ValueError(
            f"no suite matches {args.only!r}; available: {', '.join(verify.suite_names())}"
        )
    for result in results:
        print(json.dumps(result.to_json_obj()))
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} suites passed",
        file=sys.stderr,
    )
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        # refused input exits 2; a failed invariant (ArithmeticError) exits 3
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
