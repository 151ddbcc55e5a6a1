"""Command-line front end.

Subcommands: sample, dist, tv, stats, count, bijection, report, verify.
Results go to stdout (JSON unless another format is chosen); diagnostics go
to stderr.  Runs with the same configuration, including --seed, produce
byte-identical output.  A process pays only for the subcommand it runs: the
parser declares that subcommand's flags alone, each handler imports the
library modules it uses (so ``count`` and ``bijection`` load neither
``fractions`` nor ``shuffles``), and JSON is written by ``_json_text``, so no
run loads the ``json`` package.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from .permutations import MAX_CACHED_N, Permutation, Refused, descent_index


def frac_str(value) -> str:
    """A Fraction as the text p/q."""
    return f"{value.numerator}/{value.denominator}"


def _parse_ints(flag: str, text: str) -> tuple[int, ...]:
    """The comma-separated integers of ``flag``, refused naming the flag and
    its text the way ``shuffles.parse_bias`` does."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse {flag} {text!r}: {exc}") from None


def _json_text(value) -> str:
    """The text ``json.dumps(value)`` gives, for the dicts with text keys,
    lists, tuples, strings, ints, floats, bools and None the subcommands
    print, without loading the ``json`` package: strings are quoted by the C
    function ``json.dumps`` itself calls."""
    from _json import encode_basestring_ascii as quote

    def text(value) -> str:
        if isinstance(value, str):
            return quote(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            digits = float.__repr__(value)
            return {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}.get(digits, digits)
        if isinstance(value, dict):
            return "{" + ", ".join([quote(key) + ": " + text(item)
                                    for key, item in value.items()]) + "}"
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(map(text, value)) + "]"
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    return text(value)


# subcommand -> (help line, function declaring its flags and handler), in
# the order of the help listing
_SUBCOMMANDS: dict[str, tuple] = {}


def _subcommand(name: str, line: str):
    def register(declare):
        _SUBCOMMANDS[name] = (line, declare)
        return declare

    return register


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser: every subcommand is listed with its help line, but only
    ``command``'s flags are declared (none when it is None)."""
    parser = argparse.ArgumentParser(
        prog="riffle",
        description="Biased riffle shuffles: samplers, exact measures, and the "
        "combinatorics of the permutations they produce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (line, declare) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=line)
        if name == command:
            declare(p)
    return parser


@_subcommand("sample", "draw permutations from a biased shuffle")
def _sample_flags(p) -> None:
    from .shuffles import SAMPLE_METHODS

    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="bias vector, e.g. 1/3,2/3 or 0.4,0.6")
    p.add_argument("--k", type=int, default=1, help="number of repeated shuffles")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--method", choices=SAMPLE_METHODS, default="inverse")
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    p.add_argument(
        "--format", choices=("lines", "json", "csv"), default="lines", help="output format"
    )
    p.set_defaults(handler=cmd_sample)


def cmd_sample(args) -> int:
    from . import shuffles

    if args.seed is None:
        raise ValueError("sampling requires --seed")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    spec = shuffles.ShuffleSpec(args.n, shuffles.parse_bias(args.p), args.k)
    rng = shuffles.substream(args.seed, 0)
    labels = list(map(str, range(args.n + 1)))
    # the JSON line is the text json.dumps gives a list of ints
    head, sep, close = {"json": ("[", ", ", "]\n"), "csv": ("", ",", "\n"),
                        "lines": ("", " ", "\n")}[args.format]
    write = sys.stdout.write
    for _ in range(args.samples):
        perm = shuffles.sample(spec, args.method, rng)
        write(head + sep.join(map(labels.__getitem__, perm.images)) + close)
    return 0


def _n_max(args) -> int:
    """The --n-max cap, refused below 1."""
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    return args.n_max


# Rows per stdout write: output memory stays a few chunks, not n! rows.
_CHUNK_ROWS = 512


def _print_masses(n: int, fmt: str, texts: list[str], rows) -> None:
    """Write a distribution on S_n as one JSON object or as CSV, the text
    json.dumps would give.  ``texts`` are the mass texts and ``rows`` the
    (card labels as strings, index into ``texts``) of each permutation; the
    rows are written a chunk at a time as they are walked."""
    if fmt == "csv":
        head, opener, comma, sep, close = "perm,p\n", "", " ", "", ""
        tails = ["," + m + "\n" for m in texts]
    else:
        head, opener, comma, sep, close = (
            f'{{"n": {n}, "masses": [', '{"perm": [', ", ", ", ", "]}\n")
        tails = ['], "p": "' + m + '"}' for m in texts]
    write = sys.stdout.write
    write(head)
    rows, lead = iter(rows), ""
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        write(lead + sep.join([opener + comma.join(labels) + tails[index]
                               for labels, index in chunk]))
        lead = sep
    write(close)


@_subcommand("dist", "exact distribution of the shuffle on S_n")
def _dist_flags(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p.set_defaults(handler=cmd_dist)


def cmd_dist(args) -> int:
    from fractions import Fraction

    from . import shuffles

    n, bias, k = args.n, shuffles.parse_bias(args.p), args.k
    # One shuffle can be listed as its a'^n pile words over the a' nonzero
    # letters or as S_n read off the descent classes (which stops at
    # MAX_CACHED_N): take the shorter list.  A negative n goes to the class
    # route, which refuses it.
    letters = sum(1 for p in bias if p)
    if k == 1 and n >= 0 and (n > MAX_CACHED_N or letters**n <= math.factorial(n)):
        # integer masses, checked as exact_distribution's are; one text per mass
        numerators, scale = shuffles._cut_numerators(n, bias)
        index = {m: i for i, m in enumerate(dict.fromkeys(numerators.values()))}
        texts = [frac_str(Fraction(m, scale)) for m in index]
        rows = ((map(str, ranks), index[numerators[ranks]]) for ranks in sorted(numerators))
    else:
        # one mass text per class; S_n is walked only to place each permutation
        numerators, scale, rows = shuffles._kfold_walk(
            n, bias, k, labels=map(str, range(1, n + 1)))
        texts = [frac_str(Fraction(m, scale)) for m in numerators]
    _print_masses(n, args.format, texts, rows)
    return 0


@_subcommand("tv", "exact distance to uniform, with the upper bound")
def _tv_flags(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(handler=cmd_tv)


def cmd_tv(args) -> int:
    from . import shuffles

    bias = shuffles.parse_bias(args.p)
    spec = shuffles.ShuffleSpec(args.n, bias, args.k)
    tv = shuffles.tv_to_uniform(args.n, bias, args.k)
    bound = shuffles.suf_bound(spec)
    print(
        _json_text(
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


@_subcommand("stats", "exact shuffle statistics and generating functions")
def _stats_flags(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument(
        "--stat",
        choices=("fixed-points", "inversions", "descents", "cycle-pgf", "inv-pgf"),
        required=True,
    )
    p.add_argument("--n-max", type=int, default=None,
                   help="accepted and checked to be at least 1, but changes no answer: "
                   "each stat is limited by its own work")
    p.set_defaults(handler=cmd_stats)


def cmd_stats(args) -> int:
    from . import genfuncs
    from .shuffles import ShuffleSpec, parse_bias

    if args.n_max is not None:
        _n_max(args)  # still refused below 1 for the scripts that pass it
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
        pgf = genfuncs.cycle_structure_pgf(args.n, bias, args.k)
        out["terms"] = [
            {"type": [[length, count] for length, count in key], "p": frac_str(c)}
            for key, c in sorted(pgf.terms.items())
        ]
    else:  # inv-pgf
        pgf = genfuncs.inversion_pgf(args.n, bias, args.k)
        out["coeffs"] = [frac_str(c) for c in pgf.coeffs]
    print(_json_text(out))
    return 0


@_subcommand("count", "permutations and n-cycles by descent set")
def _count_flags(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", required=True, help="descent set containing n, e.g. 1,3")
    p.add_argument("--method", choices=("ie", "det", "brute"), default="ie")
    p.set_defaults(handler=cmd_count)


def cmd_count(args) -> int:
    from . import counting

    n = args.n
    deset = counting._validate_descent_set(n, _parse_ints("--j", args.j))
    if args.method == "ie":
        exact = counting.count_descent_exact(n, deset)
        ncyc = counting.ncycles_descent_ie(n, deset)
    elif args.method == "det":
        exact = counting.count_descent_det(n, sorted(deset - {n}))
        ncyc = counting.ncycles_descent_det(n, deset)
    else:
        index = descent_index(deset, n)
        exact, ncyc, _ = (table[index] for table in counting._descent_table(n))
    print(
        _json_text(
            {"J": sorted(deset), "n": n, "exact": exact, "ncycles": ncyc, "method": args.method}
        )
    )
    return 0


@_subcommand("bijection", "standardize a word / map a permutation to necklaces")
def _bijection_flags(p) -> None:
    p.add_argument("--word", help="comma-separated letters, e.g. 2,2,1,1")
    p.add_argument("--perm", help="one-line permutation, e.g. 3,1,2")
    p.add_argument("--parts", help="letter content for --perm, e.g. 1,2")
    p.set_defaults(handler=cmd_bijection)


def cmd_bijection(args) -> int:
    from . import necklaces

    if (args.word is None) == (args.perm is None):
        raise ValueError("give exactly one of --word or --perm")
    if (args.parts is None) != (args.perm is None):
        raise ValueError("--parts goes with --perm, and only with it")
    if args.word is not None:
        word = _parse_ints("--word", args.word)
        if any(letter < 1 for letter in word):
            raise ValueError("letters are 1-based")
        st = necklaces.standardize(word)
    else:
        st = Permutation(_parse_ints("--perm", args.perm))
        word = necklaces.word_from_permutation(st, _parse_ints("--parts", args.parts))
    multiset = necklaces.necklace_decomposition(word)
    print(
        _json_text(
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


@_subcommand("report", "table of mixing bounds and exact distances over k")
def _report_flags(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.set_defaults(handler=cmd_report)


def cmd_report(args) -> int:
    from . import shuffles

    if args.k_max < 1:
        raise ValueError("--k-max must be at least 1")
    bias = shuffles.parse_bias(args.p)
    n = args.n
    lalley = None
    if len(bias) == 2 and 0 < bias[0] < 1 and n >= 2:
        lalley = shuffles.lalley_lower_steps(n, bias[0])
    # exact, with no answer budget: only the float step count is printed
    ssq = sum(p * p for p in bias)
    suffices = None
    if ssq < 1 and n >= 2:
        suffices = 2 * shuffles._collision_steps(n, 1 - ssq, 1 / ssq)
    rows, ended = [], set()
    for k in range(1, args.k_max + 1):
        rows.append([k])
        # the answers' digits and the sweep grow with k, so each column ends
        # at the first row its route refuses, with one stderr note
        for name, route in (
                ("tv_bound", lambda: shuffles.suf_bound(shuffles.ShuffleSpec(n, bias, k))),
                ("exact_tv", lambda: shuffles.tv_to_uniform(n, bias, k))):
            try:
                rows[-1].append(None if name in ended else route())
            except Refused as refused:
                ended.add(name)
                rows[-1].append(None)
                print(f"note: {name} omitted from k={k} on: {refused}", file=sys.stderr)
    if args.format == "json":
        print(
            _json_text(
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


@_subcommand("verify", "run the self-verification suites")
def _verify_flags(p) -> None:
    p.add_argument("--only", default=None, help="run suites whose name contains this string")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    p.add_argument("--n-max", type=int, default=None,
                   help="largest deck size the suites check (at most 8)")
    p.set_defaults(handler=cmd_verify)


def cmd_verify(args) -> int:
    from . import verify

    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    config = verify.VerifyConfig(samples=args.samples)
    if args.n_max is not None:
        n_max = _n_max(args)
        if n_max > 8:  # mixing-bound's 2^n * 3^8 sweep is within MAX_SWEEP_CELLS to n = 8
            raise ValueError("--n-max must be at most 8 for verify")
        config.n_max = config.count_n_max = n_max
    if args.seed is not None:
        from .shuffles import substream

        substream(args.seed, 0)  # refuses a seed out of range before any suite runs
        config.seed = args.seed
    results = verify.run(only=args.only, config=config)
    if not results:
        raise ValueError(
            f"no suite matches {args.only!r}; available: {', '.join(verify.suite_names())}"
        )
    for result in results:
        print(_json_text(result.to_json_obj()))
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} suites passed",
        file=sys.stderr,
    )
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes the first argument that is not an option as the
    # subcommand (no top-level option takes a value): declare its flags alone
    args = build_parser(next((a for a in argv if a in _SUBCOMMANDS), None)).parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early: send what is still buffered to devnull,
        # so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        # refused input exits 2; a failed invariant (ArithmeticError) exits 3
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
