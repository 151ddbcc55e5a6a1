"""Span tracing of riffle's layers, installed from outside the package.

``install`` replaces each public layer-boundary function with a wrapper that
times it as a span, at every module attribute that names it, times
``QPolynomial`` ``+``/``*`` as one span, and counts ``Permutation``
constructions and ``q_binomial`` calls without timing them, all without
touching riffle's sources.  Private helpers are left alone: wrapping one
that runs millions of times per command would time the wrapper, not the
program.

Run as a script, it executes one riffle command in-process and writes a JSON
header line (exit code, wall time, span totals) followed by the command's
stdout::

    python3 perfbench/tracer.py [--trace] -- <riffle arguments>
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import traceback
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Span self times, call counts and work counters, kept in memory."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # time covered by child spans, one accumulator per open span
        self._child = [0.0]

    def span(self, name, fn, count=None):
        """Wrap ``fn`` as a span.  ``name`` may be a function of the call
        arguments; ``count`` maps them to work counters."""
        child, self_s, calls, counts = self._child, self.self_s, self.calls, self.counts

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if count is not None:
                for key, value in count(*args, **kwargs).items():
                    counts[key] += value
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[label] += elapsed - child.pop()
                child[-1] += elapsed
                calls[label] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` to count its calls without timing them."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def as_json(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": dict(self.counts)}


def _sample_name(spec, method="inverse", rng=None):
    return f"shuffles.sample.{method}"


# (module, function) -> work counters computed from the call arguments
SPANS = {
    ("cli", "main"): None,
    ("shuffles", "mass_by_inverse_descents"): lambda n, bias: {
        "shuffles.mass_by_inverse_descents.cells": max(n - 1, 0) * 2 ** max(n - 1, 0) * len(bias)
    },
    ("shuffles", "tensor_power"): lambda bias, k: {"shuffles.tensor_power.letters": len(bias) ** k},
    ("shuffles", "exact_kfold_distribution"): lambda n, bias, k, **kw: {
        "shuffles.exact_kfold_distribution.perms": math.factorial(n)
    },
    ("shuffles", "uniform_distribution"): None,
    ("shuffles", "tv_distance"): lambda d1, d2: {
        "shuffles.tv_distance.terms": len(d1.masses.keys() | d2.masses.keys())
    },
    ("permutations", "symmetric_group_list"): None,
    ("permutations", "descent_set"): None,
    ("genfuncs", "cycle_structure_pgf"): None,
    ("genfuncs", "inversion_pgf"): None,
    ("genfuncs", "fixed_point_pgf"): None,
    ("counting", "count_descent_exact"): None,
    ("counting", "count_descent_det"): None,
    ("counting", "ncycles_descent_ie"): None,
    ("counting", "ncycles_descent_det"): None,
    ("counting", "involutions_descent_subset"): None,
    ("necklaces", "primitive_count"): None,
    ("necklaces", "enumerate_primitive_multisets"): None,
    ("necklaces", "ubar_forward"): None,
}


def _rebind(modules, original, replacement):
    """Point every module attribute that names ``original`` at ``replacement``."""
    for module in modules:
        names = [k for k, v in vars(module).items() if v is original]
        for k in names:
            setattr(module, k, replacement)


def install(tracer: Tracer) -> None:
    riffle = importlib.import_module("riffle")
    mods = {
        name: importlib.import_module(f"riffle.{name}")
        for name in ("cli", "counting", "genfuncs", "necklaces", "permutations", "qpoly", "shuffles", "verify")
    }
    everywhere = [riffle, *mods.values()]
    for (mod, fn_name), count in SPANS.items():
        original = getattr(mods[mod], fn_name)
        _rebind(everywhere, original, tracer.span(f"{mod}.{fn_name}", original, count))
    original = mods["shuffles"].sample
    _rebind(everywhere, original, tracer.span(_sample_name, original))
    original = mods["qpoly"].q_binomial
    _rebind(everywhere, original, tracer.counter("qpoly.q_binomial.calls", original))

    shuffles, permutations, qpoly = mods["shuffles"], mods["permutations"], mods["qpoly"]
    dist_cls = shuffles.ExactDistribution
    dist_cls.__init__ = tracer.span(
        "shuffles.ExactDistribution",
        dist_cls.__init__,
        lambda self, n, masses: {"shuffles.ExactDistribution.masses": len(masses)},
    )
    perm_cls = permutations.Permutation
    perm_cls.__init__ = tracer.counter("permutations.Permutation.constructed", perm_cls.__init__)
    poly = qpoly.QPolynomial
    add = tracer.span("qpoly.QPolynomial", poly.__add__)
    mul = tracer.span("qpoly.QPolynomial", poly.__mul__)
    poly.__add__ = poly.__radd__ = add
    poly.__mul__ = poly.__rmul__ = mul

    suites = mods["verify"]._SUITES
    for key, fn in list(suites.items()):
        suites[key] = tracer.span(f"verify.{key}", fn)


def run_command(argv: list[str], traced: bool) -> tuple[dict, str]:
    """Call ``riffle.cli.main(argv)`` in this process, capturing stdout."""
    tracer = Tracer()
    if traced:
        install(tracer)
    cli = importlib.import_module("riffle.cli")
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # report a crash as a failed command, as the CLI would
        traceback.print_exc()
        rc = 1
    wall = perf_counter() - start
    header = {"rc": rc, "wall_s": wall, **(tracer.as_json() if traced else {})}
    return header, out.getvalue()


def main() -> int:
    args = sys.argv[1:]
    traced = args[:1] == ["--trace"]
    if traced:
        args = args[1:]
    if args[:1] == ["--"]:
        args = args[1:]
    header, out = run_command(args, traced)
    sys.stdout.write(json.dumps(header) + "\n" + out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
