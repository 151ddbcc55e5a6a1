"""Biased riffle shuffles, exactly.

Samplers and exact rational measures for cut-and-riffle shuffles with
arbitrary pile biases, the necklace bijection that explains their cycle
structure, descent-set enumeration formulas, and exact generating functions
for fixed points, inversions, and descents -- each backed by a brute-force
oracle at small deck sizes.
"""

# each public name and the submodule it lives in; ``riffle.X`` imports only
# X's module, on first access (PEP 562), so ``import riffle.cli`` loads no
# library module its subcommand does not run
_HOMES = {
    **dict.fromkeys(("count_descent_det", "count_descent_exact", "count_descent_subset",
                     "involutions_descent_subset", "ncycles_descent_det",
                     "ncycles_descent_ie"), "counting"),
    **dict.fromkeys(("CyclePolynomial", "cycle_structure_pgf", "expected_descents",
                     "expected_fixed_points", "expected_inversions", "fixed_point_pgf",
                     "inversion_pgf"), "genfuncs"),
    **dict.fromkeys(("enumerate_primitive_necklaces", "is_primitive", "necklace_decomposition",
                     "primitive_count", "standardize", "ubar_forward",
                     "word_from_permutation"), "necklaces"),
    **dict.fromkeys(("Permutation", "cycle_type", "descent_set", "inversions"), "permutations"),
    **dict.fromkeys(("QPolynomial", "q_binomial", "q_multinomial"), "qpoly"),
    **dict.fromkeys(("ExactDistribution", "ShuffleSpec", "convolve", "exact_distribution",
                     "exact_kfold_distribution", "lalley_lower_steps", "lalley_theta",
                     "parse_bias", "sample", "substream", "suf_bound", "tensor_bias",
                     "tensor_power", "tv_distance", "tv_to_uniform",
                     "uniform_distribution"), "shuffles"),
}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import a public name from its home module on first access; any other
    name is missing, so ``from riffle import counting`` imports the
    submodule."""
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
