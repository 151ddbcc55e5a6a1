"""Biased riffle shuffles, exactly.

Samplers and exact rational measures for cut-and-riffle shuffles with
arbitrary pile biases, the necklace bijection that explains their cycle
structure, descent-set enumeration formulas, and exact generating functions
for fixed points, inversions, and descents -- each backed by a brute-force
oracle at small deck sizes.
"""

from .counting import (
    count_descent_det,
    count_descent_exact,
    count_descent_subset,
    involutions_descent_subset,
    ncycles_descent_det,
    ncycles_descent_ie,
)
from .genfuncs import (
    CyclePolynomial,
    cycle_structure_pgf,
    expected_descents,
    expected_fixed_points,
    expected_inversions,
    fixed_point_pgf,
    inversion_pgf,
)
from .necklaces import (
    enumerate_primitive_necklaces,
    is_primitive,
    necklace_decomposition,
    primitive_count,
    standardize,
    ubar_forward,
    word_from_permutation,
)
from .permutations import (
    Permutation,
    cycle_type,
    descent_set,
    inversions,
)
from .qpoly import QPolynomial, q_binomial, q_multinomial
from .shuffles import (
    ExactDistribution,
    ShuffleSpec,
    convolve,
    exact_distribution,
    exact_kfold_distribution,
    lalley_lower_steps,
    lalley_theta,
    parse_bias,
    sample,
    substream,
    suf_bound,
    tensor_bias,
    tensor_power,
    tv_distance,
    tv_to_uniform,
    uniform_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "QPolynomial",
    "ShuffleSpec",
    "ExactDistribution",
    "CyclePolynomial",
    "convolve",
    "count_descent_det",
    "count_descent_exact",
    "count_descent_subset",
    "cycle_structure_pgf",
    "cycle_type",
    "descent_set",
    "enumerate_primitive_necklaces",
    "exact_distribution",
    "exact_kfold_distribution",
    "expected_descents",
    "expected_fixed_points",
    "expected_inversions",
    "fixed_point_pgf",
    "inversion_pgf",
    "inversions",
    "involutions_descent_subset",
    "is_primitive",
    "lalley_lower_steps",
    "lalley_theta",
    "ncycles_descent_det",
    "ncycles_descent_ie",
    "necklace_decomposition",
    "parse_bias",
    "primitive_count",
    "q_binomial",
    "q_multinomial",
    "sample",
    "standardize",
    "substream",
    "suf_bound",
    "tensor_bias",
    "tensor_power",
    "tv_distance",
    "tv_to_uniform",
    "ubar_forward",
    "uniform_distribution",
    "word_from_permutation",
]
