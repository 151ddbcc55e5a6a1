import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riffle

# the public names by home module, pinned so that none drops out of riffle._HOMES
EXPORTS = {
    "counting": {"count_descent_det", "count_descent_exact", "count_descent_subset",
                 "involutions_descent_subset", "ncycles_descent_det", "ncycles_descent_ie"},
    "genfuncs": {"CyclePolynomial", "cycle_structure_pgf", "expected_descents",
                 "expected_fixed_points", "expected_inversions", "fixed_point_pgf",
                 "inversion_pgf"},
    "necklaces": {"enumerate_primitive_necklaces", "is_primitive", "necklace_decomposition",
                  "primitive_count", "standardize", "ubar_forward", "word_from_permutation"},
    "permutations": {"Permutation", "cycle_type", "descent_set", "inversions"},
    "qpoly": {"QPolynomial", "q_binomial", "q_multinomial"},
    "shuffles": {"ExactDistribution", "ShuffleSpec", "convolve", "exact_distribution",
                 "exact_kfold_distribution", "lalley_lower_steps", "lalley_theta",
                 "parse_bias", "sample", "substream", "suf_bound", "tensor_bias",
                 "tensor_power", "tv_distance", "tv_to_uniform", "uniform_distribution"},
}


def test_all_lists_every_public_name_once():
    assert len(riffle.__all__) == len(set(riffle.__all__)) == 43
    assert set(riffle.__all__) == set().union(*EXPORTS.values())


def test_each_public_name_is_the_object_in_its_home_module():
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"riffle.{home}")
        for name in names:
            assert getattr(riffle, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from riffle import *", namespace)
    assert {name: namespace[name] for name in riffle.__all__} == {
        name: getattr(riffle, name) for name in riffle.__all__}


def test_dir_lists_every_public_name():
    listed = dir(riffle)
    assert listed == sorted(listed)
    assert set(riffle.__all__) | {"__version__"} <= set(listed)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'riffle' has no attribute 'no_such_name'"):
        riffle.no_such_name  # noqa: B018
    assert not hasattr(riffle, "_cut_numerators")  # a private name of a home module
    from riffle import counting  # not a public name: the submodule is imported

    assert counting.__name__ == "riffle.counting"


def test_a_public_name_loads_only_its_home_module():
    src = str(Path(riffle.__file__).resolve().parents[1])
    probe = ("import sys, riffle\n"
             "before = sorted(m for m in sys.modules if m.startswith('riffle'))\n"
             "riffle.tv_to_uniform\n"
             "print(before, sorted(m for m in sys.modules if m.startswith('riffle')))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "['riffle'] ['riffle', 'riffle.permutations', 'riffle.shuffles']\n"
