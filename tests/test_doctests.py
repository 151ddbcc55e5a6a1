import doctest

import pytest

import riffle.counting
import riffle.genfuncs
import riffle.necklaces
import riffle.permutations
import riffle.qpoly
import riffle.shuffles


@pytest.mark.parametrize(
    "module",
    [
        riffle.permutations,
        riffle.qpoly,
        riffle.necklaces,
        riffle.counting,
        riffle.shuffles,
        riffle.genfuncs,
    ],
)
def test_module_doctests(module):
    failures, tested = doctest.testmod(module)
    assert failures == 0
    assert tested > 0
