import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremis._optim import newton_root


def _bisect(fun, lo, hi):
    """The root of a falling ``fun`` in [lo, hi], halving to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        lo, hi = (lo, mid) if fun(mid)[0] < 0.0 else (mid, hi)


@settings(max_examples=300, deadline=None)
@example(root=0.0, a=1.0, b=0.0, c=5.0, below=5.0, above=5.0, start=0.0, xtol=1e-14)
@given(root=st.floats(-100.0, 100.0), a=st.floats(0.1, 10.0), b=st.floats(0.0, 10.0),
       c=st.floats(0.0, 10.0), below=st.floats(1e-3, 100.0), above=st.floats(1e-3, 100.0),
       start=st.floats(0.0, 1.0), xtol=st.sampled_from([1e-14, 1e-10, 1e-6]))
def test_newton_root_matches_bisection_on_monotone_functions(root, a, b, c, below, above,
                                                             start, xtol):
    # -(a e + b e^3 + c atan e), e = x - root: strictly falling, a simple root
    def fun(x):
        e = x - root
        return (-(a * e + b * e ** 3 + c * math.atan(e)),
                -(a + 3.0 * b * e * e + c / (1.0 + e * e)), x)

    lo, hi = root - below, root + above
    x, slope, at = newton_root(fun, lo, hi, lo + start * (hi - lo), xtol)
    assert lo <= x <= hi
    assert abs(x - _bisect(fun, lo, hi)) <= 2.0 * xtol * (1.0 + abs(root))
    # slope and rest come from the last evaluated point, one short step away
    assert slope == fun(at)[1] and abs(x - at) <= xtol * (1.0 + abs(at))


@pytest.mark.parametrize("c", [1.0, 5.0, 20.0])
def test_newton_root_breaks_newton_cycles(c):
    # plain Newton on x + c atan x cycles between two points around the
    # inflection at 0 from many starts; the bracket must still close on 0
    def fun(x):
        return -(x + c * math.atan(x)), -(1.0 + c / (1.0 + x * x))

    for start in np.linspace(-10.0, 10.0, 41):
        assert abs(newton_root(fun, -10.0, 10.0, start, 1e-14)[0]) <= 1e-12


def test_newton_root_treats_nan_as_below_the_root():
    # undefined left of 1, as the profile's shapes whose endpoint falls
    # below the data are; the start sits in the undefined part
    def fun(x):
        if x <= 1.0:
            return math.nan, math.nan
        return math.log(2.0 / (x - 1.0)), -1.0 / (x - 1.0)

    x, slope = newton_root(fun, -10.0, 10.0, -10.0, 1e-14)
    assert x == pytest.approx(3.0, rel=0.0, abs=1e-13)
    assert slope == pytest.approx(-0.5, rel=1e-12)


def test_newton_root_raises_at_its_iteration_cap():
    # a slope that is never negative forces bisection, which cannot narrow
    # (-1e300, 1e300) to 1e-14 within the cap
    with pytest.raises(RuntimeError, match="did not converge"):
        newton_root(lambda x: (1.0 - x, 1.0), -1e300, 1e300, 0.0, 1e-14)
    # the same bracket with the true slope takes one Newton step
    assert newton_root(lambda x: (1.0 - x, -1.0), -1e300, 1e300, 0.0, 1e-14)[0] == 1.0
