import math
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

import feedsched.cli  # noqa: F401  (imports every stage module)
from feedsched import geometry
from feedsched.geometry import ParametricCurve

# The public queries of a lone parameter; each is a one-parameter jets
# pass, which the pipeline never needs.
SCALAR_QUERIES = ("evaluate", "jet", "derivatives", "curvature_radius")


def count_scalar_queries(monkeypatch, calls):
    """Count in calls (a Counter) every call of a public scalar query,
    by name, through every feedsched module that binds it."""
    modules = [m for n, m in sys.modules.items() if n.startswith("feedsched.")]
    for name in SCALAR_QUERIES:
        fn = getattr(geometry, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)

W = math.sqrt(2.0) / 2.0


def make_line(start=(0.0, 0.0), end=(100.0, 0.0)):
    return ParametricCurve(
        degree=1,
        control_points=(start, end),
        weights=(1.0, 1.0),
        knots=(0.0, 0.0, 1.0, 1.0),
    )


def make_quarter_circle(radius=5.0):
    # exact circular arc from (r, 0) to (0, r)
    return ParametricCurve(
        degree=2,
        control_points=((radius, 0.0), (radius, radius), (0.0, radius)),
        weights=(1.0, W, 1.0),
        knots=(0.0, 0.0, 0.0, 1.0, 1.0, 1.0),
    )


def make_full_circle(radius=5.0):
    r = radius
    return ParametricCurve(
        degree=2,
        control_points=(
            (r, 0.0), (r, r), (0.0, r), (-r, r), (-r, 0.0),
            (-r, -r), (0.0, -r), (r, -r), (r, 0.0),
        ),
        weights=(1.0, W, 1.0, W, 1.0, W, 1.0, W, 1.0),
        knots=(0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 1.0, 1.0, 1.0),
    )


@st.composite
def nurbs_curves(draw, log_weight=3.0):
    """Rational B-splines of degree 1-5 in 2-D or 3-D, weights
    e^+-log_weight, interior knots repeated up to multiplicity p."""
    p = draw(st.integers(1, 5))
    dim = draw(st.sampled_from((2, 3)))
    gaps = draw(st.lists(st.floats(0.02, 1.0), min_size=1, max_size=5))
    interior = np.cumsum(gaps)[:-1] / sum(gaps)
    knots = [0.0] * (p + 1)
    for k in interior:
        knots += [float(k)] * draw(st.integers(1, p))
    knots += [1.0] * (p + 1)
    n = len(knots) - p - 1
    # each control point a step of 0.1 to 10 mm from the last, so that no
    # span collapses to a point, where the speed is rounding noise
    ctrl = [draw(st.tuples(*[st.floats(-20.0, 20.0)] * dim))]
    for _ in range(n - 1):
        r = draw(st.floats(0.1, 10.0))
        a, b = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.0, math.pi))
        step = (math.cos(a), math.sin(a)) if dim == 2 else (
            math.sin(b) * math.cos(a), math.sin(b) * math.sin(a), math.cos(b)
        )
        ctrl.append(tuple(x + r * d for x, d in zip(ctrl[-1], step)))
    logw = draw(
        st.lists(st.floats(-log_weight, log_weight), min_size=n, max_size=n)
    )
    return ParametricCurve(p, ctrl, [math.exp(w) for w in logw], knots)


@pytest.fixture
def line_curve():
    return make_line()


@pytest.fixture
def quarter_circle():
    return make_quarter_circle()


@pytest.fixture
def full_circle():
    return make_full_circle()
