import math

import numpy as np
import pytest

from feedsched import curvegen
from feedsched.curvegen import random_curve
from feedsched.geometry import jets


def slowest(curve):
    """Least speed over the 257 parameters _well_formed samples."""
    _, d1 = jets(curve, np.linspace(0.0, 1.0, 257), order=1)
    return min(math.hypot(*d) for d in d1.tolist())


def test_a_draw_under_the_speed_floor_is_drawn_again(monkeypatch):
    # with the floor just above the speed of seed 0's first draw, that
    # draw is refused and a later attempt of the same seed is kept
    first = random_curve(0)
    floor = 1.001 * slowest(first)
    monkeypatch.setattr(curvegen, "_MIN_SPEED_FRACTION", floor / 30.0)
    again = random_curve(0)
    assert again != first
    assert slowest(again) >= floor
    assert random_curve(0) == again


def test_gives_up_when_no_draw_clears_the_floor(monkeypatch):
    monkeypatch.setattr(curvegen, "_MIN_SPEED_FRACTION", math.inf)
    with pytest.raises(RuntimeError, match="could not draw a usable curve for seed 5"):
        random_curve(5)
