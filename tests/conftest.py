import math

import pytest

from polyrenorm import (GridSpec, Polynomial, build_carrots, build_family,
                        build_surgery, escape_analysis, wedge_raster)
from polyrenorm.angles import Angle

CUBIC = Polynomial((0, 4, 4, 1))  # z(z+2)^2
BASILICA = Polynomial((0, -1, 1))  # z^2 - z
SQUARE = Polynomial((0, 0, 1))  # z^2
G0 = 0.125
RHO = math.exp(-G0)
FIG1_PAIRS = [(Angle.parse("1/3"), Angle.parse("2/3")),
              (Angle.parse("0"), Angle.parse("0"))]


@pytest.fixture(scope="session")
def cubic():
    return CUBIC


@pytest.fixture(scope="session")
def fig1_family():
    return build_family(CUBIC, FIG1_PAIRS, g0=G0)


@pytest.fixture(scope="session")
def fig1_carrots(fig1_family):
    return build_carrots(CUBIC, fig1_family.cuts, RHO)


@pytest.fixture(scope="session")
def fig1_surgery(fig1_family, fig1_carrots):
    return build_surgery(CUBIC, fig1_family, RHO, fig1_carrots)


@pytest.fixture(scope="session")
def fig1_grid():
    return GridSpec(complex(-1.25, 0.0), 4.5, 256)


@pytest.fixture(scope="session")
def fig1_masks(fig1_family, fig1_grid):
    return escape_analysis(CUBIC, fig1_grid, 256, raster=wedge_raster(CUBIC, fig1_family))
