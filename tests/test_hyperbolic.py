import math

import numpy as np
import pytest

from bmx.errors import (NodeBudgetExceeded, PointOutsideDomain,
                        TargetUnreachable)
from bmx.geometry import Disk, HalfPlane, KoebeSlit, Rectangle, Wedge
from bmx.hyperbolic import (CircleTarget, QhConfig, quasi_hyperbolic_distance,
                            quasi_hyperbolic_profile)


def test_disk_radial_integral():
    # From the center to the circle |z| = 1/2: integral of dr/(1-r) = ln 2.
    v = quasi_hyperbolic_distance(Disk(0j, 1.0), 0j, CircleTarget(0.5))
    assert abs(v / math.log(2) - 1) < 0.03


def test_halfplane_vertical_geodesic():
    v = quasi_hyperbolic_distance(HalfPlane("north"), 1j, 2j,
                                  QhConfig(max_rounds=3))
    assert abs(v / math.log(2) - 1) < 0.03


def test_wedge_radial_integral():
    # Along the bisector the clearance is r sin(theta/2); the radial path
    # from 1 to the circle of radius R about 1 integrates to
    # sqrt(2) ln(R + 1) for theta = pi/2.
    R = 100.0
    v = quasi_hyperbolic_distance(
        Wedge(math.pi / 2), 1 + 0j, CircleTarget(R),
        QhConfig(cell_factor=0.1, rel_floor=0.01, max_rounds=3))
    oracle = math.sqrt(2) * math.log(R + 1)
    assert abs(v / oracle - 1) < 0.05


def test_point_and_circle_targets_are_consistent():
    d = Disk(0j, 1.0)
    v_pt = quasi_hyperbolic_distance(d, 0j, 0.5 + 0j)
    v_circ = quasi_hyperbolic_distance(d, 0j, CircleTarget(0.5))
    # The circle is the union over directions, so it can only be closer.
    assert v_circ <= v_pt + 1e-9
    assert abs(v_pt - v_circ) < 0.05


def test_refinement_is_monotone_decreasing():
    _, history, _ = quasi_hyperbolic_profile(
        Disk(0j, 1.0), 0j, [CircleTarget(0.5)],
        QhConfig(refine_target=1e-9, max_rounds=4))
    vals = [h[0] for h in history]
    assert len(vals) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_koebe_slit_growth_is_logarithmic():
    Rs = [10.0, 100.0, 1000.0]
    vals, _, _ = quasi_hyperbolic_profile(
        KoebeSlit(), 1 + 0j, [CircleTarget(r) for r in Rs],
        QhConfig(rel_floor=0.02))
    oracles = [math.log((r + 1.25) / 1.25) for r in Rs]
    for v, o in zip(vals, oracles):
        assert abs(v / o - 1) < 0.05
    assert vals[0] < vals[1] < vals[2]


def test_source_must_be_interior():
    with pytest.raises(PointOutsideDomain):
        quasi_hyperbolic_distance(Disk(0j, 1.0), 2 + 0j, 0.5 + 0j)
    with pytest.raises(PointOutsideDomain):
        quasi_hyperbolic_distance(Disk(0j, 1.0), 0j, 3 + 0j)


def test_unreachable_circle_target():
    # A circle that never meets the domain has no candidate leaves.
    with pytest.raises(TargetUnreachable):
        quasi_hyperbolic_distance(Rectangle(1, 1), 0j, CircleTarget(10.0),
                                  QhConfig(max_rounds=1))


def test_node_budget_in_first_round_names_max_nodes():
    # A budget the first graph cannot fit is a budget error, not a claim
    # that no grid path reaches the target.
    with pytest.raises(NodeBudgetExceeded, match="max_nodes=50"):
        quasi_hyperbolic_distance(Disk(0j, 1.0), 0j, CircleTarget(0.5),
                                  QhConfig(max_nodes=50))
    assert issubclass(NodeBudgetExceeded, TargetUnreachable)
