import numpy as np

from opfrob.report import reduce_check

POINTS = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]


def test_nan_anywhere_fails_with_residual_nan():
    for residuals in ([0.0, np.nan, 1e-12], [[0.0, 0.0, 1.0],
                                             [0.0, 0.0, np.nan]]):
        c = reduce_check("c", residuals, POINTS, 1e-9)
        assert not c.passed
        assert np.isnan(c.residual)
    c = reduce_check("c", [0.0, np.nan, 1e-12], POINTS, 1e-9)
    assert c.worst_point == POINTS[1]


def test_zero_points_fail():
    for residuals in ([], np.zeros((3, 0))):
        c = reduce_check("c", residuals, [], 1e-9)
        assert not c.passed
        assert c.samples == 0
        assert c.detail == "no point evaluated"
        assert c.worst_point is None


def test_all_zero_residual_has_no_worst_point():
    c = reduce_check("c", [0.0, 0.0, 0.0], POINTS, 1e-9)
    assert c.passed
    assert c.residual == 0.0
    assert c.worst_point is None
    assert c.samples == 3
    assert "worst_point" not in c.to_dict()


def test_a_tie_reports_the_first_point_in_c_order():
    c = reduce_check("c", [1e-12, 2e-12, 2e-12], POINTS, 1e-9)
    assert c.residual == 2e-12
    assert c.worst_point == POINTS[1]
    # pair 0 attains the maximum at point 2 before pair 1 does at point 0
    c = reduce_check("c", [[0.0, 0.0, 5e-12], [5e-12, 0.0, 0.0]], POINTS,
                     1e-9)
    assert c.worst_point == POINTS[2]


def test_pairs_fold_like_one_check_per_pair():
    rng = np.random.default_rng(3)
    residuals = rng.choice([0.0, 1e-12, 3e-12, 2e-8], size=(4, 3))
    got = reduce_check("c", residuals, POINTS, 1e-9)
    worst, worst_point = 0.0, None
    for row in residuals:
        c = reduce_check("c", row, POINTS, 1e-9)
        if c.residual > worst:
            worst, worst_point = c.residual, c.worst_point
    assert got.residual == worst
    assert got.worst_point == worst_point
    assert got.passed == (worst <= 1e-9)
    assert got.samples == 3


def test_report_fields_pass_through():
    c = reduce_check("c", [2.0], [[0.0]], 1.0, seed=7, detail="why")
    assert (c.seed, c.detail, c.passed) == (7, "why", False)
    c = reduce_check("c", [], [], 1.0, detail="why")
    assert c.detail == "no point evaluated; why"
