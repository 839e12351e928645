from fractions import Fraction

from momentangle.lp import (
    positive_combination,
    solve_lp,
    strictly_positive_functional,
)


def test_solve_lp_optimal():
    # min x1 + x2 s.t. x1 + 2 x2 = 4, x >= 0 -> x = (0, 2)
    res = solve_lp([[1, 2]], [4], [1, 1])
    assert res.status == "optimal"
    assert res.x == (Fraction(0), Fraction(2))
    assert res.objective == 2


def test_solve_lp_infeasible_unbounded():
    assert solve_lp([[1, 1]], [-1], [0, 0]).status == "infeasible"
    res = solve_lp([[1, -1]], [0], [-1, 0])
    assert res.status == "unbounded"


def test_zero_variable_systems():
    assert solve_lp([[]], [0], []).status == "optimal"
    assert solve_lp([[]], [1], []).status == "infeasible"


def test_positive_combination():
    t = positive_combination([(1,), (2,)], (1,))
    assert t is not None and all(x > 0 for x in t)
    assert t[0] + 2 * t[1] == 1
    assert positive_combination([(1,), (1,)], (0,)) is None  # needs all-positive weights
    t = positive_combination([(1, 1), (1, 1), (1, 2)], (2, 3))
    assert t is not None and all(x > 0 for x in t)


def test_strictly_positive_functional():
    h = strictly_positive_functional([(1,), (1,), (1,)])
    assert h is not None and h[0] > 0
    assert strictly_positive_functional([(1,), (-1,)]) is None
    h = strictly_positive_functional([(1, 1), (1, 1), (1, -1), (1, -1)])
    assert h is not None
    for v in [(1, 1), (1, -1)]:
        assert h[0] * v[0] + h[1] * v[1] > 0
