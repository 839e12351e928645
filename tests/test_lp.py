from fractions import Fraction

from momentangle import lp
from momentangle.lp import (
    inequality_point,
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


def test_solve_lp_builds_fractions_only_when_read(monkeypatch):
    # the optimum is kept as integer numerators over the tableau's D; x is
    # built on first read and kept, and positive_combination builds its t_k
    # from the numerators without reading x
    built = []
    monkeypatch.setattr(lp, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    res = solve_lp([[1, 2]], [4], [1, 1])
    assert built == []
    assert res.x == (0, 2) and len(built) == 2
    assert res.x is res.x and len(built) == 2
    assert positive_combination([(1,), (2,)], (1,)) == (Fraction(1, 3), Fraction(1, 3))
    assert len(built) == 4


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


def test_inequality_point():
    # the triangle x, y >= 0, x + y <= 1 as <v_k, x> >= lower_k, with
    # rational bounds; x >= 1 and -x >= 0 have no common point
    vectors, lower = [(1, 0), (0, 1), (-1, -1)], [Fraction(1, 3), 0, -1]
    x = inequality_point(vectors, lower)
    assert x is not None and all(isinstance(t, Fraction) for t in x)
    assert all(v[0] * x[0] + v[1] * x[1] >= b for v, b in zip(vectors, lower))
    assert inequality_point([(1,), (-1,)], [1, 0]) is None
    assert inequality_point([(1,), (-1,)], [-2, -3]) is not None
