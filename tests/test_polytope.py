import random
import re
from fractions import Fraction

import pytest

from momentangle.polytope import (
    EmptyPolytopeError,
    PolytopePresentation,
    UnboundedPolytopeError,
    embed_point,
    enumerate_vertices,
    is_delzant,
    is_simple,
)
from momentangle.quadric_config import gale_dual
from momentangle.reduction_catalog import catalog_polytope


def F(*args):
    return tuple(Fraction(a) for a in args)


def test_triangle_vertices():
    # oracle: solve each facet pair by hand
    # {x=0, y=0} -> (0,0); {x=0, 1-x-y=0} -> (0,1); {y=0, ...} -> (1,0)
    vs = enumerate_vertices(catalog_polytope("triangle"))
    assert set(vs.vertices) == {F(0, 0), F(0, 1), F(1, 0)}
    for vertex, active in vs:
        assert len(active) == 2


def test_square_vertices_and_segment():
    vs = enumerate_vertices(catalog_polytope("square"))
    assert len(vs) == 4
    seg = PolytopePresentation([(1,), (-1,)], [0, 1])
    vseg = enumerate_vertices(seg)
    assert set(vseg.vertices) == {F(0), F(1)}


def test_cube_counts_simple_delzant():
    for n in (2, 3):
        P = catalog_polytope(f"cube:{n}")
        assert len(enumerate_vertices(P)) == 2**n
        assert is_simple(P)
        assert is_delzant(P)


def test_square_pyramid_not_simple():
    # apex (0,0,1) lies on the four slanted facets
    P = PolytopePresentation(
        [(0, 0, 1), (-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1)],
        [0, 1, 1, 1, 1],
    )
    v = is_simple(P)
    assert not v
    vertex, active = v.witness
    assert vertex == F(0, 0, 1)
    assert len(active) == 4


def test_delzant_examples():
    assert is_delzant(catalog_polytope("triangle"))
    bad = is_delzant(catalog_polytope("bad-triangle"))
    assert not bad
    _, _, d = bad.witness
    assert abs(d) == 2
    assert is_delzant(catalog_polytope("square"))


def test_delzant_requires_simple():
    P = PolytopePresentation(
        [(0, 0, 1), (-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1)],
        [0, 1, 1, 1, 1],
    )
    witness = is_simple(P).witness
    with pytest.raises(ValueError, match=re.escape(f"is_delzant requires a simple polytope; witness {witness}")):
        is_delzant(P)


def test_embed_point():
    tri = catalog_polytope("triangle")
    assert embed_point(tri, (0, 0)) == F(0, 0, 1)
    assert embed_point(tri, (1, 0)) == F(1, 0, 0)
    sq = catalog_polytope("square")
    assert embed_point(sq, (Fraction(1, 2), Fraction(1, 2))) == F("1/2", "1/2", "1/2", "1/2")


def test_embedded_image_satisfies_dual_relations():
    rnd = random.Random(5)
    for name in ("triangle", "square", "simplex:3", "product:2,3"):
        P = catalog_polytope(name)
        Q = gale_dual(P)
        for _ in range(20):
            x = [Fraction(rnd.randint(-30, 30), rnd.randint(1, 11)) for _ in range(P.dim)]
            y = embed_point(P, x)
            for j in range(Q.num_quadrics):
                val = sum(
                    (Fraction(Q.gamma.entries[j][k]) * y[k] for k in range(P.num_facets)),
                    Fraction(0),
                )
                assert val == Q.c[j]


def test_unbounded_and_empty():
    quadrant = PolytopePresentation([(1, 0), (0, 1)], [0, 0])
    assert not quadrant.is_bounded()
    with pytest.raises(UnboundedPolytopeError):
        enumerate_vertices(quadrant)
    with pytest.raises(EmptyPolytopeError):
        PolytopePresentation([(1,), (-1,)], [-1, -1])  # x >= 1 and x <= -1


def test_primitivization():
    P = PolytopePresentation([(2, 0), (0, 2), (-2, -2)], [0, 0, 2])
    assert P.normals == ((1, 0), (0, 1), (-1, -1))
    assert P.offsets == F(0, 0, 1)


def test_delzant_implies_simple_on_catalog():
    for name in ("triangle", "square", "simplex:2", "simplex:3", "cube:3", "product:2,2"):
        P = catalog_polytope(name)
        if is_delzant(P):
            assert is_simple(P)
