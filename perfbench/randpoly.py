"""Seeded random polytopes with verdicts known by construction.

Every family is a simple, bounded polytope whose facets are all
irredundant, so its dual configuration is bounded and nondegenerate. The
Delzant property is fixed by the family: a chopped box or a simplex is
Delzant, and a chop or a simplex facet with one weighted coefficient ``w``
leaves exactly one vertex cone of determinant ``+-w``. The paper's identity
(Delzant iff the torus acts freely) then gives the expected freeness
verdict without a golden file.

The seed picks side lengths, weights, offsets, a unimodular change of
coordinates and an integer translation. The facet count and dimension of
each family are fixed, so the cost of a pass hardly depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RandomPolytope:
    name: str
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    delzant: bool
    weight: int  # |det| at the one bad vertex cone; 1 for a Delzant polytope


def _chopped_box(rng: random.Random, n: int, w: int):
    """Box [0, L_1] x ... x [0, L_n] with its top corner cut off.

    The cut normal is -(1, ..., 1, w). The new vertex on the last edge has
    determinant +-w; the other new vertices have determinant +-1.
    """
    sides = [rng.randint(w + 1, w + 3) for _ in range(n)]
    normals, offsets = [], []
    for i in range(n):
        normals.append(tuple(int(j == i) for j in range(n)))
        offsets.append(0)
        normals.append(tuple(-int(j == i) for j in range(n)))
        offsets.append(sides[i])
    cut = (1,) * (n - 1) + (w,)
    normals.append(tuple(-a for a in cut))
    offsets.append(sum(a * s for a, s in zip(cut, sides)) - w)
    return normals, offsets


def _weighted_simplex(rng: random.Random, n: int, w: int):
    """{x >= 0, x_1 + ... + x_{n-1} + w x_n <= b}; the far vertex on axis n has det +-w."""
    normals = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    normals.append(tuple(-1 for _ in range(n - 1)) + (-w,))
    return normals, [0] * n + [w * rng.randint(1, 3)]


def _simplex_product(rng: random.Random, p: int, q: int):
    """Delta_p x Delta_q with independent random sizes."""
    n = p + q
    normals, offsets = [], []
    for lo, k in ((0, p), (p, q)):
        for i in range(lo, lo + k):
            normals.append(tuple(int(j == i) for j in range(n)))
            offsets.append(0)
        normals.append(tuple(-int(lo <= j < lo + k) for j in range(n)))
        offsets.append(rng.randint(1, 3))
    return normals, offsets


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A coordinate permutation followed by two elementary shears."""
    perm = list(range(n))
    rng.shuffle(perm)
    T = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        T[i] = [a + s * b for a, b in zip(T[i], T[j])]
    return T


def _transform(rng: random.Random, normals, offsets):
    """Substitute x = T y + t: normals become T^T a, offsets b + <a, t>."""
    n = len(normals[0])
    T = _unimodular(rng, n)
    t = [rng.randint(-2, 2) for _ in range(n)]
    new_normals = tuple(
        tuple(sum(T[i][j] * a[i] for i in range(n)) for j in range(n)) for a in normals
    )
    new_offsets = tuple(b + sum(ai * ti for ai, ti in zip(a, t)) for a, b in zip(normals, offsets))
    return new_normals, new_offsets


def random_polytopes(seed: int) -> list[RandomPolytope]:
    """Five polytopes of fixed shape, two of them non-Delzant."""
    rng = random.Random(seed)
    w_chop, w_simplex = rng.choice((2, 3)), rng.choice((2, 3))
    shapes = (
        ("rand-chopped-box:3", 1, lambda: _chopped_box(rng, 3, 1)),
        ("rand-weighted-chop:4", w_chop, lambda: _chopped_box(rng, 4, w_chop)),
        ("rand-weighted-simplex:5", w_simplex, lambda: _weighted_simplex(rng, 5, w_simplex)),
        ("rand-product:2,3", 1, lambda: _simplex_product(rng, 2, 3)),
        ("rand-simplex:5", 1, lambda: _weighted_simplex(rng, 5, 1)),
    )
    out = []
    for name, w, build in shapes:
        normals, offsets = _transform(rng, *build())
        out.append(RandomPolytope(name, normals, offsets, delzant=(w == 1), weight=w))
    return out
