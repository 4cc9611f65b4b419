"""Invariance oracles: a unimodular change of lattice coordinates renumbers
points, simplices and cells, but no count or table may move."""

import pytest

from tropmirror.intlinalg import det, dot

from conftest import inverse_transpose, lattice_map, moved_pair
from test_posets import counts_by_dim

MOVES = {
    "det+1": [[2, 1, 0], [1, 1, 0], [3, 1, 1]],
    "det-1": [[0, 1, 0], [1, 0, 0], [1, 2, 1]],
}


@pytest.mark.parametrize("name", sorted(MOVES))
def test_k3_posets_and_tables_survive_a_lattice_automorphism(k3_pair, name):
    G = MOVES[name]
    assert det(G) == (1 if name == "det+1" else -1)
    moved = moved_pair(k3_pair, G)
    newton, dual = lattice_map(G), lattice_map(inverse_transpose(G))
    # the pairing is kept point by point, and the points did move
    a = k3_pair.side_a
    assert all(
        dot(dual(u), newton(x)) == dot(u, x)
        for u in a.ambient.polytope.lattice_points
        for x in a.newton.polytope.lattice_points
    )
    assert moved.side_a.newton.polytope.vertices != a.newton.polytope.vertices
    for side, image, (amb, new) in zip(
        k3_pair.sides, moved.sides, ((dual, newton), (newton, dual))
    ):
        for kind in ("base", "refined"):
            poset, moved_poset = side.poset(kind), image.poset(kind)
            assert counts_by_dim(poset) == counts_by_dim(moved_poset), kind
            assert len(poset.covers) == len(moved_poset.covers), kind
            # cell by cell: (tau, sigma) goes to its image, resorted
            images = {
                (tuple(sorted(map(amb, c.tau))), tuple(sorted(map(new, c.sigma))))
                for c in poset.cells
            }
            assert images == set(moved_poset.cell_index), kind
        for ring in ("f2", "z"):
            assert side.hodge_table(ring) == image.hodge_table(ring), ring
