#!/usr/bin/env python
"""Polygon dissections, diagonal rotations, and the Cambrian lattice.

Commutation classes of reduced factorizations correspond to dissections
of a 2N-gon into (2k+2)-gons.  Hurwitz moves become single-diagonal
rotations, and orienting the clockwise rotations yields a bounded
lattice whose minimum is the consecutive-blocks factorization.
"""

from ncindiv.geometry import (
    all_dissections,
    build_cambrian,
    diagonal_for_pair,
    rotate_diagonal,
    theta,
    theta_inverse,
)
from ncindiv.hurwitz import enumerate_factorizations, hurwitz_move
from ncindiv.perm import KParams, format_cycles


def show(factors) -> str:
    return " | ".join(format_cycles(t) for t in factors)


def main() -> None:
    params = KParams(k=1, n=3)
    dissections = all_dissections(params)
    print(f"dissections of the {2 * params.N}-gon: {len(dissections)}")

    f = enumerate_factorizations(params)[0]
    d = theta(f, params)
    print(f"\nTheta({show(f)}) has diagonals {sorted(d.diagonals)}")
    print(f"round trip recovers the class: {theta(theta_inverse(d), params) == d}")

    diag = diagonal_for_pair(d, f, 0)
    print(f"\nrotating diagonal {diag} clockwise realizes sigma_1 inverse:")
    lhs = theta(hurwitz_move(f, 0, inverse=True), params)
    rhs = rotate_diagonal(d, diag, clockwise=True)
    print(f"  Theta(sigma_1^-1 t) == rotate_cw(Theta(t)): {lhs == rhs}")

    lattice = build_cambrian(params)
    print(f"\nCambrian poset: {len(lattice)} elements,"
          f" {len(lattice.covers)} covers, lattice: {lattice.is_lattice()}")
    print(f"minimum: {lattice.elements[lattice.bottom()]}")
    print(f"maximum: {lattice.elements[lattice.top()]}")


if __name__ == "__main__":
    main()
