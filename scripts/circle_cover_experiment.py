"""Cech homology of a finite circle under different covers.

Builds the n-point circle with a cover by arcs, forms the difference-operator
cokernel cosheaf (the finite stand-in for functions modulo exact ones), and
prints its Cech Betti numbers together with the cosheaf-axiom verdict and the
coresolution cross-check. The degree-1 class of the circle should show up as
Betti (1, 1, 0, ...) no matter how the arcs are drawn, as long as they cover.

Usage: python3 scripts/circle_cover_experiment.py [--points N]  (N >= 6)
"""

import argparse

from exacthom.cech_cosheaf import (CosheafMorphism, cech_complex,
                                   circle_difference_model,
                                   cokernel_precosheaf, coresolution_homology,
                                   cosheaf_axiom_check)
from exacthom.complexes import betti_numbers
from exacthom.exactlin import Subspace, image_basis, quotient_structure


def arc(points, start, length):
    return [(start + i) % points for i in range(length)]


def covers_for(points):
    two = [arc(points, 0, points // 2 + 1),
           arc(points, points // 2, points - points // 2 + 1)]
    three = [arc(points, 0, points // 3 + 1),
             arc(points, points // 3, points // 3 + 1),
             arc(points, 2 * (points // 3), points - 2 * (points // 3) + 1)]
    return [("two arcs", two), ("three arcs", three)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=6)
    args = ap.parse_args()
    if args.points < 6:
        # below 6 points the three-arc cover has two-point arcs, which the
        # finite model checks against their two endpoint singletons as if
        # those covered them, and the cokernel fails that axiom check
        ap.error("--points must be at least 6, so that each of the three "
                 "arcs has at least three points")

    for label, arcs in covers_for(args.points):
        u, p0, p1, d = circle_difference_model(args.points, arcs)
        z = cokernel_precosheaf(d)
        axiom = cosheaf_axiom_check(z, u)
        direct = betti_numbers(cech_complex(z, u))
        quots = [quotient_structure(Subspace.from_matrix_rows(
            image_basis(d.components[i]))) for i in range(len(u.opens))]
        aug = CosheafMorphism(p1, z, tuple(q.projection for q in quots))
        res = coresolution_homology(z, [p1, p0], [d], aug)
        print(f"{args.points}-point circle, {label} "
              f"({len(u.opens)} stored opens)")
        print(f"  cosheaf axiom: "
              f"{'pass' if axiom['verdict'] else 'FAIL'}")
        print(f"  direct Cech Betti:      {direct}")
        print(f"  coresolution Betti:     {list(res.betti)}")
        print()


if __name__ == "__main__":
    main()
