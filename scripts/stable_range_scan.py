"""Scan the stable range of the matrix-homology comparison.

For a chosen algebra, compares the Lie homology of n x n matrices over it
against the free graded-commutative model on shifted cyclic homology, for
every degree r <= max-r and matrix size n <= max-n. Prints a grid marking
where the dimensions agree, so the stable boundary (r + 1 <= n for unital
algebras) is visible directly in the data.

For a unital algebra only the weight-0 block of the Lie chains is built,
which stays small: on a 2-vCPU host n = 5 with r <= 4 over Q takes 0.14 s,
and n = 6 with r <= 5 takes 63 s. The non-unital route (left-unital)
builds whole exterior powers of the n*n*dim-dimensional Lie algebra, so
keep its bounds small there: n = 4 already means a 32-dimensional one.

Usage: python3 scripts/stable_range_scan.py [--algebra NAME] [--max-n N]
       [--max-r R]
"""

import argparse

from exacthom.assoc_homology import dual_numbers, field_q, left_unital_two_dim
from exacthom.lqt import lqt_stable_check

ALGEBRAS = {"field": field_q, "dual": dual_numbers,
            "left-unital": left_unital_two_dim}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algebra", choices=sorted(ALGEBRAS), default="field")
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--max-r", type=int, default=3)
    args = ap.parse_args()
    a = ALGEBRAS[args.algebra]()

    print(f"algebra: {args.algebra} (dim {a.dim}, unital {a.is_unital})")
    print(f"{'n':>3}  {'degrees in stable range':<26} lhs = rhs?")
    for n in range(1, args.max_n + 1):
        rep = lqt_stable_check(a, n, args.max_r)
        pairs = ", ".join(f"r={r}:{l}/{rh}"
                          for r, l, rh in zip(rep["degrees"],
                                              rep["lhs_dims"],
                                              rep["rhs_dims"]))
        verdict = "yes" if rep["verdict"] else "NO"
        degrees = rep["degrees"] or ["none at this n"]
        print(f"{n:>3}  {str(degrees):<26} {verdict}   ({pairs})")
    print("\nlhs = Lie homology of gl_n, rhs = free graded-commutative "
          "model over cyclic homology")


if __name__ == "__main__":
    main()
