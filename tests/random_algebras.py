"""Seeded changes of basis of associative algebras, shared by the tests.

`random_algebra` draws a built-in family and conjugates it by a random
determinant-1 matrix through `change_of_basis`; the acceptance bundle's
pinned digest covers its seeded draws, so both stay exactly as they are.
"""

import random
from typing import Dict, Tuple

from exacthom.assoc_homology import (StructureConstantAlgebra,
                                     cyclic_group_algebra, direct_sum,
                                     dual_numbers, field_q,
                                     left_unital_two_dim,
                                     truncated_polynomials,
                                     zero_multiplication)
from exacthom.exactlin import SparseMatrix, Vec, inverse, random_unimodular


def change_of_basis(a: StructureConstantAlgebra,
                    g: SparseMatrix) -> StructureConstantAlgebra:
    """Transport the structure constants through an invertible matrix g whose
    columns are the new basis vectors in the old coordinates."""
    ginv = inverse(g)
    mult: Dict[Tuple[int, int], Vec] = {}
    for i in range(a.dim):
        fi = g.column(i)
        for j in range(a.dim):
            prod = a.product(fi, g.column(j))
            coords = ginv.apply(prod)
            if coords:
                mult[(i, j)] = coords
    unit = ginv.apply(a.unit) if a.unit is not None else None
    return StructureConstantAlgebra(a.dim, mult, unit,
                                    tuple(f"v{i}" for i in range(a.dim)))


def random_algebra(seed: int, max_dim: int = 3) -> StructureConstantAlgebra:
    """Seeded random valid algebra of dimension <= max_dim: a built-in family
    conjugated by a random determinant-1 change of basis."""
    rng = random.Random(seed)
    pool = [field_q(), dual_numbers(), truncated_polynomials(2),
            cyclic_group_algebra(2), zero_multiplication(1),
            zero_multiplication(2), left_unital_two_dim(),
            direct_sum(field_q(), field_q())]
    if max_dim >= 3:
        pool += [truncated_polynomials(3), cyclic_group_algebra(3),
                 zero_multiplication(3), direct_sum(field_q(), dual_numbers())]
    base = rng.choice(pool)
    return change_of_basis(base, random_unimodular(rng, base.dim))
