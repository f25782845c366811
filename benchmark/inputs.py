"""Seeded input documents for the benchmark workloads.

Everything here is the benchmark's own exact arithmetic on plain dicts of
Fractions: no exacthom code builds or checks an input, so the program under
test only ever sees the JSON files written from these documents.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

# An algebra or Lie algebra as structure constants:
# (i, j) -> {k: coefficient} for e_i * e_j (or [e_i, e_j]).
Table = Dict[Tuple[int, int], Dict[int, Fraction]]


# -- associative algebras -------------------------------------------------------


def _algebra(dim: int, mult: Table, unit: Optional[Dict[int, Fraction]],
             names: Sequence[str]) -> dict:
    return {"dim": dim, "mult": mult, "unit": unit, "names": list(names)}


def field_q() -> dict:
    return _algebra(1, {(0, 0): {0: Fraction(1)}}, {0: Fraction(1)}, ["1"])


def dual_numbers() -> dict:
    one = Fraction(1)
    return _algebra(2, {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
                    {0: one}, ["1", "eps"])


def truncated_polynomials(m: int) -> dict:
    mult = {(i, j): {i + j: Fraction(1)}
            for i in range(m) for j in range(m) if i + j < m}
    return _algebra(m, mult, {0: Fraction(1)},
                    ["1"] + [f"x^{i}" for i in range(1, m)])


def matrix_algebra(m: int) -> dict:
    mult = {(i * m + j, j * m + l): {i * m + l: Fraction(1)}
            for i in range(m) for j in range(m) for l in range(m)}
    unit = {i * m + i: Fraction(1) for i in range(m)}
    return _algebra(m * m, mult, unit,
                    [f"e{i + 1}{j + 1}" for i in range(m) for j in range(m)])


def product_of_fields() -> dict:
    one = Fraction(1)
    return _algebra(2, {(0, 0): {0: one}, (1, 1): {1: one}},
                    {0: one, 1: one}, ["l", "r"])


def _apply(mat: List[List[Fraction]], v: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for r, row in enumerate(mat):
        s = sum((row[c] * x for c, x in v.items()), Fraction(0))
        if s:
            out[r] = s
    return out


def _product(alg: dict, u: Dict[int, Fraction],
             v: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in alg["mult"].get((i, j), {}).items():
                out[k] = out.get(k, Fraction(0)) + a * b * c
    return {k: x for k, x in out.items() if x}


def _matmul(a: List[List[Fraction]],
            b: List[List[Fraction]]) -> List[List[Fraction]]:
    return [[sum((x * b[k][c] for k, x in enumerate(row)), Fraction(0))
             for c in range(len(b[0]))] for row in a]


def unimodular(rng: random.Random, n: int, shear: Tuple[int, int]
               ) -> Tuple[List[List[Fraction]], List[List[Fraction]]]:
    """A determinant-1 matrix g = E D and its inverse: the fixed shear E
    (basis vector `shear[1]` gains basis vector `shear[0]`) after seeded
    signs D = diag(+-1) with an even number of minus signs.

    One shear mixes two basis vectors, which makes the input differ from
    the canonical one but brings in little fill-in and no coefficient
    growth. The seed only flips signs, which changes the structure
    constants but neither the sparsity nor the order of the basis, so the
    elimination does the same work for every seed."""
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    if signs.count(-1) % 2:
        signs[0] = -signs[0]
    d = [[Fraction(signs[r] if r == c else 0) for c in range(n)]
         for r in range(n)]
    i, j = shear
    e = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    e_inv = [row[:] for row in e]
    e[i][j] = Fraction(1)
    e_inv[i][j] = Fraction(-1)
    return _matmul(e, d), _matmul(d, e_inv)


def conjugate(alg: dict, g: List[List[Fraction]],
              ginv: List[List[Fraction]]) -> dict:
    """Structure constants in the basis formed by the columns of g."""
    n = alg["dim"]
    cols = [{r: g[r][c] for r in range(n) if g[r][c]} for c in range(n)]
    mult: Table = {}
    for i in range(n):
        for j in range(n):
            coords = _apply(ginv, _product(alg, cols[i], cols[j]))
            if coords:
                mult[(i, j)] = coords
    unit = _apply(ginv, alg["unit"]) if alg["unit"] is not None else None
    return _algebra(n, mult, unit, [f"v{i}" for i in range(n)])


def algebra_json(alg: dict) -> dict:
    """The `--algebra` file format of the exacthom CLI."""
    mult = [[i, j, k, v.numerator, v.denominator]
            for (i, j) in sorted(alg["mult"])
            for k, v in sorted(alg["mult"][(i, j)].items())]
    unit = None
    if alg["unit"] is not None:
        unit = [[alg["unit"].get(i, Fraction(0)).numerator,
                 alg["unit"].get(i, Fraction(0)).denominator]
                for i in range(alg["dim"])]
    return {"dim": alg["dim"], "basis": alg["names"], "mult": mult,
            "unit": unit}


# -- matrix Lie algebras -----------------------------------------------------------


def gl_bracket(alg: dict, n: int) -> Table:
    """[E_ij (x) a, E_kl (x) b] = d_jk E_il (x) ab - d_li E_kj (x) ba on the
    basis index (i * n + j) * dim A + c."""
    d = alg["dim"]

    def idx(i: int, j: int, c: int) -> int:
        return (i * n + j) * d + c

    table: Table = {}
    for i, j, c, k, l, e in product(range(n), range(n), range(d),
                                    range(n), range(n), range(d)):
        out: Dict[int, Fraction] = {}
        if j == k:
            for t, x in alg["mult"].get((c, e), {}).items():
                out[idx(i, l, t)] = out.get(idx(i, l, t), Fraction(0)) + x
        if l == i:
            for t, x in alg["mult"].get((e, c), {}).items():
                out[idx(k, j, t)] = out.get(idx(k, j, t), Fraction(0)) - x
        out = {z: x for z, x in out.items() if x}
        if out:
            table[(idx(i, j, c), idx(k, l, e))] = out
    return table


def signed_permutation(table: Table, dim: int, order_rng: random.Random,
                       sign_rng: random.Random) -> Table:
    """The same bracket in the basis f_i = s_i e_p(i) for a permutation p
    drawn from `order_rng` and signs s drawn from `sign_rng`.

    The order of the basis decides the elimination's pivots, and with them
    its cost (20% apart between two orders of gl_4(Q)); the signs change
    the input but not the cost. So a workload draws the order from a
    fixed generator and the signs from its seed."""
    perm = list(range(dim))
    order_rng.shuffle(perm)
    signs = [sign_rng.choice((-1, 1)) for _ in range(dim)]
    where = {p: i for i, p in enumerate(perm)}
    out: Table = {}
    for i in range(dim):
        for j in range(dim):
            br = table.get((perm[i], perm[j]))
            if br:
                out[(i, j)] = {where[k]: x * signs[i] * signs[j]
                               * signs[where[k]] for k, x in br.items()}
    return out


def lie_json(table: Table, dim: int) -> dict:
    """The `--lie` file format of the exacthom CLI."""
    bracket = [[i, j, k, v.numerator, v.denominator]
               for (i, j) in sorted(table)
               for k, v in sorted(table[(i, j)].items())]
    return {"dim": dim, "basis": [f"g{i}" for i in range(dim)],
            "bracket": bracket}


# -- covers with the extension-by-zero cosheaf ---------------------------------------


def cover_json(shape: random.Random, labels: random.Random, points: int,
               members: int) -> dict:
    """A cover of `points` points by `members` subsets, with every iterated
    intersection stored, carrying the functions-with-extension-by-zero
    cosheaf. Its Cech homology is the point count in degree 0 and zero
    above, whatever the cover.

    `shape` draws the subsets; `labels` then renames the points and
    reorders the members, which changes the input but not its cost."""
    while True:
        sets = [set(shape.sample(range(points), shape.randint(2, points - 1)))
                for _ in range(members)]
        if (len({frozenset(s) for s in sets}) == members
                and set().union(*sets) == set(range(points))):
            break
    rename = list(range(points))
    labels.shuffle(rename)
    labels.shuffle(sets)
    cover = [tuple(sorted(rename[p] for p in s)) for s in sets]
    stored = set(cover)
    for r in range(2, members + 1):
        for combo in combinations(cover, r):
            stored.add(tuple(sorted(set.intersection(*map(set, combo)))))
    stored.add(tuple(range(points)))
    opens = sorted(stored, key=lambda t: (len(t), t))
    extensions = []
    for a, small in enumerate(opens):
        for b, big in enumerate(opens):
            if a != b and set(small) < set(big):
                pos = {pt: r for r, pt in enumerate(big)}
                extensions.append([a, b, sorted([pos[pt], c, 1, 1]
                                                for c, pt in enumerate(small))])
    return {"points": points, "opens": [list(op) for op in opens],
            "cover": [opens.index(c) for c in cover],
            "precosheaf": {"dims": {str(i): len(op)
                                    for i, op in enumerate(opens)},
                           "extensions": extensions}}
