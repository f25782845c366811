"""Stable comparison between matrix Lie homology and cyclic homology, over Q.

The pieces, bottom up:

* ``all_permutations`` / ``partitions`` / ``weight_vector``: a small
  combinatorial kit (symmetric group elements as image tuples in
  lexicographic order, integer partitions in reverse-lexicographic order,
  padded weight tuples). Every permutation and wedge sign, in a Specht
  column group, in psi's wedge of tensor legs and in ``_koszul_sort`` of
  the cyclic wedge, is ``lie_homology.wedge_sort``'s.
* ``specht_module``: the irreducible symmetric-group module attached to a
  partition, built from polytabloids over tabloids through one column group
  of the shape, with its dimension computed three independent ways
  (standard tableau count, hook lengths, rank of the full polytabloid span)
  and its action matrices verified to respect composition on every pair,
  through the identity and the adjacent transpositions.
* ``trace_invariant_map``: the cycle-wise trace pairing from the k-fold
  tensor power of n x n matrices to the group algebra of the symmetric
  group, built from its nonzero entries alone: sigma pairs with the tensors
  whose leg t is E_{r_t, r_sigma(t)}, one per row tuple r. It kills the
  conjugation-action relations (checked exactly, as one product),
  commutes with the two symmetric-group actions (place permutation on
  tensor legs, conjugation on the group algebra; checked by moving phi's
  nonzero entries through their index maps), and is a bijection on
  coinvariants exactly when n >= k. Each tensor of nonzero Cartan weight is
  a relation, so only weight-0 relations are ranked, and of those only the
  n - 1 simple lowering relations f_i . x, x of weight e_i - e_(i+1): the
  tensor power is completely reducible, and the weight-0 space of a
  nontrivial irreducible lies in the sum of the f_i images, so they span
  every weight-0 relation. The check reads the coinvariant dimension off
  their rank; the inverse map reads the same elimination and, when the
  pairing is bijective, sections the quotient by the weight-0 tensors off
  its pivot columns (RREF's, as the column sweep is fixed).
* ``cyclic_wedge_complex``: the free graded-commutative algebra on the
  cyclic quotient complex shifted up by one (a class in cyclic degree j-1
  becomes a generator of wedge degree j; odd generators square to zero,
  even generators are polynomial), with the graded-Leibniz extension of the
  induced cyclic boundary.
* ``theta_map``: the explicit degreewise identification from that wedge
  complex to signed symmetric-group coinvariants of (group algebra tensor
  A-tensor-power) spaces, read off signed orbits with no elimination. Their
  boundary is the matrix Lie boundary moved there per section column, with
  no gl_n(A) built; the chain-map verification ties the two sides together.
* weight machinery, one Cartan weight block at a time (``WeightBlocks``):
  the wedge tuples of one weight (``weight_tuples``, a pruned depth-first
  search), and scalar gl_n's operators e_rs from block mu to block
  mu + eps_r - eps_s only, each built once per report from the generator
  action, which each report validates once; no matrix of a whole wedge
  power is built. A highest-weight space is the kernel of the simple
  raising operators on its block. The submodule it generates is walked
  down the root lattice (``generated_layers``): its part at nu is the
  span of the simple lowering images of its parts at nu + alpha_i.
  ``weight_decomposition_report`` sums the components' dimensions, and
  ranks their joint span block by block. psi is the row-chain embedding
  into a highest-weight space, with its restriction check: a psi column
  lies in that space exactly when it has no entry off block mu and every
  simple raising operator kills it. A psi term is a tuple of gl_n(A)
  legs, one row chain E_{r_t, r_(t+1)} (x) leg_t per block
  (``_row_chains``), with coefficient 1.
* ``lqt_stable_check``: the dimension comparison between the Lie homology
  of gl_n(A) and the free graded-commutative closure of cyclic homology,
  in the stable range r+1 <= n (unital) or 2r+1 <= n (bar-acyclic
  non-unital). For unital A it builds only the Cartan weight-0 block of
  the Lie chains (``weight_zero_tuples``, sized by ``weight_zero_count``).
* ``xi``: the closed form of the stable-range boundary sequence
  0, 1, ..., n-1, n, n+1, n, n+1, ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .assoc_homology import (StructureConstantAlgebra, connes_quotient_complex,
                             h_unitality_report, tensor_rank, tensor_unrank)
from .complexes import (ChainComplex, ChainMap, betti_numbers,
                        verify_chain_map)
from .exactlin import (QuotientStructure, SparseMatrix, Vec, guard_ambient,
                       inverse, kernel_basis, pivot_columns, rank, rref,
                       signed_orbit_quotient, solve_matrix, vec_clean)
from .lie_homology import (ExteriorBasis, LieModuleAction, ce_complex,
                           ce_complex_on, gl_index, gl_n_of,
                           gln_generator_action, guard_exterior_powers,
                           scalar_matrix_generator_action,
                           wedge_derivation_matrix, wedge_sort)


# -- permutations --------------------------------------------------------------


# A permutation of {0, ..., k-1} is its image tuple: p[i] is the image of i.


@lru_cache(maxsize=None)
def _perms(k: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(iter_permutations(range(k)))


@lru_cache(maxsize=None)
def _perm_index(k: int) -> Dict[Tuple[int, ...], int]:
    """Position of each permutation in `_perms(k)`."""
    return {p: i for i, p in enumerate(_perms(k))}


def all_permutations(k: int) -> List[Tuple[int, ...]]:
    """The symmetric group on k letters, lexicographic by image tuple."""
    return list(_perms(k))


# -- partitions and weights ----------------------------------------------------


def _check_partition(alpha: Sequence[int]) -> None:
    for i, part in enumerate(alpha):
        if part < 1:
            raise ValueError("partition parts must be positive")
        if i and alpha[i - 1] < part:
            raise ValueError("partition parts must be weakly decreasing")


def partitions(m: int) -> List[Tuple[int, ...]]:
    """All partitions of m in reverse-lexicographic order, largest part
    first; partitions(0) == [()]."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out: List[Tuple[int, ...]] = []

    def rec(remaining: int, bound: int, prefix: Tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, bound), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(m, m, ())
    return out


def weight_vector(alpha: Sequence[int], beta: Sequence[int],
                  n: int) -> Tuple[int, ...]:
    """The n-tuple (alpha_1, ..., alpha_l1, 0, ..., 0, -beta_l2, ..., -beta_1);
    defined only when l(alpha) + l(beta) <= n."""
    _check_partition(alpha)
    _check_partition(beta)
    if len(alpha) + len(beta) > n:
        raise ValueError(
            f"combined partition lengths {len(alpha)}+{len(beta)} exceed n={n}")
    out = [0] * n
    for i, part in enumerate(alpha):
        out[i] = part
    for i, part in enumerate(beta):
        out[n - 1 - i] = -part
    return tuple(out)


# -- Specht modules ------------------------------------------------------------


def _rows_from_filling(alpha: Tuple[int, ...],
                       filling: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    rows = []
    pos = 0
    for r in alpha:
        rows.append(tuple(filling[pos:pos + r]))
        pos += r
    return tuple(rows)


def _tabloid_key(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(sorted(r)) for r in rows)


def _column_group(alpha: Tuple[int, ...]) -> List[Tuple[int, Tuple[int, ...]]]:
    """All column-preserving permutations of the shape's cells (numbered row
    by row), as (sign, cells) pairs: the moved filling reads f[cells[c]] at
    cell c."""
    starts = [sum(alpha[:i]) for i in range(len(alpha))]
    per_col = []
    for j in range(alpha[0]):
        col = [s + j for s, r in zip(starts, alpha) if r > j]
        per_col.append([tuple(zip(col, q)) for q in iter_permutations(col)])
    out = []
    for combo in iter_product(*per_col):
        cells = dict(pair for pairs in combo for pair in pairs)
        moved = tuple(cells[c] for c in range(len(cells)))
        # a permutation's sign is its image tuple's exterior sign
        out.append((wedge_sort(moved)[0], moved))
    return out


def _polytabloid(alpha: Tuple[int, ...], filling: Sequence[int], group,
                 tabloid_index: Mapping) -> Vec:
    """Signed sum over the column group of the tabloid classes of the
    moved flat filling."""
    acc: Vec = {}
    for sign, cells in group:
        moved = [filling[c] for c in cells]
        idx = tabloid_index[_tabloid_key(_rows_from_filling(alpha, moved))]
        acc[idx] = acc.get(idx, 0) + sign
    return vec_clean(acc)


def _hook_length_dim(alpha: Tuple[int, ...]) -> int:
    m = sum(alpha)
    prod = 1
    for i, row_len in enumerate(alpha):
        for j in range(row_len):
            arm = row_len - j - 1
            leg = sum(1 for i2 in range(i + 1, len(alpha)) if alpha[i2] > j)
            prod *= arm + leg + 1
    return math.factorial(m) // prod


@dataclass(frozen=True)
class SpechtModule:
    """Irreducible symmetric-group module for a partition, in the polytabloid
    basis indexed by standard tableaux.

    ``action[i]`` is the matrix of the i-th permutation in
    ``all_permutations(m)``; the composition law is verified exactly on
    every pair at construction time, through the generating set of the
    identity and the adjacent transpositions.
    """

    partition: Tuple[int, ...]
    tabloids: Tuple[Tuple[Tuple[int, ...], ...], ...]
    standard_tableaux: Tuple[Tuple[Tuple[int, ...], ...], ...]
    basis: SparseMatrix
    action: Tuple[SparseMatrix, ...]
    hook_length_dim: int
    full_polytabloid_rank: int

    @property
    def dim(self) -> int:
        return self.basis.rows


def specht_module(alpha: Sequence[int]) -> SpechtModule:
    alpha = tuple(alpha)
    _check_partition(alpha)
    m = sum(alpha)
    if m < 1:
        raise ValueError("need a partition of m >= 1")
    guard_ambient("fillings of a partition", math.factorial(m))
    fillings = list(iter_permutations(range(1, m + 1)))
    tabloids = sorted({_tabloid_key(_rows_from_filling(alpha, f))
                       for f in fillings})
    t_index = {t: i for i, t in enumerate(tabloids)}
    group = _column_group(alpha)

    def is_standard(rows) -> bool:
        cols = [[row[j] for row in rows if len(row) > j]
                for j in range(alpha[0])]
        return all(list(line) == sorted(line) for line in list(rows) + cols)

    def polytabloids(fs) -> SparseMatrix:
        return SparseMatrix.from_rows(
            [_polytabloid(alpha, f, group, t_index) for f in fs],
            len(tabloids))

    syt = [f for f in fillings if is_standard(_rows_from_filling(alpha, f))]
    basis = polytabloids(syt)
    if rank(basis) != len(syt):
        raise AssertionError("standard polytabloids are not independent")
    full_rank = rank(polytabloids(fillings))
    perms = all_permutations(m)
    dim = len(syt)  # one solve; perms[i]'s matrix is column block i
    images = polytabloids([tuple(p[e - 1] + 1 for e in f)
                           for p in perms for f in syt])
    coords = solve_matrix(basis.transpose(), images.transpose())
    if coords is None:
        raise AssertionError("permuted polytabloid left the standard span")
    action = [coords.select(range(dim), range(i * dim, (i + 1) * dim))
              for i in range(len(perms))]
    # The law A[p] A[q] == A[p o q] (A = action) is checked for p the
    # identity or an adjacent transposition s, and every q. That is the law
    # on all pairs: for p = s o p', A[p] A[q] = A[s] A[p'] A[q] =
    # A[s] A[p' o q] = A[p o q] by induction on word length from the
    # identity; the converse is trivial.
    pidx = _perm_index(m)
    ident = tuple(range(m))
    gens = [ident] + [ident[:i] + (i + 1, i) + ident[i + 2:]
                      for i in range(m - 1)]
    for p in gens:
        i = pidx[p]
        for j, q in enumerate(perms):
            if action[i] @ action[j] != action[pidx[tuple(p[x] for x in q)]]:
                raise AssertionError(
                    f"action matrices break composition at pair ({i},{j})")
    return SpechtModule(alpha, tuple(tabloids),
                        tuple(_rows_from_filling(alpha, f) for f in syt),
                        basis, tuple(action), _hook_length_dim(alpha),
                        full_rank)


# -- the trace pairing on matrix tensor powers ---------------------------------


@lru_cache(maxsize=1)
def trace_invariant_matrix(n: int, k: int) -> SparseMatrix:
    """Matrix (k! rows, n^(2k) columns) of the map sending a basis tensor of
    elementary matrices to the sum of the permutations sigma whose cycle
    traces survive on it: those with leg t equal to E_{r_t, r_sigma(t)} for
    some rows r in [n]^k, so each of the k! * n^k entries is listed once.
    Its k! * n^(2k) cells are guarded before any permutation is listed;
    the last one built is kept for the checks that follow on one (n, k)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    dim = n * n
    amb = dim ** k
    guard_ambient("trace pairing matrix", math.factorial(k) * amb)
    perms = _perms(k)
    entries: Dict[Tuple[int, int], Fraction] = {}
    for pi, p in enumerate(perms):
        for r in iter_product(range(n), repeat=k):
            cidx = 0
            for t in range(k):
                cidx = cidx * dim + r[t] * n + r[p[t]]
            entries[(pi, cidx)] = 1
    return SparseMatrix(len(perms), amb, entries)


def _trace_relations(n: int, k: int) -> Tuple[List[int], List[Vec]]:
    """The conjugation relations on the k-fold tensor power of n x n
    matrices: the basis tensors x of nonzero Cartan weight, each a relation
    by itself (e_rr scales x by its weight at r), and one row f_i . x per x
    of weight alpha_i = e_i - e_(i+1), i < n - 1, with f_i = e_(i+1,i) the
    simple lowering operators; f_i . x has weight 0.

    These span all relations. The tensor power W is a completely reducible
    gl_n-module. A trivial summand has gW = 0; in a nontrivial irreducible
    V = U(n^-)v_lambda the weight-0 space lies in n^-V = sum_i f_i V (PBW),
    so (gW)_0 = sum_i f_i W_(alpha_i), which also holds every e_rs . x of
    weight 0. With n = 1 there are none.

    Weights are read off integer codes: leg E_ij has code B^i - B^j with
    B = 2k + 1, a tensor the sum over its legs, so a weight with entries in
    [-k, k] has exactly one code and weight 0 has code 0."""
    dim = n * n
    base = 2 * k + 1
    leg_codes = [base ** i - base ** j for i in range(n) for j in range(n)]
    codes = [0]
    for _ in range(k):
        codes = [c + lc for c in codes for lc in leg_codes]
    lowering = {base ** i - base ** (i + 1):
                [scalar_matrix_generator_action(n, 1, i + 1, i)(leg)
                 for leg in range(dim)]
                for i in range(n - 1)}
    units = [cidx for cidx, code in enumerate(codes) if code]
    weight_zero: List[Vec] = []
    for cidx, code in enumerate(codes):
        on_leg = lowering.get(code)
        if on_leg is None:
            continue
        legs = tensor_unrank(dim, k, cidx)
        acc: Dict[int, Fraction] = {}
        for t, leg in enumerate(legs):
            for y, coef in on_leg[leg].items():
                key = tensor_rank(dim, legs[:t] + (y,) + legs[t + 1:])
                acc[key] = acc.get(key, 0) + coef
        weight_zero.append(acc)
    return units, weight_zero


def _trace_invariant(n: int, k: int
                     ) -> Tuple[dict, SparseMatrix, List[int], List[int]]:
    """The `trace_invariant_check` report, with what it is read from: phi,
    the tensors of nonzero weight (`units`) and the pivot columns of the
    weight-0 relations. The relations are eliminated once, by a rank
    elimination; its pivot columns are RREF's, since the column sweep is
    fixed, so their count is the relations' rank and the weight-0 tensors
    off them are the free columns of the relation span."""
    phi = trace_invariant_matrix(n, k)
    amb = (n * n) ** k
    units, weight_zero = _trace_relations(n, k)
    relations = SparseMatrix.from_rows(weight_zero, amb)
    pivots = pivot_columns(relations)
    coinvariant_dim = amb - len(units) - len(pivots)
    well_defined = (set(units).isdisjoint(c for _, c in phi.entries)
                    and (phi @ relations.transpose()).is_zero())
    kfac = math.factorial(k)
    phi_rank = rank(phi)
    bijective = (well_defined and coinvariant_dim == kfac
                 and phi_rank == kfac)
    expected = n >= k
    report = {"check": "trace_invariant_map",
              "params": {"n": n, "k": k},
              "lhs_dims": [coinvariant_dim],
              "rhs_dims": [kfac],
              "well_defined": well_defined,
              "phi_rank": phi_rank,
              "bijective": bijective,
              "expected_bijective": expected,
              "verdict": bool(well_defined and bijective == expected),
              "seed": 0}
    return report, phi, units, pivots


def trace_invariant_map(
        n: int, k: int) -> Tuple[SparseMatrix, Optional[SparseMatrix]]:
    """The trace pairing matrix, plus a right inverse through the
    coinvariant quotient when the pairing is bijective there (n >= k);
    otherwise None. Read from the elimination behind
    `trace_invariant_check`; AssertionError when the pairing fails to kill
    a relation.

    The inverse I = S @ inverse(phi @ S) sections the quotient by S, a
    single 1 on each weight-0 tensor off the pivots of the weight-0
    relations: the free columns of the relation span, as each tensor of
    nonzero weight is a relation. phi @ I == identity on the group algebra
    and I @ phi == identity modulo the relation span.
    """
    report, phi, units, pivots = _trace_invariant(n, k)
    if not report["well_defined"]:
        raise AssertionError(
            "trace pairing fails to kill a conjugation relation")
    if not report["bijective"]:
        return phi, None
    amb = (n * n) ** k
    bound = set(units).union(pivots)
    free = [c for c in range(amb) if c not in bound]
    section = SparseMatrix(amb, len(free),
                           {(c, j): 1 for j, c in enumerate(free)})
    return phi, section @ inverse(phi @ section)


def trace_invariant_check(n: int, k: int) -> dict:
    """Exact verification that the trace pairing kills the conjugation
    relations, with the coinvariant dimension, the pairing's rank, and
    whether bijectivity on coinvariants matches the stable-range prediction
    n >= k.

    Read from ranks, with no relation span built: the coinvariant dimension
    is n^(2k) minus the tensors of nonzero weight minus the rank of the
    weight-0 relations, and phi kills the relations iff it has no entry on
    a column of nonzero weight and phi @ relations^T is zero. The weight-0
    relations ranked are the n - 1 simple lowering relations f_i . x only,
    which span them all since the tensor power is completely reducible
    (see `_trace_relations`)."""
    return _trace_invariant(n, k)[0]


def equivariance_check(n: int, k: int) -> dict:
    """Exact check of phi(sigma . g) == sigma phi(g) sigma^{-1} for every
    sigma and basis tensor g. Conjugation on the group algebra and place
    permutation on tensor legs are bijections, so this holds iff moving
    each of phi's k! * n^k entries (r, c) to (conj_sigma(r), place_sigma(c))
    gives back phi's entries. phi is the only matrix built. The guard still
    counts k! * (k! + n^(2k)) conjugations and columns, the size of a
    column-by-column comparison, and is checked first."""
    guard_ambient("phi equivariance conjugations and columns",
                  math.factorial(k) * (math.factorial(k) + n ** (2 * k)))
    phi = trace_invariant_matrix(n, k)
    perms = _perms(k)
    pidx = _perm_index(k)
    dim = n * n
    legs = {c: tensor_unrank(dim, k, c) for _, c in phi.entries}
    failures = []
    for s in perms:
        s_inv = [s.index(x) for x in range(k)]
        conj = [pidx[tuple(s[t[x]] for x in s_inv)] for t in perms]
        place = {c: tensor_rank(dim, [ls[t] for t in s_inv])
                 for c, ls in legs.items()}
        if {(conj[r], place[c]): v
                for (r, c), v in phi.entries.items()} != phi.entries:
            failures.append(list(s))
    return {"check": "phi_equivariance",
            "params": {"n": n, "k": k},
            "lhs_dims": [len(perms)],
            "rhs_dims": [len(perms)],
            "failures": failures,
            "verdict": not failures,
            "seed": 0}


# -- the graded wedge on cyclic chains (domain of theta) ------------------------


@dataclass(frozen=True)
class CyclicWedgeModel:
    """Free graded-commutative algebra on the cyclic quotient complex shifted
    up by one, together with the data needed to unfold its monomials.

    A cyclic class in chain degree j-1 contributes a generator (j, t) of
    wedge degree j; monomials are sorted tuples of generators, odd-degree
    generators never repeating. ``cyclic_quots[j-1].section`` picks the
    canonical tensor representative of class t.
    """

    algebra: StructureConstantAlgebra
    max_degree: int
    complex: ChainComplex
    monomials: Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], ...]
    generator_counts: Tuple[int, ...]
    cyclic_quots: Tuple[QuotientStructure, ...]


def _koszul_sort(
        seq: Sequence[Tuple[int, int]]
) -> Optional[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """Sort (degree, index) generators with the graded sign rule: even
    generators commute with everything, so the sign is the `wedge_sort`
    sign of the odd generators alone; None when an odd generator repeats."""
    odd = wedge_sort([x for x in seq if x[0] % 2])
    return None if odd is None else (odd[0], tuple(sorted(seq)))


def cyclic_wedge_complex(a: StructureConstantAlgebra,
                         max_degree: int) -> CyclicWedgeModel:
    """Build the graded wedge on shifted cyclic chains through max_degree,
    with the graded-Leibniz extension of the cyclic boundary."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if max_degree >= 1:
        conn, quots = connes_quotient_complex(a, max_degree - 1)
        gen_counts = [0] + [conn.dims[j - 1] for j in range(1, max_degree + 1)]
    else:
        conn, quots = None, []
        gen_counts = [0]
    gens = [(j, t) for j in range(1, max_degree + 1)
            for t in range(gen_counts[j])]
    per_degree: List[List[Tuple[Tuple[int, int], ...]]] = \
        [[] for _ in range(max_degree + 1)]

    # one frame per monomial slot; gens is sorted by degree
    def rec(start: int, deg: int, mono: Tuple[Tuple[int, int], ...]):
        per_degree[deg].append(mono)
        for i in range(start, len(gens)):
            j = gens[i][0]
            if deg + j > max_degree:
                break
            rec(i + j % 2, deg + j, mono + (gens[i],))

    rec(0, 0, ())
    monomials = tuple(tuple(sorted(per_degree[d]))
                      for d in range(max_degree + 1))
    index = [{mono: i for i, mono in enumerate(monomials[d])}
             for d in range(max_degree + 1)]
    dims = tuple(len(monomials[d]) for d in range(max_degree + 1))
    diffs: Dict[int, SparseMatrix] = {}
    for d in range(1, max_degree + 1):
        entries: Dict[Tuple[int, int], Fraction] = {}
        for ci, mono in enumerate(monomials[d]):
            prefix_sign = 1
            for pos, (j, t) in enumerate(mono):
                if j >= 2:
                    for s, coef in conn.d(j - 1).column(t).items():
                        res = _koszul_sort(
                            mono[:pos] + ((j - 1, s),) + mono[pos + 1:])
                        if res is None:
                            continue
                        sg, target = res
                        key = (index[d - 1][target], ci)
                        entries[key] = (entries.get(key, 0)
                                        + prefix_sign * sg * coef)
                if j % 2:
                    prefix_sign = -prefix_sign
        diffs[d] = SparseMatrix(dims[d - 1], dims[d], entries)
    cx = ChainComplex(dims, diffs, truncated=True)
    return CyclicWedgeModel(a, max_degree, cx, monomials, tuple(gen_counts),
                            tuple(quots))


# -- the signed coinvariant target of theta -------------------------------------


def signed_group_tensor_coinvariants(a: StructureConstantAlgebra,
                                     k: int) -> QuotientStructure:
    """Coinvariants of (group algebra of Sigma_k) tensor A^(x)k under the
    signed simultaneous action: sigma sends (tau, legs) to
    sign(sigma) (sigma tau sigma^{-1}, legs moved by place permutation).

    Read off the orbits of the adjacent transpositions, signed permutations
    of the basis, after k! * dim(A)^k is guarded. Basis index is
    perm_index * dim(A)^k + tensor_index.
    """
    tdim = a.dim ** k
    amb = math.factorial(k) * tdim
    guard_ambient("signed permutation-tensor space", amb)
    pidx = _perm_index(k)
    gens = []
    for i in range(k - 1):
        swapped = [tensor_rank(a.dim, t[:i] + (t[i + 1], t[i]) + t[i + 2:])
                   for t in (tensor_unrank(a.dim, k, x) for x in range(tdim))]
        s = {i: i + 1, i + 1: i}  # s t s: swap two places, then two values
        conj = [pidx[tuple(s.get(v, v) for v in t[:i] + (t[i + 1], t[i])
                           + t[i + 2:])] * tdim for t in pidx]
        gens.append(SparseMatrix(amb, amb, {
            (conj[ti] + swapped[x], ti * tdim + x): -1
            for ti in range(len(conj)) for x in range(tdim)}))
    return signed_orbit_quotient(amb, gens)


@dataclass(frozen=True)
class GroupTensorModel:
    """Signed coinvariant spaces per degree with the boundary transported
    from the matrix Lie complex through the trace identification."""

    algebra: StructureConstantAlgebra
    n: int
    max_degree: int
    complex: ChainComplex
    quots: Tuple[QuotientStructure, ...]


def _theta_section(a_dim: int, k: int, f: int) -> List[Tuple[int, int, int]]:
    """s(tau, legs) for the coordinate f: the wedge of the (row, column, leg)
    generators E_{i,tau(i)} (x) legs[i], i = 0..k-1, in this order."""
    pi, tens = divmod(f, a_dim ** k)
    return list(zip(range(k), _perms(k)[pi],
                    tensor_unrank(a_dim, k, tens)))


def _theta_identification(a_dim: int,
                          xs: Sequence[Tuple[int, int, int]]) -> int:
    """J of an ordered tuple of (row, column, leg) generators whose rows are
    distinct and are its columns: the coordinate (sigma, legs), where sigma
    sends a position to the one whose row is its column."""
    where = {row: p for p, (row, _, _) in enumerate(xs)}
    sigma = tuple(where[col] for _, col, _ in xs)
    return (_perm_index(len(xs))[sigma] * a_dim ** len(xs)
            + tensor_rank(a_dim, tuple(leg for _, _, leg in xs)))


def theta_codomain_model(a: StructureConstantAlgebra,
                         max_degree: int) -> GroupTensorModel:
    """The target of theta at n = max(1, max_degree): the spaces
    `signed_group_tensor_coinvariants(a, k)`, k <= max_degree, all guarded
    (k! * dim(A)^k) before any is built. On each section column the boundary
    is d_k = proj_{k-1} o J o d_CE o s, with s = `_theta_section`,
    J = `_theta_identification` and d_CE the pair formula of `ce_complex_on`
    for [E_ab (x) al, E_cd (x) be] = delta_bc E_ad (x) al be
    - delta_da E_cb (x) be al. As J o s = id (J reads tau off s(tau, legs)),
    this is the coinvariant Lie boundary of gl_n(A) conjugated by J.
    `lqt_stable_check` must not read `lhs` from this model: theta proves it
    isomorphic to the cyclic wedge complex, the right-hand side."""
    n = max(1, max_degree)
    for k in range(max_degree + 1):
        guard_ambient("signed permutation-tensor space",
                      math.factorial(k) * a.dim ** k)
    quots = [signed_group_tensor_coinvariants(a, k)
             for k in range(max_degree + 1)]
    diffs: Dict[int, SparseMatrix] = {}
    for k in range(1, max_degree + 1):
        entries: Dict[Tuple[int, int], Fraction] = {}
        for f, ci in quots[k].section.entries:
            xs = _theta_section(a.dim, k, f)
            acc: Dict[int, Fraction] = {}
            for ii, jj in combinations(range(k), 2):
                pair_sign = 1 if (ii + jj) % 2 else -1
                rest = xs[:ii] + xs[ii + 1:jj] + xs[jj + 1:]
                for sign, (r1, c1, l1), (r2, c2, l2) in (
                        (pair_sign, xs[ii], xs[jj]),
                        (-pair_sign, xs[jj], xs[ii])):
                    if c1 != r2:
                        continue
                    for t, coef in a.mult.get((l1, l2), {}).items():
                        key = _theta_identification(a.dim,
                                                    [(r1, c2, t)] + rest)
                        acc[key] = acc.get(key, 0) + sign * coef
            for r, v in quots[k - 1].projection.apply(acc).items():
                entries[(r, ci)] = v
        diffs[k] = SparseMatrix(quots[k - 1].dim, quots[k].dim, entries)
    wcx = ChainComplex(tuple(q.dim for q in quots), diffs, truncated=True)
    return GroupTensorModel(a, n, max_degree, wcx, tuple(quots))


def _block_cycle_permutation(mono: Tuple[Tuple[int, int], ...],
                             degree: int) -> Tuple[int, ...]:
    """Product of disjoint full cycles, one per monomial block, on
    consecutive leg positions."""
    images = list(range(degree))
    pos = 0
    for (j, _t) in mono:
        for p in range(pos, pos + j - 1):
            images[p] = p + 1
        images[pos + j - 1] = pos
        pos += j
    return tuple(images)


def _theta_pipeline(a: StructureConstantAlgebra, max_degree: int):
    """Build the codomain first, so its guard runs before any work, then the
    domain and theta; returns (chain_map, domain, codomain, report)."""
    cod = theta_codomain_model(a, max_degree)
    dom = cyclic_wedge_complex(a, max_degree)
    comps: Dict[int, SparseMatrix] = {}
    # each section column is a unit coordinate: a class's representative
    reps = [{t: f for f, t in q.section.entries} for q in dom.cyclic_quots]
    for deg in range(max_degree + 1):
        pidx = _perm_index(deg)
        entries: Dict[Tuple[int, int], Fraction] = {}
        for mi, mono in enumerate(dom.monomials[deg]):
            ti = 0
            for (j, t) in mono:
                ti = ti * a.dim ** j + reps[j - 1][t]
            col = pidx[_block_cycle_permutation(mono, deg)] * a.dim ** deg + ti
            for r, v in cod.quots[deg].projection.column(col).items():
                entries[(r, mi)] = v
        comps[deg] = SparseMatrix(cod.complex.dims[deg],
                                  dom.complex.dims[deg], entries)
    f = ChainMap(dom.complex, cod.complex, comps)
    report = verify_chain_map(f)
    return f, dom, cod, report


def theta_map(a: StructureConstantAlgebra, max_degree: int) -> ChainMap:
    """The explicit comparison map: a monomial of cyclic classes goes to the
    class of (product of disjoint block cycles) tensor (concatenated
    canonical representatives). Verified as a chain map; raises on failure."""
    f, _dom, _cod, report = _theta_pipeline(a, max_degree)
    if not report["ok"]:
        raise AssertionError(
            f"chain-map identity failure: {report['failures'][:3]}")
    return f


def theta_check(a: StructureConstantAlgebra, max_degree: int) -> dict:
    """Report: theta intertwines the boundaries and is degreewise bijective."""
    f, dom, cod, report = _theta_pipeline(a, max_degree)
    bijective = []
    for deg in range(max_degree + 1):
        m = f.component(deg)
        bijective.append(bool(m.rows == m.cols and rank(m) == m.rows))
    return {"check": "theta_chain_iso",
            "params": {"algebra_dim": a.dim, "max_degree": max_degree,
                       "n": cod.n},
            "lhs_dims": list(dom.complex.dims),
            "rhs_dims": list(cod.complex.dims),
            "chain_map": report["ok"],
            "chain_map_failures": report["failures"],
            "bijective_degrees": bijective,
            "verdict": bool(report["ok"] and all(bijective)),
            "seed": 0}


# -- weight decomposition --------------------------------------------------------


Weight = Tuple[int, ...]


def weight_zero_count(n: int, a_dim: int, k: int) -> int:
    """Number of weight-0 k-tuples of gl_n(A) generators, dim A = a_dim,
    counted without enumerating a tuple.

    A DP over the off-diagonal positions, in order of their smaller index i:
    once the pairs (i, j), (j, i) with j > i are taken, the weight at i is
    final and must be 0, so a state is (size, weights at the indices not yet
    final). One generator moves |w|_1 by at most 2, so a state with |w|_1
    above twice the slots left is dropped. The n * a_dim diagonal generators
    have weight 0 and fill the slots left at the end. The work grows fast
    with k, so a guard counts one degree at a time and stops at the first
    one over its limit."""
    # ways[m1 - m2][m1 + m2]: choices of m1 legs at (i, j) and m2 at (j, i)
    ways: Dict[int, Dict[int, int]] = {}
    for m1 in range(a_dim + 1):
        for m2 in range(a_dim + 1):
            by_size = ways.setdefault(m1 - m2, {})
            by_size[m1 + m2] = (by_size.get(m1 + m2, 0)
                                + math.comb(a_dim, m1) * math.comb(a_dim, m2))
    states: Dict[Tuple[int, Tuple[int, ...]], int] = {(0, (0,) * n): 1}
    for i in range(n):
        # weights are stored from index i on, so j - i is the slot of j
        for slot in range(1, n - i):
            grown: Dict[Tuple[int, Tuple[int, ...]], int] = {}
            for (size, w), count in states.items():
                for delta, by_size in ways.items():
                    moved = list(w)
                    moved[0] += delta
                    moved[slot] -= delta
                    l1 = sum(map(abs, moved))
                    key_w = tuple(moved)
                    for s, c in by_size.items():
                        if l1 <= 2 * (k - size - s):
                            key = (size + s, key_w)
                            grown[key] = grown.get(key, 0) + count * c
            states = grown
        states = {(size, w[1:]): count for (size, w), count in states.items()
                  if w[0] == 0}
    return sum(count * math.comb(n * a_dim, k - size)
               for (size, _), count in states.items())


def weight_tuples(n: int, a_dim: int, k: int,
                  mu: Sequence[int]) -> List[Tuple[int, ...]]:
    """The increasing k-tuples of gl_n(A) generators, dim A = a_dim, of
    Cartan weight mu, in lexicographic order: the weight-mu sublist of
    `ExteriorBasis(n * n * a_dim, k).tuples`. A leg in matrix position
    (i, j) adds +1 at i and -1 at j. A depth-first search on w - mu, w the
    prefix's weight, that drops a prefix whose |w - mu|_1 is above twice
    the slots left: one generator moves it by at most 2."""
    if len(mu) != n:
        raise ValueError(f"weight {tuple(mu)} has not {n} entries")
    dim = n * n * a_dim
    position = [divmod(x // a_dim, n) for x in range(dim)]
    w = [-x for x in mu]
    prefix: List[int] = []
    out: List[Tuple[int, ...]] = []

    def extend(start: int, left: int, l1: int) -> None:
        if not left:
            out.append(tuple(prefix))
            return
        for x in range(start, dim - left + 1):
            i, j = position[x]
            before = abs(w[i]) + abs(w[j])
            w[i] += 1
            w[j] -= 1
            grown = l1 - before + abs(w[i]) + abs(w[j])
            if grown <= 2 * (left - 1):
                prefix.append(x)
                extend(x + 1, left - 1, grown)
                prefix.pop()
            w[i] -= 1
            w[j] += 1

    l1 = sum(map(abs, w))
    if l1 <= 2 * k:
        extend(0, k, l1)
    return out


def weight_zero_tuples(n: int, a_dim: int, k: int) -> List[Tuple[int, ...]]:
    """`weight_tuples` at weight 0: the chains of the Cartan weight-0 block
    that `lqt_stable_check` builds."""
    return weight_tuples(n, a_dim, k, (0,) * n)


class WeightBlocks:
    """The Cartan weight blocks of the k-th wedge power of gl_n(A), and the
    scalar operators e_rs between them, each built on first use and kept
    for the object's life (one report).

    `gens` is scalar gl_n's action on gl_n(A) (`gln_generator_action`,
    validated when it was built). e_rs maps block mu to block
    mu + eps_r - eps_s, so its matrix has the source block's tuples as
    columns and the target block's as rows (`wedge_derivation_matrix`);
    no matrix of the whole power is built. A block holds its tuples in
    lexicographic order, a subsequence of the whole power's basis, so a
    canonical (RREF) basis in block coordinates is the canonical basis of
    the same subspace in full coordinates."""

    def __init__(self, gens: LieModuleAction, n: int, k: int):
        self.n = n
        self.k = k
        self._gens = gens
        self._a_dim = gens.module_dim // (n * n)
        self._blocks: Dict[Weight, ExteriorBasis] = {}
        self._images: Dict[int, List[Vec]] = {}
        self._operators: Dict[Tuple[int, int, Weight], SparseMatrix] = {}

    def block(self, mu: Sequence[int]) -> ExteriorBasis:
        """The wedge tuples of weight mu (`weight_tuples`)."""
        mu = tuple(mu)
        if mu not in self._blocks:
            self._blocks[mu] = ExteriorBasis(
                self._gens.module_dim, self.k,
                weight_tuples(self.n, self._a_dim, self.k, mu))
        return self._blocks[mu]

    def operator(self, r: int, s: int, mu: Sequence[int]) -> SparseMatrix:
        """e_rs from block mu to block mu + eps_r - eps_s."""
        mu = tuple(mu)
        key = (r, s, mu)
        if key not in self._operators:
            g = r * self.n + s
            if g not in self._images:
                m = self._gens.matrices[g]
                self._images[g] = [m.column(x) for x in range(m.cols)]
            target = list(mu)
            target[r] += 1
            target[s] -= 1
            self._operators[key] = wedge_derivation_matrix(
                self.block(mu), self._images[g].__getitem__,
                self.block(target))
        return self._operators[key]

    def raising(self, mu: Sequence[int]) -> SparseMatrix:
        """The n - 1 simple raising operators e_(i,i+1) on block mu,
        stacked. They are enough: they generate n+ as a Lie algebra, so a
        vector they all kill is killed by every e_ij, i < j. No target
        block is built for an empty block mu."""
        size = len(self.block(mu))
        if not size or self.n == 1:
            return SparseMatrix.zeros(0, size)
        return SparseMatrix.vstack([self.operator(i, i + 1, mu)
                                    for i in range(self.n - 1)])


def highest_weight_space(blocks: WeightBlocks,
                         mu: Sequence[int]) -> SparseMatrix:
    """The vectors of weight mu killed by every raising operator e_ij
    (i < j): the kernel of the simple raising operators on block mu, as
    its canonical (RREF) basis rows in block-mu coordinates."""
    return kernel_basis(blocks.raising(mu))


def generated_layers(blocks: WeightBlocks, mu: Sequence[int],
                     hw: SparseMatrix) -> Dict[Weight, SparseMatrix]:
    """The submodule generated by the highest-weight vectors `hw` (rows in
    block-mu coordinates), weight by weight: {nu: canonical (RREF) basis
    rows of its weight-nu part, in block-nu coordinates}, nonzero parts
    only.

    By PBW, U(gl_n) = U(n-) U(h) U(n+), and U(n+) and U(h) take a
    highest-weight vector v to multiples of v, so U v = U(n-) v. n- is
    generated by the simple lowering operators f_i = e_(i+1,i), which map
    weight nu + alpha_i to nu (alpha_i = eps_i - eps_(i+1)). So the part
    at nu != mu is the span of the f_i images of the parts at nu + alpha_i.
    The walk goes down one level of the root lattice at a time; a part's
    sources are all one level up, so each part is echelonized once."""
    mu = tuple(mu)
    level = {mu: hw} if hw.rows else {}
    layers = dict(level)
    while level:
        images: Dict[Weight, List[SparseMatrix]] = {}
        for nu, basis in level.items():
            for i in range(blocks.n - 1):
                lower = list(nu)
                lower[i] -= 1
                lower[i + 1] += 1
                img = basis @ blocks.operator(i + 1, i, nu).transpose()
                if img.nnz:
                    images.setdefault(tuple(lower), []).append(img)
        level = {nu: rref(SparseMatrix.vstack(parts))[0]
                 for nu, parts in images.items()}
        layers.update(level)
    return layers


def weight_decomposition_report(a: StructureConstantAlgebra, n: int,
                                k: int) -> dict:
    """Report: for every padded weight mu built from a pair of partitions of
    the same m <= k (combined lengths at most n), the submodule generated by
    its highest-weight space inside the k-th wedge power of gl_n(A); these
    components fill the whole wedge power (their dimensions add up to it and
    their joint span has full dimension).

    Each component is walked weight block by weight block
    (`generated_layers`), and the joint span is the direct sum of its
    weight blocks, so its dimension is the sum over blocks nu of the rank
    of every component's part at nu. The wedge power is guarded before any
    tuple is enumerated, and the generator action is validated once."""
    dim = n * n * a.dim
    guard_exterior_powers(dim, [k])
    total = math.comb(dim, k)
    blocks = WeightBlocks(gln_generator_action(a, n), n, k)
    components = []
    parts: Dict[Weight, List[SparseMatrix]] = {}
    for m in range(k + 1):
        for alpha, beta in iter_product(partitions(m), repeat=2):
            if len(alpha) + len(beta) > n:
                continue
            mu = weight_vector(alpha, beta, n)
            hw = highest_weight_space(blocks, mu)
            layers = generated_layers(blocks, mu, hw)
            for nu, basis in layers.items():
                parts.setdefault(nu, []).append(basis)
            components.append({"weight": list(mu), "m": m,
                               "alpha": list(alpha), "beta": list(beta),
                               "highest_dim": hw.rows,
                               "generated_dim": sum(
                                   b.rows for b in layers.values())})
    dim_sum = sum(c["generated_dim"] for c in components)
    span_dim = sum(rank(SparseMatrix.vstack(bases))
                   for bases in parts.values())
    verdict = dim_sum == total and span_dim == total
    return {"check": "weight_decomposition",
            "params": {"n": n, "k": k, "algebra_dim": a.dim},
            "lhs_dims": [dim_sum, span_dim],
            "rhs_dims": [total, total],
            "components": components,
            "verdict": bool(verdict),
            "seed": 0}


# -- row-chain embedding and its highest-weight restriction ---------------------


def _row_chains(n: int, a_dim: int, legs: Sequence[int], first: int,
                last: int) -> List[Tuple[int, ...]]:
    """The gl_n(A) leg tuples of the row chains of one tensor: leg t is
    E_{r_t, r_(t+1)} (x) legs[t], with r_0 = first and r_len = last fixed
    and the inner rows running over [n] in lexicographic order."""
    out = []
    for inner in iter_product(range(n), repeat=len(legs) - 1):
        rows = (first,) + inner + (last,)
        out.append(tuple(gl_index(n, a_dim, rows[t], rows[t + 1], leg)
                         for t, leg in enumerate(legs)))
    return out


def _psi_entries(a: StructureConstantAlgebra, n: int, m: int,
                 dom: CyclicWedgeModel, deg: int
                 ) -> Tuple[Dict[Tuple[Tuple[int, ...], int], int], int]:
    """Psi in degree deg, from the domain basis to the wedge of gl_n(A):
    its nonzero entries keyed by (increasing wedge tuple, domain column),
    and its column count. A term concatenates one leg tuple per block: a
    diagonal row chain (r_0 = r_len) on each monomial block's
    representative, which is one unit section column, and for m = 1 a
    corner chain (0 to n-1) on a marked tensor of the remaining degree.
    Every such tuple is a term with coefficient 1, and its wedge adds its
    sign."""
    reps = [{t: f for f, t in q.section.entries} for q in dom.cyclic_quots]
    diagonal = {
        (j, t): [c for r in range(n)
                 for c in _row_chains(n, a.dim, tensor_unrank(a.dim, j, f),
                                      r, r)]
        for j in range(1, deg + 1) for t, f in reps[j - 1].items()}
    if m == 0:
        terms = [[diagonal[g] for g in mono] for mono in dom.monomials[deg]]
    else:
        terms = [[diagonal[g] for g in mono]
                 + [_row_chains(n, a.dim, legs, 0, n - 1)]
                 for d1 in range(deg) for mono in dom.monomials[d1]
                 for legs in iter_product(range(a.dim), repeat=deg - d1)]
    entries: Dict[Tuple[Tuple[int, ...], int], int] = {}
    for ci, blocks in enumerate(terms):
        for parts in iter_product(*blocks):
            res = wedge_sort(sum(parts, ()))
            if res is not None:
                key = (res[1], ci)
                entries[key] = entries.get(key, 0) + res[0]
    return {key: v for key, v in entries.items() if v}, len(terms)


def psi_restriction_check(a: StructureConstantAlgebra, n: int, m: int,
                          alpha: Sequence[int], beta: Sequence[int],
                          max_degree: int) -> dict:
    """Build the comparison map into the highest-weight space for the padded
    weight mu of (alpha, beta) and verify: (i) its image lies in that space
    in every degree <= max_degree, (ii) it is bijective in degrees <= n/2.

    Only the Cartan weight block mu is built (`WeightBlocks`), with the
    generator action validated once for every degree. A psi column lies in
    the highest-weight space exactly when it has no entry off block mu and
    every simple raising operator kills it, and the space has dimension
    |block mu| minus the rank of those operators.

    Supported marked-block counts: m = 0 (pure monomials of cyclic classes,
    weight zero) and m = 1 (one bar-type block embedded by the corner row
    chain, weight (1, 0, ..., 0, -1)). Larger m would need a sign convention
    for multiple marked blocks that is not pinned down here.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    _check_partition(alpha)
    _check_partition(beta)
    if sum(alpha) != m or sum(beta) != m:
        raise ValueError("alpha and beta must both be partitions of m")
    if len(alpha) + len(beta) > n:
        raise ValueError("combined partition lengths exceed n")
    if m > 1:
        raise ValueError("marked-block count m >= 2 is not supported")
    guard_exterior_powers(n * n * a.dim, range(max_degree + 1))
    mu = weight_vector(alpha, beta, n)
    dom = cyclic_wedge_complex(a, max_degree)
    gens = gln_generator_action(a, n)
    lhs_dims: List[int] = []
    rhs_dims: List[int] = []
    image_ok: List[bool] = []
    bijective: List[bool] = []
    for deg in range(max_degree + 1):
        entries, cols = _psi_entries(a, n, m, dom, deg)
        blocks = WeightBlocks(gens, n, deg)
        raising = blocks.raising(mu)
        # block mu's tuples first, then any tuple psi reaches off the block
        rows = dict(blocks.block(mu).index)
        for tup, _ in entries:
            rows.setdefault(tup, len(rows))
        psi = SparseMatrix(len(rows), cols, {
            (rows[tup], c): v for (tup, c), v in entries.items()})
        on_block = len(rows) == raising.cols
        image_ok.append(bool(on_block and (raising @ psi).is_zero()))
        hw_dim = raising.cols - rank(raising)
        lhs_dims.append(cols)
        rhs_dims.append(hw_dim)
        if deg <= n // 2:
            bijective.append(bool(cols == hw_dim == rank(psi)))
    verdict = all(image_ok) and all(bijective)
    return {"check": "psi_restriction",
            "params": {"n": n, "m": m, "alpha": list(alpha),
                       "beta": list(beta), "max_degree": max_degree,
                       "algebra_dim": a.dim},
            "lhs_dims": lhs_dims,
            "rhs_dims": rhs_dims,
            "image_in_highest_weight": image_ok,
            "bijective_degrees": bijective,
            "verdict": bool(verdict),
            "seed": 0}


# -- free graded-commutative dimensions and the stable check --------------------


def graded_free_commutative_dims(h: Sequence[int],
                                 max_degree: int) -> List[int]:
    """Degreewise dimension of the free graded-commutative algebra on h[j]
    generators in degree j: exterior on odd degrees, polynomial on even
    degrees. h[0] must be 0."""
    if len(h) > 0 and h[0]:
        raise ValueError("degree-0 generators are not allowed")
    if any(x < 0 for x in h):
        raise ValueError("negative generator count")
    series = [0] * (max_degree + 1)
    series[0] = 1
    for j in range(1, min(len(h), max_degree + 1)):
        if j % 2:
            for _ in range(h[j]):
                for d in range(max_degree, j - 1, -1):
                    series[d] += series[d - j]
        else:
            for _ in range(h[j]):
                for d in range(j, max_degree + 1):
                    series[d] += series[d - j]
    return series


def lqt_stable_check(a: StructureConstantAlgebra, n: int,
                     max_r: int) -> dict:
    """Compare matrix Lie homology of gl_n(A) against the free
    graded-commutative algebra on cyclic homology shifted up by one, in the
    stable range: degrees r with r+1 <= n for unital A, 2r+1 <= n for
    non-unital A (where bar-acyclicity is checked and recorded).

    The Lie chains are built only through one degree past the last stable
    degree, since no Betti number above it is read. For unital A only the
    weight-0 block of the Chevalley-Eilenberg complex is built
    (`weight_zero_tuples`): the boundary keeps the Cartan weight, and
    E_ii (x) 1 lies in gl_n(A), so by the Cartan homotopy formula
    (`homotopy_identity_check`) every block of nonzero weight is acyclic.
    Without a unit this fails (for zero multiplication gl_n(A) is abelian
    and H_1 carries every weight), so the h_unital route builds whole
    exterior powers. gl_n(A) is built with no Jacobi walk (`gl_n_of`),
    but its C(dim, 2) bracket pairs and C(dim, 3) Jacobi triples are
    guarded as the validating constructor guards them, and so is each
    chain space (the weight-0 count on the unital route), before gl_n(A)
    is built or any tuple is enumerated."""
    if n < 1 or max_r < 0:
        raise ValueError("need n >= 1 and max_r >= 0")
    dim = n * n * a.dim
    guard_exterior_powers(dim, (2, 3))
    unital = a.unit is not None
    width = 1 if unital else 2
    degrees = [r for r in range(max_r + 1) if width * r + 1 <= n]
    top = degrees[-1] + 1
    if unital:
        for k in range(top + 1):
            guard_ambient(f"weight-0 part of exterior power {k} of a "
                          f"{dim}-dimensional gl_{n}(A)",
                          weight_zero_count(n, a.dim, k))
        route = "unital"
        precondition = True
        hrep = None
        bases = [ExteriorBasis(dim, k, weight_zero_tuples(n, a.dim, k))
                 for k in range(top + 1)]
        lie = ce_complex_on(gl_n_of(a, n), bases)
    else:
        guard_exterior_powers(dim, range(top + 1))
        hrep = h_unitality_report(a, max_r + 2)
        route = "h_unital"
        precondition = hrep["verdict"] == "pass"
        lie = ce_complex(gl_n_of(a, n), top)
    lie_betti = betti_numbers(lie)
    conn, _ = connes_quotient_complex(a, max_r)
    cyclic_betti = betti_numbers(conn)
    h = [0] + cyclic_betti[:max_r]
    rhs_all = graded_free_commutative_dims(h, max_r)
    lhs = [lie_betti[r] for r in degrees]
    rhs = [rhs_all[r] for r in degrees]
    report = {"check": "stable_matrix_homology",
              "params": {"algebra_dim": a.dim, "n": n, "max_r": max_r,
                         "route": route, "unital": unital},
              "degrees": degrees,
              "lhs_dims": lhs,
              "rhs_dims": rhs,
              "cyclic_betti": cyclic_betti,
              "verdict": bool(precondition and lhs == rhs),
              "seed": 0}
    if hrep is not None:
        report["h_unitality"] = hrep
    return report


# -- stable-range boundary sequence ---------------------------------------------


def xi(n: int, k: int) -> int:
    """Closed form min(k, n + ((k - n) mod 2)) of the boundary sequence
    0, 1, ..., n-1, n, n+1, n, n+1, ..."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return min(k, n + ((k - n) % 2))


def xi_sequence(n: int, max_k: int) -> List[int]:
    return [xi(n, k) for k in range(max_k + 1)]
