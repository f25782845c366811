"""Exact sparse linear algebra over the rationals.

Everything downstream (chain complexes, homology, spectral sequences) reduces to
rank / kernel / image / solve computations here, so this module is deliberately
boring: immutable sparse matrices over Q, and a single deterministic elimination
routine that all higher-level operations share. A signed permutation quotient
(`signed_orbit_quotient`) needs none: its relation rows, read off the orbits,
are already their canonical RREF, as their pivots are distinct coordinates.

Storage rule: a stored entry is a plain `int` when it is integral and a
reduced `fractions.Fraction` otherwise, never a `float`, and zeros are never
stored. `SparseMatrix.__init__` and `vec_clean` are the only places that apply
it, so accumulators elsewhere simply add (`acc[k] = acc.get(k, 0) + x`) and
leave zeros and type to the constructor, or to one `vec_clean` before a `Vec`
is returned. The public constructor also bounds-checks every entry, for any
caller. The kernel's own operations skip that validation, through the private
`SparseMatrix._from_stored`, because their entries come from matrices that
already passed it: `transpose`, negation, `select` and `block` (so `hstack`
and `vstack`) move stored values to keys inside their result's shape and
hand them over unchanged, and sums, products, `scale` and `kron` settle their
accumulators with one `vec_clean`, since a sum can cancel to zero and a
product of Fractions can be integral; `rref` stores each quotient of
nonzero integers by the rule as it divides. No other module may call it.

Determinism contract: for a fixed input matrix, every function returns a unique
canonical answer. Reduced row echelon form is unique per se; bases of kernels,
images and quotient complements are canonicalized by re-echelonizing, so none of
them depend on pivot choices. The pivot rule (leftmost eligible column, then
the shortest candidate row, then the smallest bit-size entry, ties broken by
row index) only affects speed, not results: the shortest row limits fill-in,
the bit size limits coefficient growth. Elimination runs on rows rescaled to
coprime integers, which keeps arithmetic in `int` and avoids Fraction
normalization churn; the bit-size rule is applied to those rescaled entries.

The elimination core is column-indexed: a column -> set-of-rows index, built
once from the rescaled rows and kept exact under fill-in and cancellation,
names the rows that hold each column, so a column's pivot search and clearing
visit only those rows instead of every row. The index changes which rows are
visited, not the arithmetic: the pivot rule, the pivots, and every row and
result are the same as those of a scan over all rows.

Block layout: a block matrix lays its blocks out in index order, so the
offset of block row i is the sum of the sizes of block rows 0..i-1, and
likewise for block columns. `SparseMatrix.block` and `SparseMatrix.select`
are the only code that computes such offsets: total complexes, spectral
sequences, Cech complexes and cosheaf sequences assemble and slice their
matrices through them, or through `hstack`/`vstack`, which are `block` with
one block row or column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# A sparse vector: coordinate index -> nonzero rational value (int or Fraction).
Vec = Dict[int, Fraction]

# Ambient dimensions past this limit abort with a sizing report instead of
# grinding; large exterior powers are the usual culprit.
AMBIENT_LIMIT = 500_000


class ResourceGuardError(RuntimeError):
    """An operation would allocate an ambient space beyond AMBIENT_LIMIT."""

    def __init__(self, label: str, size: int, limit: int = AMBIENT_LIMIT):
        super().__init__(
            f"{label} needs an ambient space of dimension {size}, "
            f"above the limit {limit}")
        self.sizing = {"label": label, "size": size, "limit": limit}


def guard_ambient(label: str, size: int, limit: int = AMBIENT_LIMIT) -> None:
    if size > limit:
        raise ResourceGuardError(label, size, limit)


def _stored(v):
    """The storage rule: int when integral, otherwise a reduced Fraction."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def vec_clean(v: Mapping) -> dict:
    """Drop explicit zeros and store values by the int-or-Fraction rule.

    Any keys will do: the kernel's sums and products settle their
    (row, col) accumulators here too."""
    return {i: x if type(x) is int else _stored(x)
            for i, x in v.items() if x}


def json_int(value, field: str) -> int:
    """`value` when it is a JSON integer (a Python int, not a bool), else
    TypeError naming `field`; the CLI reports it as a malformed document."""
    if type(value) is not int:
        raise TypeError(f"{field} must be a JSON integer, got {value!r}")
    return value


def json_basis(obj: Mapping, dim: int, prefix: str) -> Tuple[str, ...]:
    """The names in `obj["basis"]`, a JSON list of strings (TypeError else),
    or prefix0, prefix1, ... when it is missing or empty."""
    names = obj.get("basis", [])
    if type(names) is not list or any(type(x) is not str for x in names):
        raise TypeError(f"basis must be a JSON list of strings, got {names!r}")
    return tuple(names) or tuple(f"{prefix}{i}" for i in range(dim))


def decode_entries(items: Iterable[Sequence], width: int
                   ) -> Dict[Tuple[int, ...], Fraction]:
    """Decode JSON rows `[k_1, ..., k_m, num, den]` of `width` integers into
    {(k_1..k_m): num/den}.

    Values follow the storage rule and zeros are dropped; a later row with the
    same key replaces an earlier one. A row of another length or with a
    field that is not a JSON integer raises TypeError, and a zero denominator
    raises ZeroDivisionError; the CLI reports both as a malformed document.
    """
    out: Dict[Tuple[int, ...], Fraction] = {}
    for row in items:
        if len(row) != width or any(type(v) is not int for v in row):
            raise TypeError(f"entry {row!r} is not a row of {width} integers")
        *key, num, den = row
        if den == 0:
            raise ZeroDivisionError(f"zero denominator in entry {row}")
        out[tuple(key)] = Fraction(num, den)
    return {k: _stored(v) for k, v in out.items() if v}


class SparseMatrix:
    """Immutable sparse rational matrix.

    Entries are stored as a dict (row, col) -> value with zeros dropped; a
    value is an `int` when integral, otherwise a reduced `Fraction`, never a
    `float`. The constructor bounds-checks every entry and applies this
    rule to whatever it is given, so callers may hand it unreduced sums.
    The arithmetic operators, `select` and `block` build their results
    through `_from_stored` instead, which skips both (see "Storage rule" in
    the module docstring).
    Do not mutate `entries` after construction; all operations return new
    matrices.
    """

    __slots__ = ("rows", "cols", "entries", "_row_cache", "_col_cache")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[Tuple[int, int], Fraction] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        clean: Dict[Tuple[int, int], Fraction] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
                if v:
                    clean[(r, c)] = _stored(v)
        self.entries = clean
        self._row_cache: Optional[List[Vec]] = None
        self._col_cache: Optional[List[Vec]] = None

    @staticmethod
    def _from_stored(rows: int, cols: int,
                     entries: Dict[Tuple[int, int], Fraction]
                     ) -> "SparseMatrix":
        """The rows x cols matrix over `entries`, taken as they are: every
        key inside the shape and every value nonzero and stored by the rule.
        Only this module's operations call it, on entries they derived from
        stored ones; it bypasses `__init__`."""
        m = object.__new__(SparseMatrix)
        m.rows, m.cols, m.entries = rows, cols, entries
        m._row_cache = m._col_cache = None
        return m

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dense(data: Sequence[Sequence]) -> "SparseMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged dense input")
            for c, v in enumerate(row):
                entries[(r, c)] = v
        return SparseMatrix(rows, cols, entries)

    @staticmethod
    def from_rows(rows: Sequence[Mapping[int, Fraction]], cols: int) -> "SparseMatrix":
        entries = {(r, c): v for r, row in enumerate(rows)
                   for c, v in row.items()}
        return SparseMatrix(len(rows), cols, entries)

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zeros(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols, {})

    # -- access ------------------------------------------------------------

    def entry(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), 0)

    def row(self, r: int) -> Vec:
        if self._row_cache is None:
            cache: List[Vec] = [dict() for _ in range(self.rows)]
            for (i, j), v in self.entries.items():
                cache[i][j] = v
            self._row_cache = cache
        return dict(self._row_cache[r])

    def column(self, c: int) -> Vec:
        return dict(self._columns()[c])

    def _columns(self) -> List[Vec]:
        """The cached column dicts, col -> {row: value}; read, never mutate."""
        if self._col_cache is None:
            cache: List[Vec] = [dict() for _ in range(self.cols)]
            for (i, j), v in self.entries.items():
                cache[j][i] = v
            self._col_cache = cache
        return self._col_cache

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        raise TypeError("SparseMatrix is not hashable")

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._from_stored(
            self.cols, self.rows,
            {(c, r): v for (r, c), v in self.entries.items()})

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, 0) + v
        return SparseMatrix._from_stored(self.rows, self.cols,
                                         vec_clean(entries))

    def __neg__(self) -> "SparseMatrix":
        return SparseMatrix._from_stored(
            self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def kron(self, other: "SparseMatrix") -> "SparseMatrix":
        """Kronecker product: entry (r * other.rows + i, c * other.cols + j)
        is self[r, c] * other[i, j]."""
        orows, ocols = other.rows, other.cols
        return SparseMatrix._from_stored(
            self.rows * orows, self.cols * ocols,
            vec_clean({(r * orows + i, c * ocols + j): v * w
                       for (r, c), v in self.entries.items()
                       for (i, j), w in other.entries.items()}))

    def scale(self, a: Fraction) -> "SparseMatrix":
        if a == 0:
            return SparseMatrix.zeros(self.rows, self.cols)
        return SparseMatrix._from_stored(
            self.rows, self.cols,
            vec_clean({k: a * v for k, v in self.entries.items()}))

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in matmul: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}")
        # scatter other's entries through self's cached columns
        by_col = self._columns()
        acc: Dict[Tuple[int, int], Fraction] = {}
        for (k, c), bv in other.entries.items():
            for r, av in by_col[k].items():
                key = r, c
                acc[key] = acc.get(key, 0) + av * bv
        return SparseMatrix._from_stored(self.rows, other.cols,
                                         vec_clean(acc))

    def apply(self, v: Mapping[int, Fraction]) -> Vec:
        """Matrix times sparse column vector."""
        by_col = self._columns()
        out: Vec = {}
        for j, x in v.items():
            if x == 0:
                continue
            for i, a in by_col[j].items():
                out[i] = out.get(i, 0) + a * x
        return vec_clean(out)

    # -- block assembly ----------------------------------------------------

    @staticmethod
    def block(row_dims: Sequence[int], col_dims: Sequence[int],
              blocks: Mapping[Tuple[int, int], "SparseMatrix"]
              ) -> "SparseMatrix":
        """Block matrix with block rows of sizes `row_dims`, block columns of
        sizes `col_dims`, and `blocks[(i, j)]` in block row i, column j.

        A missing block is zero; a block of another shape than
        row_dims[i] x col_dims[j], or a key outside the grid, raises
        ValueError. See "Block layout" in the module docstring.
        """
        row_off = [0, *accumulate(row_dims)]
        col_off = [0, *accumulate(col_dims)]
        entries = {}
        for (i, j), b in blocks.items():
            if not (0 <= i < len(row_dims) and 0 <= j < len(col_dims)):
                raise ValueError(f"block ({i},{j}) outside the block grid")
            if (b.rows, b.cols) != (row_dims[i], col_dims[j]):
                raise ValueError(
                    f"block ({i},{j}) is {b.rows}x{b.cols}, expected "
                    f"{row_dims[i]}x{col_dims[j]}")
            ro, co = row_off[i], col_off[j]
            for (r, c), v in b.entries.items():
                entries[(ro + r, co + c)] = v
        return SparseMatrix._from_stored(row_off[-1], col_off[-1], entries)

    def select(self, rows: Sequence[int], cols: Sequence[int]
               ) -> "SparseMatrix":
        """The len(rows) x len(cols) submatrix whose entry (a, b) is
        self[rows[a], cols[b]]; repeated or out-of-range indices raise
        ValueError."""
        for idx, n in ((rows, self.rows), (cols, self.cols)):
            if idx and (len(set(idx)) != len(idx)
                        or min(idx) < 0 or max(idx) >= n):
                raise ValueError("select needs distinct in-range indices")
        rpos = dict(zip(rows, range(len(rows))))
        by_col = self._columns()
        return SparseMatrix._from_stored(len(rows), len(cols), {
            (rpos[r], b): v for b, c in enumerate(cols)
            for r, v in by_col[c].items() if r in rpos})

    @staticmethod
    def hstack(blocks: Sequence["SparseMatrix"]) -> "SparseMatrix":
        if not blocks:
            raise ValueError("hstack of nothing")
        return SparseMatrix.block([blocks[0].rows], [b.cols for b in blocks],
                                  {(0, j): b for j, b in enumerate(blocks)})

    @staticmethod
    def vstack(blocks: Sequence["SparseMatrix"]) -> "SparseMatrix":
        if not blocks:
            raise ValueError("vstack of nothing")
        return SparseMatrix.block([b.rows for b in blocks], [blocks[0].cols],
                                  {(i, 0): b for i, b in enumerate(blocks)})

    # -- serialization -----------------------------------------------------

    def to_entry_list(self) -> List[List[int]]:
        """Sorted [[row, col, numerator, denominator], ...] encoding."""
        out = []
        for (r, c) in sorted(self.entries):
            v = self.entries[(r, c)]
            out.append([r, c, v.numerator, v.denominator])
        return out

    @staticmethod
    def from_entry_list(rows: int, cols: int,
                        items: Iterable[Sequence[int]]) -> "SparseMatrix":
        return SparseMatrix(rows, cols, decode_entries(items, 4))


# -- elimination core -------------------------------------------------------


def _scaled_int_rows(m: SparseMatrix) -> List[Dict[int, int]]:
    """Rescale each row to coprime integer entries (sign preserved)."""
    rows: List[Dict[int, int]] = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    for i, row in enumerate(rows):
        if not row:
            continue
        if not all(type(v) is int for v in row.values()):
            den = math.lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (den // v.denominator)
                   for c, v in row.items()}
        g = math.gcd(*row.values())
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        rows[i] = row
    return rows


def _eliminate(rows: List[Dict[int, int]], full: bool) -> List[Tuple[int, int]]:
    """Integer row elimination, in place: a left-to-right column sweep.

    Returns [(pivot_col, row_index), ...] in increasing pivot-column order.
    Within a column the pivot is the candidate row with the fewest entries,
    then the smallest bit size at the column, then the lowest index: the
    row choice of Markowitz's rule, which cuts fill-in because clearing the
    column adds at most the pivot row's entries to each other row. The
    sweep order is fixed, so the pivot columns do not depend on this choice.
    With full=True the pivot column is cleared from every other row (RREF up
    to row scaling); otherwise only from rows not yet chosen as pivots
    (enough for rank).

    A column -> set-of-rows index, built once from the scaled rows, names the
    rows that hold each column, so a column's pivot search and clearing visit
    only those rows. Every row update keeps the index exact: a fill-in entry
    adds the row to its column's set, a cancelled entry removes it, and a
    column's set is popped when the sweep reaches it. The pivots and every
    row are the same as those of a scan over all rows per column.
    """
    holders: Dict[int, set] = {}
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    is_pivot = [False] * len(rows)
    pivots: List[Tuple[int, int]] = []
    for col in sorted(holders):
        held = holders.pop(col)
        best: Optional[Tuple[int, int, int]] = None  # (length, bits, row)
        for i in held:
            if not is_pivot[i]:
                row = rows[i]
                v = row[col]
                key = (len(row), (-v if v < 0 else v).bit_length(), i)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        pi = best[2]
        is_pivot[pi] = True
        prow = rows[pi]
        pval = prow[col]
        pivots.append((col, pi))
        for i in held:
            if i == pi or (is_pivot[i] and not full):
                continue
            row = rows[i]
            coef = row[col]
            new = (dict(row) if pval == 1
                   else {c: pval * v for c, v in row.items()})
            # prow holds no swept column but col, which always cancels
            for c, pv in prow.items():
                v = new.get(c, 0) - coef * pv
                if v:
                    if c not in new:
                        holders[c].add(i)
                    new[c] = v
                elif c in new:
                    del new[c]
                    if c != col:
                        holders[c].discard(i)
            if new:
                g = math.gcd(*new.values())
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
            rows[i] = new
    return pivots


def rref(m: SparseMatrix) -> Tuple[SparseMatrix, Tuple[int, ...]]:
    """Canonical reduced row echelon form.

    Returns (R, pivot_cols): R has one row per pivot, ordered by pivot column,
    each pivot entry 1 and alone in its column. Zero rows are dropped, so R is
    the canonical basis of the row space. Uniqueness of RREF makes the result
    independent of the pivot strategy. Each entry v / pv is stored by the
    rule as it is made, an `int` when pv divides v.
    """
    rows = _scaled_int_rows(m)
    pivots = sorted(_eliminate(rows, full=True))
    entries: Dict[Tuple[int, int], Fraction] = {}
    for out_i, (pc, ri) in enumerate(pivots):
        row = rows[ri]
        pv = row[pc]
        for c, v in row.items():
            entries[(out_i, c)] = v // pv if v % pv == 0 else Fraction(v, pv)
    return (SparseMatrix._from_stored(len(pivots), m.cols, entries),
            tuple(pc for pc, _ in pivots))


def pivot_columns(m: SparseMatrix) -> List[int]:
    """The pivot columns of `rref(m)`, in increasing order, from a rank
    elimination: the column sweep is fixed, so clearing each pivot from the
    unchosen rows alone finds the same columns."""
    return [c for c, _ in _eliminate(_scaled_int_rows(m), full=False)]


def rank(m: SparseMatrix) -> int:
    return len(pivot_columns(m))


def kernel_basis(m: SparseMatrix) -> SparseMatrix:
    """Canonical basis of the right kernel, one vector per row.

    Built from the RREF free columns, then re-echelonized so the answer is the
    canonical (RREF) basis of the kernel subspace.
    """
    R, piv = rref(m)
    raw = [{f: 1, **{p: -coef for p, coef in col.items()}}
           for f, col in _free_columns(R, piv).items()]
    K, _ = rref(SparseMatrix.from_rows(raw, m.cols))
    return K


def _free_columns(R: SparseMatrix, pivots: Sequence[int]) -> Dict[int, Vec]:
    """{free column f: {pivots[i]: R[i, f] for the rows i holding f}} of an
    RREF matrix R whose row i has its pivot at pivots[i], in increasing f;
    one walk over R's stored entries."""
    pivset = set(pivots)
    free: Dict[int, Vec] = {f: {} for f in range(R.cols) if f not in pivset}
    for (i, f), v in R.entries.items():
        col = free.get(f)
        if col is not None:
            col[pivots[i]] = v
    return free


def image_basis(m: SparseMatrix) -> SparseMatrix:
    """Canonical basis of the column space, one vector per row (length m.rows)."""
    R, _ = rref(m.transpose())
    return R


def solve_matrix(a: SparseMatrix, b: SparseMatrix) -> Optional[SparseMatrix]:
    """Least-structure exact solve: X with a @ X == b, or None.

    Free variables are set to zero, so the solution is canonical. Consistency
    is read off the RREF of the augmented matrix (a pivot landing in the
    augmented block means no solution).
    """
    if a.rows != b.rows:
        raise ValueError("solve: row count mismatch")
    R, piv = rref(SparseMatrix.hstack([a, b]))
    entries: Dict[Tuple[int, int], Fraction] = {}
    for i, p in enumerate(piv):
        if p >= a.cols:
            return None
        for c, v in R.row(i).items():
            if c >= a.cols:
                entries[(p, c - a.cols)] = v
    return SparseMatrix(a.cols, b.cols, entries)


def solve_vector(a: SparseMatrix, b: Mapping[int, Fraction]) -> Optional[Vec]:
    B = SparseMatrix(a.rows, 1, {(i, 0): v for i, v in b.items()})
    X = solve_matrix(a, B)
    if X is None:
        return None
    return {r: v for (r, _c), v in X.entries.items()}


# -- subspaces and quotients -------------------------------------------------


def inverse(m: SparseMatrix) -> SparseMatrix:
    """Exact inverse of a square matrix (ValueError when singular).

    For square m, m @ X == I is solvable exactly when m is invertible."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    inv = solve_matrix(m, SparseMatrix.identity(m.rows))
    if inv is None:
        raise ValueError("matrix is singular")
    return inv


def random_unimodular(rng, n: int) -> SparseMatrix:
    """Seeded determinant-1 matrix: unit lower times unit upper triangular."""
    lo = {(i, i): 1 for i in range(n)}
    up = {(i, i): 1 for i in range(n)}
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                lo[(i, j)] = rng.randint(-2, 2)
            if rng.random() < 0.5:
                up[(j, i)] = rng.randint(-2, 2)
    return SparseMatrix(n, n, lo) @ SparseMatrix(n, n, up)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held by its canonical RREF row basis."""

    ambient_dim: int
    basis: SparseMatrix            # dim x ambient_dim, canonical RREF
    pivots: Tuple[int, ...]

    @staticmethod
    def from_matrix_rows(m: SparseMatrix) -> "Subspace":
        R, piv = rref(m)
        return Subspace(m.cols, R, piv)

    @staticmethod
    def from_vectors(ambient_dim: int,
                     vectors: Iterable[Mapping[int, Fraction]]) -> "Subspace":
        return Subspace.from_matrix_rows(
            SparseMatrix.from_rows([vec_clean(v) for v in vectors], ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, SparseMatrix.zeros(0, ambient_dim), ())

    @property
    def dim(self) -> int:
        return self.basis.rows

    def reduce(self, v: Mapping[int, Fraction]) -> Vec:
        """Canonical residue of v modulo this subspace (pivot coords cleared)."""
        out = vec_clean(v)
        for i, p in enumerate(self.pivots):
            coef = out.get(p)
            if coef:
                for c, x in self.basis.row(i).items():
                    out[c] = out.get(c, 0) - coef * x
        return vec_clean(out)

    def contains(self, v: Mapping[int, Fraction]) -> bool:
        return not self.reduce(v)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspace sum: ambient mismatch")
        return Subspace.from_matrix_rows(
            SparseMatrix.vstack([self.basis, other.basis]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)


@dataclass(frozen=True)
class QuotientStructure:
    """Projection/section pair realizing Q^n / subspace concretely.

    projection (q x n) kills exactly the subspace; section (n x q) holds the
    unit coordinates of the subspace's free columns, a single 1 per column,
    so projection @ section is the q x q identity.
    """

    subspace: Subspace
    projection: SparseMatrix
    section: SparseMatrix

    @property
    def dim(self) -> int:
        return self.projection.rows


def quotient_structure(sub: Subspace) -> QuotientStructure:
    n = sub.ambient_dim
    free = _free_columns(sub.basis, sub.pivots)
    q = len(free)
    proj: Dict[Tuple[int, int], Fraction] = {}
    sec: Dict[Tuple[int, int], Fraction] = {}
    for j, (f, col) in enumerate(free.items()):
        proj[(j, f)] = 1
        sec[(f, j)] = 1
        for p, coef in col.items():
            proj[(j, p)] = -coef
    return QuotientStructure(sub, SparseMatrix(q, n, proj), SparseMatrix(n, q, sec))


def signed_orbit_quotient(dim: int,
                          gens: Sequence[SparseMatrix]) -> QuotientStructure:
    """Q^dim modulo v - g v, g in the group generated by `gens`, each a
    signed permutation matrix (so a forward walk finds whole orbits). Walked
    from its least index r, an orbit signs each member, e_j = c_j e_r; it is
    zero if two signs meet at one index, else it keeps its largest index t.
    Its relation rows, e_j - c_j c_t e_t (j != t) or e_j if it is zero, pivot
    at their own j, so they are already the RREF of the relation span."""
    moves = [{c: (r, v) for (r, c), v in g.entries.items()} for g in gens]
    sign, top = [0] * dim, [None] * dim
    for root in range(dim):
        if sign[root]:
            continue
        sign[root], orbit, alive = 1, [root], True
        for j in orbit:
            for move in moves:
                i, s = move[j]
                if not sign[i]:
                    sign[i] = s * sign[j]
                    orbit.append(i)
                alive = alive and sign[i] == s * sign[j]
        t = max(orbit) if alive else None
        for j in orbit:
            top[j] = t
    pivots = tuple(j for j in range(dim) if top[j] != j)
    rows: Dict[Tuple[int, int], int] = {}
    for r, j in enumerate(pivots):
        rows[(r, j)] = 1
        if top[j] is not None:
            rows[(r, top[j])] = -sign[j] * sign[top[j]]
    return quotient_structure(
        Subspace(dim, SparseMatrix(len(pivots), dim, rows), pivots))
