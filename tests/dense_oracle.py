"""Brute-force dense reference implementations used to pin numbers in tests.

Deliberately independent of the package internals: dense lists of Fractions,
textbook row reduction (leftmost column, first nonzero row), matrices built
straight from the defining face/rotation formulas. Slow but transparent; only
run on small algebras.
"""

from fractions import Fraction
from itertools import combinations, product


def dense_rref(m):
    """Return (reduced rows, pivot column list). m is a list of row lists."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def dense_rank(m):
    if not m or not m[0]:
        return 0
    return len(dense_rref(m)[0])


def hochschild_matrix(mult, d, n):
    """Face-sum boundary on (n+1)-fold tensor tuples, wrap term included."""
    src = list(product(range(d), repeat=n + 1))
    tgt = list(product(range(d), repeat=n))
    tindex = {t: i for i, t in enumerate(tgt)}
    m = [[Fraction(0)] * len(src) for _ in range(max(len(tgt), 1))]
    if n == 0:
        return [[Fraction(0)] * len(src)]
    for ci, t in enumerate(src):
        for i in range(n):
            sgn = (-1) ** i
            for k, coef in mult.get((t[i], t[i + 1]), {}).items():
                m[tindex[t[:i] + (k,) + t[i + 2:]]][ci] += sgn * coef
        sgn = (-1) ** n
        for k, coef in mult.get((t[n], t[0]), {}).items():
            m[tindex[(k,) + t[1:n]]][ci] += sgn * coef
    return m


def rotation_complement(d, n):
    """Data of the quotient by im(1 - rotation) on (n+1)-fold tensors.

    Returns (reduction rows, pivot cols, free cols): reduction rows are the
    RREF of the image of (1 - signed rotation).
    """
    src = list(product(range(d), repeat=n + 1))
    idx = {t: i for i, t in enumerate(src)}
    size = len(src)
    sgn = Fraction((-1) ** n)
    cols = []
    for ci, t in enumerate(src):
        col = [Fraction(0)] * size
        col[ci] += 1
        col[idx[(t[-1],) + t[:-1]]] -= sgn
        cols.append(col)
    red, pivots = dense_rref(cols)  # rows of the image subspace, transposed view
    free = [c for c in range(size) if c not in pivots]
    return red, pivots, free


def _reduce(v, red, pivots):
    v = v[:]
    for i, p in enumerate(pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, red[i])]
    return v


def hochschild_betti(mult, d, max_degree):
    """Betti numbers of the face-sum complex through max_degree (exact: uses
    one boundary beyond the top)."""
    mats = [hochschild_matrix(mult, d, n) for n in range(max_degree + 2)]
    ranks = [dense_rank(m) for m in mats]
    out = []
    for n in range(max_degree + 1):
        out.append(d ** (n + 1) - ranks[n] - ranks[n + 1])
    return out


def connes_betti(mult, d, max_degree):
    """Betti numbers of the rotation-quotient complex through max_degree."""
    comp = [rotation_complement(d, n) for n in range(max_degree + 2)]
    dims = [len(c[2]) for c in comp]
    induced = []
    for n in range(1, max_degree + 2):
        red_t, piv_t, free_t = comp[n - 1]
        _red, _piv, free_s = comp[n]
        b = hochschild_matrix(mult, d, n)
        mat = []
        for f in free_s:
            col = [row[f] for row in b]
            col = _reduce(col, red_t, piv_t)
            mat.append([col[j] for j in free_t])
        # mat rows are images of free generators; rank is all we need
        induced.append(dense_rank(mat))
    out = []
    for n in range(max_degree + 1):
        r_out = induced[n - 1] if n >= 1 else 0
        r_in = induced[n]
        out.append(dims[n] - r_out - r_in)
    return out


def connes_dims(mult, d, max_degree):
    return [len(rotation_complement(d, n)[2]) for n in range(max_degree + 1)]


def dense_kron(a, b, a_cols, b_cols):
    """Kronecker product of dense a (len(a) x a_cols) and b (len(b) x b_cols):
    entry (r * len(b) + i, c * b_cols + j) is a[r][c] * b[i][j]. Column
    counts are explicit so that matrices with no rows keep their shape."""
    return [[a[r][c] * b[i][j] for c in range(a_cols) for j in range(b_cols)]
            for r in range(len(a)) for i in range(len(b))]


def dense_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def cech_matrix(opens, cover, dims, extension, r):
    """Degree-r boundary of the Cech complex of a precosheaf, straight from
    the alternating sum d(t; x) = sum_i (-1)^i ext(U_t -> U_{t minus t_i}) x.

    `opens` are sorted point tuples, `cover` indexes into them, `dims[u]` is
    the dimension on open u and `extension(a, b)` the dense dims[b] x dims[a]
    matrix from open a into open b (the identity when a == b). Degree k is
    spanned by (t, x): t a strictly increasing (k+1)-tuple of cover positions
    in lexicographic order, U_t the meet of its members, x < dims[U_t].
    Returns (matrix as row lists, row count, column count).
    """
    def coords(k):
        out = []
        for t in combinations(range(len(cover)), k + 1):
            meet = set.intersection(*(set(opens[cover[i]]) for i in t))
            u = opens.index(tuple(sorted(meet)))
            out.extend((t, u, x) for x in range(dims[u]))
        return out

    src, tgt = coords(r), coords(r - 1)
    row_of = {(t, x): i for i, (t, _u, x) in enumerate(tgt)}
    open_of = {t: u for t, u, _x in tgt}
    m = [[Fraction(0)] * len(src) for _ in tgt]
    for col, (t, u, x) in enumerate(src):
        for i in range(r + 1):
            face = t[:i] + t[i + 1:]
            if face not in open_of:  # the face's open carries nothing
                continue
            ext = extension(u, open_of[face])
            for y in range(len(ext)):
                m[row_of[(face, y)]][col] += (-1) ** i * ext[y][x]
    return m, len(tgt), len(src)
