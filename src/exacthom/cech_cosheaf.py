"""Finite models of precosheaves and cosheaves on covers, over Q.

A topological situation is modeled combinatorially: the space is a finite
point set, an "open" is a stored subset, and a precosheaf assigns each
stored open a finite-dimensional rational vector space together with an
extension map for every inclusion (functorial, identity on equal opens).
The motivating examples assign to an open the functions supported on its
points, with extension by zero; those are flabby cosheaves, and every
statement here is an exact rank computation:

* ``cosheaf_axiom_check``: exactness of
  (sum over pairs of intersections) -> (sum over cover members) -> P(U) -> 0
  with the antisymmetrized middle map, as rank conditions.
* ``flabby_check``: every extension map injective.
* ``cech_complex``: the skew-symmetrized complex on strictly increasing
  index tuples of cover members; for a cosheaf its degree-0 homology is
  P(ground set), and for a flabby cosheaf everything above vanishes.
* ``cokernel_precosheaf``: open-wise cokernel of a morphism with induced
  extensions; re-checked against the cosheaf axiom.
* ``coresolution_homology``: homology of the global sections of a flabby
  coresolution, verified against the direct Cech computation.

Local conditions ("locally exact") are interpreted on the finite model as
conditions on every iterated intersection of cover members, excluding the
ground open itself; the cosheaf-axiom report lists the opens it checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .complexes import (ChainComplex, HomologyResult, betti_numbers, homology,
                        verify_complex)
from .exactlin import (SparseMatrix, Subspace, json_int, quotient_structure,
                       rank)


class CosheafDataError(ValueError):
    """A needed open, intersection, or extension map is not stored."""


Open = Tuple[int, ...]


def _as_open(points: Sequence[int]) -> Open:
    out = tuple(sorted(set(points)))
    return out


# -- cover models ----------------------------------------------------------------


@dataclass(frozen=True)
class CoverModel:
    """Finite ground set with stored opens and a distinguished cover.

    ``opens`` are sorted point tuples; ``cover`` holds indices into
    ``opens``. Stored opens must contain the ground set and be closed under
    the iterated intersections of cover members; the cover must union to
    the ground set.
    """

    points: int
    opens: Tuple[Open, ...]
    cover: Tuple[int, ...]

    def __post_init__(self):
        if self.points < 0:
            raise ValueError("points must be >= 0")
        seen: Set[Open] = set()
        for op in self.opens:
            if list(op) != sorted(set(op)):
                raise ValueError(f"open {op} is not a sorted point tuple")
            if op and (op[0] < 0 or op[-1] >= self.points):
                raise ValueError(f"open {op} leaves the ground set")
            if op in seen:
                raise ValueError(f"open {op} is stored twice")
            seen.add(op)
        ground = tuple(range(self.points))
        if ground not in seen:
            raise ValueError("the ground set must be a stored open")
        if not self.cover:
            raise ValueError("the cover must be nonempty")
        for idx in self.cover:
            if not 0 <= idx < len(self.opens):
                raise ValueError(f"cover id {idx} out of range")
        union: Set[int] = set()
        for idx in self.cover:
            union.update(self.opens[idx])
        if tuple(sorted(union)) != ground:
            raise ValueError("the cover does not union to the ground set")
        for op in self.iterated_cover_intersections():
            if op not in seen:
                raise CosheafDataError(
                    f"intersection {op} of cover members is not stored")

    @property
    def ground_open(self) -> int:
        return self.open_index(tuple(range(self.points)))

    def open_index(self, op: Sequence[int]) -> int:
        key = _as_open(op)
        try:
            return self.opens.index(key)
        except ValueError:
            raise CosheafDataError(f"open {key} is not stored") from None

    def intersection_index(self, ids: Sequence[int]) -> int:
        cur = set(self.opens[ids[0]])
        for idx in ids[1:]:
            cur.intersection_update(self.opens[idx])
        return self.open_index(tuple(cur))

    def iterated_cover_intersections(self) -> List[Open]:
        """All intersections of one or more distinct cover members, sorted."""
        return _sorted_opens(_intersection_closure(
            [self.opens[i] for i in self.cover]))


def _intersection_closure(members: Sequence[Open]) -> Set[Open]:
    """All intersections of one or more of the given opens."""
    closure: Set[Open] = set(members)
    while True:
        fresh = {tuple(sorted(set(a) & set(b)))
                 for a in closure for b in members} - closure
        if not fresh:
            return closure
        closure |= fresh


def _sorted_opens(opens: Set[Open]) -> List[Open]:
    return sorted(opens, key=lambda t: (len(t), t))


def cover_model_from_cover(points: int,
                           cover_sets: Sequence[Sequence[int]]) -> CoverModel:
    """Build a CoverModel from cover subsets alone: stored opens are the
    iterated intersections of the cover members plus the ground set."""
    cover_opens = [_as_open(s) for s in cover_sets]
    opens = _sorted_opens(
        _intersection_closure(cover_opens) | {tuple(range(points))})
    return CoverModel(points, tuple(opens),
                      tuple(opens.index(c) for c in cover_opens))


# -- precosheaves ------------------------------------------------------------------


@dataclass(frozen=True)
class FinitePrecosheaf:
    """Dimension per stored open plus an extension matrix per strict
    inclusion of stored opens; functoriality is verified exactly on all
    composable chains at construction."""

    cover_model: CoverModel
    dims: Tuple[int, ...]
    extensions: Mapping[Tuple[int, int], SparseMatrix]

    def __post_init__(self):
        u = self.cover_model
        if len(self.dims) != len(u.opens):
            raise ValueError("one dimension per stored open is required")
        if any(d < 0 for d in self.dims):
            raise ValueError("dimensions must be >= 0")
        inclusions = _strict_inclusions(u)
        for key in inclusions:
            if key not in self.extensions:
                raise CosheafDataError(
                    f"extension map for inclusion {key} is missing")
        for key, mat in self.extensions.items():
            if key not in inclusions:
                raise ValueError(f"{key} is not a strict inclusion of opens")
            small, big = key
            if (mat.rows, mat.cols) != (self.dims[big], self.dims[small]):
                raise ValueError(f"extension {key} has the wrong shape")
        for (a, b) in inclusions:
            for c in range(len(u.opens)):
                if c == a or c == b:
                    continue
                if (b, c) in inclusions:
                    left = self.extensions[(b, c)] @ self.extensions[(a, b)]
                    if left != self.extensions[(a, c)]:
                        raise ValueError(
                            f"functoriality fails on {a} -> {b} -> {c}")

    def extension(self, small: int, big: int) -> SparseMatrix:
        if small == big:
            return SparseMatrix.identity(self.dims[small])
        try:
            return self.extensions[(small, big)]
        except KeyError:
            raise CosheafDataError(
                f"no extension stored for {small} -> {big}") from None

    def global_dim(self) -> int:
        return self.dims[self.cover_model.ground_open]


def _strict_inclusions(u: CoverModel) -> Set[Tuple[int, int]]:
    out: Set[Tuple[int, int]] = set()
    sets = [set(op) for op in u.opens]
    for a in range(len(u.opens)):
        for b in range(len(u.opens)):
            if a != b and sets[a] < sets[b]:
                out.add((a, b))
    return out


@dataclass(frozen=True)
class CosheafMorphism:
    """Open-wise linear maps between two precosheaves on the same cover
    model; every naturality square is verified exactly at construction."""

    source: FinitePrecosheaf
    target: FinitePrecosheaf
    components: Tuple[SparseMatrix, ...]

    def __post_init__(self):
        if self.source.cover_model != self.target.cover_model:
            raise ValueError("source and target live on different models")
        u = self.source.cover_model
        if len(self.components) != len(u.opens):
            raise ValueError("one component per stored open is required")
        for i, mat in enumerate(self.components):
            if (mat.rows, mat.cols) != (self.target.dims[i],
                                        self.source.dims[i]):
                raise ValueError(f"component {i} has the wrong shape")
        for (a, b) in sorted(_strict_inclusions(u)):
            lhs = self.target.extension(a, b) @ self.components[a]
            rhs = self.components[b] @ self.source.extension(a, b)
            if lhs != rhs:
                raise ValueError(f"naturality fails on inclusion {a} -> {b}")


# -- the cosheaf axiom ---------------------------------------------------------------


def _axiom_instance(p: FinitePrecosheaf, target: int,
                    subcover: Sequence[int]) -> Optional[dict]:
    """Rank data of (pair intersections) -> (members) -> P(target) -> 0 for
    one open and one stored subcover; None when a pair intersection is not
    stored."""
    u = p.cover_model
    pairs = list(combinations(range(len(subcover)), 2))
    try:
        meets = [u.intersection_index([subcover[ai], subcover[bi]])
                 for ai, bi in pairs]
    except CosheafDataError:
        return None
    member_dims = [p.dims[i] for i in subcover]
    sum_map = SparseMatrix.hstack([p.extension(i, target) for i in subcover])
    blocks: Dict[Tuple[int, int], SparseMatrix] = {}
    for col, ((ai, bi), w) in enumerate(zip(pairs, meets)):
        blocks[(ai, col)] = p.extension(w, subcover[ai])
        blocks[(bi, col)] = -p.extension(w, subcover[bi])
    middle = SparseMatrix.block(member_dims, [p.dims[w] for w in meets],
                                blocks)
    sum_rank = rank(sum_map)
    kernel_dim = sum_map.cols - sum_rank
    middle_rank = rank(middle)
    return {"open": list(u.opens[target]),
            "subcover": [int(i) for i in subcover],
            "composite_zero": (sum_map @ middle).is_zero(),
            "surjective": sum_rank == p.dims[target],
            "exact_middle": middle_rank == kernel_dim,
            "ranks": {"sum": sum_rank, "middle": middle_rank,
                      "target_dim": p.dims[target],
                      "kernel_dim": kernel_dim}}


def cosheaf_axiom_check(p: FinitePrecosheaf, u: CoverModel) -> dict:
    """Exactness of the defining sequence for the distinguished cover of the
    ground set, and for every other stored open that is the union of the
    stored opens strictly inside it (when the needed pair intersections are
    stored). Instances whose pair intersections are missing are skipped and
    listed."""
    if u != p.cover_model:
        raise ValueError("precosheaf and cover model do not match")
    instances: List[dict] = []
    skipped: List[List[int]] = []
    ground = u.ground_open
    first = _axiom_instance(p, ground, list(u.cover))
    if first is None:
        skipped.append(list(u.opens[ground]))
    else:
        instances.append(first)
    sets = [set(op) for op in u.opens]
    for target in range(len(u.opens)):
        inside = [i for i in range(len(u.opens)) if sets[i] < sets[target]]
        if not inside:
            continue
        union: Set[int] = set()
        for i in inside:
            union.update(sets[i])
        if union != sets[target]:
            continue
        inst = _axiom_instance(p, target, inside)
        if inst is None:
            skipped.append(list(u.opens[target]))
        else:
            instances.append(inst)
    verdict = all(i["composite_zero"] and i["surjective"]
                  and i["exact_middle"] for i in instances)
    return {"check": "cosheaf_axiom",
            "params": {"points": u.points, "n_opens": len(u.opens),
                       "cover": [int(i) for i in u.cover]},
            "instances": instances,
            "skipped": skipped,
            "verdict": bool(verdict),
            "seed": 0}


def flabby_check(p: FinitePrecosheaf) -> bool:
    """True iff every stored extension map has full column rank."""
    for (small, _big), mat in sorted(p.extensions.items()):
        if rank(mat) != p.dims[small]:
            return False
    return True


# -- Cech complexes ------------------------------------------------------------------


def cech_complex(p: FinitePrecosheaf, u: CoverModel) -> ChainComplex:
    """Skew-symmetrized complex on strictly increasing tuples of cover
    member indices: degree r holds the sum of P over the (r+1)-fold
    intersections; the boundary drops one index with alternating sign and
    extends."""
    if u != p.cover_model:
        raise ValueError("precosheaf and cover model do not match")
    n = len(u.cover)
    tuples: List[List[Tuple[int, ...]]] = []
    open_of: List[List[int]] = []
    for r in range(n):
        tr = list(combinations(range(n), r + 1))
        tuples.append(tr)
        open_of.append([u.intersection_index([u.cover[i] for i in t])
                        for t in tr])
    cell_dims = [[p.dims[oid] for oid in ids] for ids in open_of]
    index_of = [{t: i for i, t in enumerate(tr)} for tr in tuples]
    diffs: Dict[int, SparseMatrix] = {}
    for r in range(1, n):
        blocks: Dict[Tuple[int, int], SparseMatrix] = {}
        for ti, t in enumerate(tuples[r]):
            for drop in range(r + 1):
                si = index_of[r - 1][t[:drop] + t[drop + 1:]]
                ext = p.extension(open_of[r][ti], open_of[r - 1][si])
                blocks[(si, ti)] = -ext if drop % 2 else ext
        diffs[r] = SparseMatrix.block(cell_dims[r - 1], cell_dims[r], blocks)
    dims = [sum(cd) for cd in cell_dims]
    return ChainComplex(tuple(dims), diffs, truncated=False)


def cech_report(p: FinitePrecosheaf, u: CoverModel) -> dict:
    """Betti numbers of the Cech complex plus the degree-0 comparison with
    the global sections and the flabbiness verdict."""
    cx = cech_complex(p, u)
    betti = betti_numbers(cx)
    flabby = flabby_check(p)
    expected0 = p.global_dim()
    return {"check": "cech_homology",
            "params": {"points": u.points, "cover_size": len(u.cover)},
            "lhs_dims": betti,
            "rhs_dims": [expected0] + [0] * (len(betti) - 1),
            "flabby": flabby,
            "degree0_matches_global_sections": betti[0] == expected0,
            "verdict": bool(betti[0] == expected0
                            and (not flabby
                                 or all(b == 0 for b in betti[1:]))),
            "seed": 0}


# -- cokernels ------------------------------------------------------------------------


def cokernel_precosheaf(phi: CosheafMorphism) -> FinitePrecosheaf:
    """Open-wise cokernel target(U)/image(phi_U) with the induced
    extensions. The result is re-checked against the cosheaf axiom and that
    verdict is asserted."""
    u = phi.source.cover_model
    quots = []
    for i in range(len(u.opens)):
        img = Subspace.from_matrix_rows(phi.components[i].transpose())
        quots.append(quotient_structure(img))
    dims = tuple(q.dim for q in quots)
    exts: Dict[Tuple[int, int], SparseMatrix] = {}
    for (a, b) in sorted(_strict_inclusions(u)):
        exts[(a, b)] = quots[b].projection @ phi.target.extension(a, b) \
            @ quots[a].section
    out = FinitePrecosheaf(u, dims, exts)
    report = cosheaf_axiom_check(out, u)
    if not report["verdict"]:
        raise AssertionError("the cokernel fails the cosheaf axiom check")
    return out


def identity_morphism(p: FinitePrecosheaf) -> CosheafMorphism:
    comps = tuple(SparseMatrix.identity(d) for d in p.dims)
    return CosheafMorphism(p, p, comps)


# -- coresolutions --------------------------------------------------------------------


def coresolution_homology(p: FinitePrecosheaf,
                          terms: Sequence[FinitePrecosheaf],
                          maps: Sequence[CosheafMorphism],
                          augmentation: CosheafMorphism) -> HomologyResult:
    """Homology of the global sections of a finite flabby coresolution
    ... -> terms[1] -> terms[0] -> p -> 0 (maps[i]: terms[i+1] -> terms[i]).

    Preconditions verified exactly: every term is flabby, and the augmented
    sequence is exact at every iterated intersection of cover members
    (excluding the ground open, where exactness is not required): there
    0 -> terms[top] -> ... -> terms[0] -> p -> 0, with p in degree 0, is
    exact iff it passes `verify_complex` and has no homology. A failure
    names the open and its first failing degree. The betti numbers are
    asserted to agree with the direct Cech computation.
    """
    u = p.cover_model
    if len(maps) != max(0, len(terms) - 1):
        raise ValueError("need exactly one map between consecutive terms")
    if not terms:
        raise ValueError("the resolution needs at least one term")
    for i, mor in enumerate(maps):
        if mor.source != terms[i + 1] or mor.target != terms[i]:
            raise ValueError(f"map {i} does not connect terms {i+1} -> {i}")
    if augmentation.source != terms[0] or augmentation.target != p:
        raise ValueError("the augmentation must map terms[0] -> p")
    for i, t in enumerate(terms):
        if t.cover_model != u:
            raise ValueError(f"term {i} lives on a different model")
        if not flabby_check(t):
            raise ValueError(f"resolution term {i} is not flabby")
    ground = u.ground_open
    for op in u.iterated_cover_intersections():
        oid = u.open_index(op)
        if oid == ground:
            continue
        local = ChainComplex(
            (p.dims[oid], *(t.dims[oid] for t in terms)),
            {i: m.components[oid]
             for i, m in enumerate([augmentation, *maps], 1)}, truncated=False)
        squares = verify_complex(local)["failures"]
        failing = ([squares[0]["degree"] - 1] if squares else
                   [n for n, b in enumerate(homology(local).betti) if b])
        if failing:
            raise ValueError(
                f"the augmented coresolution is not exact on open {op} in "
                f"degree {failing[0]} (p is degree 0, terms[i] is i + 1)")
    dims = tuple(t.dims[ground] for t in terms)
    diffs = {i: maps[i - 1].components[ground] for i in range(1, len(terms))}
    sections = ChainComplex(dims, diffs, truncated=False)
    result = homology(sections)
    direct = betti_numbers(cech_complex(p, u))
    width = max(len(direct), len(result.betti))
    lhs, rhs = (list(b) + [0] * (width - len(b)) for b in (result.betti, direct))
    if lhs != rhs:
        raise AssertionError(
            f"coresolution homology {lhs} disagrees with the direct "
            f"Cech homology {rhs}")
    return result


# -- model builders --------------------------------------------------------------------


def _support_inclusions(u: CoverModel,
                        supports: Sequence[Sequence]) -> FinitePrecosheaf:
    """Functions on supports[i] over open i, extended by the inclusions of
    supports along the inclusions of opens (flabby)."""
    dims = tuple(len(sup) for sup in supports)
    exts: Dict[Tuple[int, int], SparseMatrix] = {}
    for (a, b) in sorted(_strict_inclusions(u)):
        pos_in_b = {x: i for i, x in enumerate(supports[b])}
        entries = {(pos_in_b[x], i): 1 for i, x in enumerate(supports[a])}
        exts[(a, b)] = SparseMatrix(dims[b], dims[a], entries)
    return FinitePrecosheaf(u, dims, exts)


def _touching(u: CoverModel,
              edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Per open, the indices of the edges with an endpoint in it."""
    return [[e for e, (x, y) in enumerate(edges) if x in pts or y in pts]
            for pts in map(set, u.opens)]


def extension_by_zero_model(u: CoverModel) -> FinitePrecosheaf:
    """Functions on the points of each open, extended by zero: the model
    flabby cosheaf."""
    return _support_inclusions(u, u.opens)


def collapsing_model(u: CoverModel) -> FinitePrecosheaf:
    """One dimension on every open with zero extension maps: functorial but
    neither flabby nor a cosheaf on any nontrivial cover."""
    dims = tuple(1 for _ in u.opens)
    exts = {key: SparseMatrix.zeros(1, 1)
            for key in sorted(_strict_inclusions(u))}
    return FinitePrecosheaf(u, dims, exts)


def edge_function_model(u: CoverModel,
                        edges: Sequence[Tuple[int, int]]) -> FinitePrecosheaf:
    """Functions on the auxiliary edge set, an open receiving every edge
    that touches one of its points; extensions are inclusions (flabby)."""
    return _support_inclusions(u, _touching(u, edges))


def circle_difference_model(
        n: int, arcs: Sequence[Sequence[int]]
) -> Tuple[CoverModel, FinitePrecosheaf, FinitePrecosheaf, CosheafMorphism]:
    """Finite circle: n points in a cycle, covered by the given arcs.

    Returns (cover model, point functions, edge functions, difference
    morphism): the difference operator sends a point function f to the edge
    function (i, i+1) -> f(i+1) - f(i); its cokernel is the finite stand-in
    for top-degree forms modulo exact ones, carrying the circle's
    one-dimensional degree-1 Cech class.
    """
    if n < 3:
        raise ValueError("need at least 3 points on the circle")
    u = cover_model_from_cover(n, arcs)
    edges = [(i, (i + 1) % n) for i in range(n)]
    touching = _touching(u, edges)
    p0 = extension_by_zero_model(u)
    p1 = _support_inclusions(u, touching)
    comps = []
    for op, edge_ids in zip(u.opens, touching):
        pos_pt = {pt: i for i, pt in enumerate(op)}
        entries: Dict[Tuple[int, int], Fraction] = {}
        for row, e in enumerate(edge_ids):
            x, y = edges[e]
            if y in pos_pt:
                entries[(row, pos_pt[y])] = 1
            if x in pos_pt:
                key = (row, pos_pt[x])
                entries[key] = entries.get(key, 0) - 1
        comps.append(SparseMatrix(len(edge_ids), len(op), entries))
    d = CosheafMorphism(p0, p1, tuple(comps))
    return u, p0, p1, d


def random_cover_model(rng: random.Random, points: int,
                       n_cover: int) -> CoverModel:
    """Random cover of a ground set: each member is a random nonempty
    subset, patched so the union is everything; opens are the generated
    intersection closure."""
    if points < 1 or n_cover < 1:
        raise ValueError("need points >= 1 and n_cover >= 1")
    cover_sets: List[Set[int]] = []
    for _ in range(n_cover):
        size = rng.randint(1, points)
        cover_sets.append(set(rng.sample(range(points), size)))
    missing = set(range(points)) - set().union(*cover_sets)
    for pt in sorted(missing):
        cover_sets[rng.randrange(n_cover)].add(pt)
    return cover_model_from_cover(points, [sorted(s) for s in cover_sets])


# -- JSON ------------------------------------------------------------------------------


def cover_model_to_json(u: CoverModel) -> dict:
    return {"points": u.points,
            "opens": [list(op) for op in u.opens],
            "cover": [int(i) for i in u.cover]}


def cover_model_from_json(obj: Mapping) -> CoverModel:
    return CoverModel(json_int(obj["points"], "points"),
                      tuple(tuple(json_int(x, "open point") for x in op)
                            for op in obj["opens"]),
                      tuple(json_int(i, "cover index") for i in obj["cover"]))


def precosheaf_to_json(p: FinitePrecosheaf) -> dict:
    out = cover_model_to_json(p.cover_model)
    out["precosheaf"] = {
        "dims": {str(i): d for i, d in enumerate(p.dims)},
        "extensions": [[a, b, p.extensions[(a, b)].to_entry_list()]
                       for (a, b) in sorted(p.extensions)],
    }
    return out


def precosheaf_from_json(obj: Mapping) -> FinitePrecosheaf:
    """The precosheaf of a `--cover` document; TypeError or IndexError on
    a malformed one, which the CLI reports as such."""
    u = cover_model_from_json(obj)
    raw = obj["precosheaf"]
    dims = [0] * len(u.opens)

    def open_index(value, field: str) -> int:
        index = json_int(value, field)
        if not 0 <= index < len(dims):
            raise IndexError(f"{field} {index} is not one of the "
                             f"{len(dims)} stored opens")
        return index

    if not (isinstance(raw["dims"], Mapping)
            and isinstance(raw["extensions"], list)):
        raise TypeError("dims must be a JSON object, extensions a list")
    for key, d in raw["dims"].items():
        # JSON object keys are strings: a key must spell an open's index
        index = (int(key) if isinstance(key, str) and key.isdecimal()
                 else key)
        dims[open_index(index, "dims key")] = json_int(d, "dims value")
    exts: Dict[Tuple[int, int], SparseMatrix] = {}
    for ext in raw["extensions"]:
        if not isinstance(ext, list) or len(ext) != 3:
            raise TypeError(f"extension {ext!r} is not [a, b, entries]")
        a = open_index(ext[0], "extension source")
        b = open_index(ext[1], "extension target")
        exts[(a, b)] = SparseMatrix.from_entry_list(dims[b], dims[a], ext[2])
    return FinitePrecosheaf(u, tuple(dims), exts)
