"""Face-to-person association by optimal assignment on head-region overlap.

Each detected face is matched to at most one tracked person by maximizing the
total IoU between face boxes and the upper half of person boxes. Zero-overlap
pairings are forbidden; faces left over are reported as unmatched. Among
equal-total optima the lexicographically smallest (person_id, face_index)
pairing is returned, which makes the assignment deterministic and independent
of input face order.

Cost per frame, for n persons and m faces:

- Every frame computes the overlap of each person's head region and each
  face, O(n*m), from unpacked coordinates, with n + m areas (each face's and
  each head region's once), and keeps only the positive ones as edges, in
  one index: each person's list of (face, overlap) and each face's list of
  persons. No n x m matrix is built.
- The optimum is additive across the connected components of the edges,
  and the lexicographic reconstruction only ever picks edges, which lie in
  the row's own component, so solving each component alone gives the same
  pairs as solving the whole frame. A lone edge (its person's list and its
  face's list each hold only the other) is the optimum of its component and
  takes no solve, so a frame without contest costs no more than its overlaps.
- A larger component, found by a search over the same lists, goes to one
  exact solver on its dense sub-matrix: the Hungarian method gives the
  optimal total in O(r^2 * (r + k)) for r persons and k faces, and the
  lexicographic reconstruction re-solves once per edge it tries,
  O((e + 1) * r^2 * (r + k)) for e edges. Dense random components
  (x86-64, Python 3.11) take ~0.04 ms at 2 x 3, ~9 ms at 14 x 14 and ~190 ms
  at 30 x 30; every contested frame of the crowd benchmark splits into lone
  edges and components of at most 2 persons x 3 faces.
- In-process, best of 9 on x86-64 with Python 3.11: the crowd benchmark's
  600 frames (14 persons, 128 contested) take ~22 ms, ~35 ms with the dense
  matrix and every component solved; its 1046 lone edges then took 2092
  of the solver's 2533 calls. The long benchmark's 4800 frames (6 persons,
  ~4.6 faces) take ~56 ms, ~12 us per frame, against ~63 ms.
"""

from __future__ import annotations

from typing import NamedTuple

from .ingest import Box, FrameObservation

_TOL = 1e-12


class Association(NamedTuple):
    pairs: tuple[tuple[int, int, float], ...]  # (person_id, face_index, overlap)
    unmatched_faces: tuple[int, ...]


def head_region(person_box: Box) -> Box:
    """Upper half of a person box: same x-span, top half of the y-span."""
    return Box(person_box.x1, person_box.y1, person_box.x2, (person_box.y1 + person_box.y2) / 2.0)


def box_overlap(a: Box, b: Box) -> float:
    """Intersection over union of two rectangles, 0.0 where they do not
    overlap or their intersection underflows to 0.0."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = iw * ih
    if iw <= 0.0 or ih <= 0.0 or inter == 0.0:  # the union may then be 0.0 too
        return 0.0
    return inter / (a.area + b.area - inter)


def match_faces_to_persons(frame: FrameObservation) -> Association:
    """Maximum-total-IoU one-to-one assignment of faces to head regions."""
    persons = sorted(frame.persons)  # by person_id: a parsed frame's ids are unique
    n, m = len(persons), len(frame.faces)
    if n == 0 or m == 0:
        return Association((), tuple(range(m)))

    # box_overlap(head_region(p.box), f.box) from unpacked coordinates, with
    # each area computed once; every float operation is box_overlap's, in the
    # same order, and the conditionals keep min's and max's choice on ties.
    # Only positive overlaps are kept, as edges. An intersection whose
    # product underflows to 0.0 is no edge and is not divided: where both
    # boxes' areas underflow too, the union is 0.0.
    faces = [(x1, y1, x2, y2, (x2 - x1) * (y2 - y1)) for x1, y1, x2, y2 in
             (f.box for f in frame.faces)]
    edges: list[list[tuple[int, float]]] = []  # per person: (face index, overlap)
    persons_of: list[list[int]] = [[] for _ in faces]  # per face: persons with an edge
    for i, (_, (hx1, hy1, hx2, py2)) in enumerate(persons):
        hy2 = (hy1 + py2) / 2.0
        head_area = (hx2 - hx1) * (hy2 - hy1)
        row = []
        for j, (fx1, fy1, fx2, fy2, face_area) in enumerate(faces):
            iw = (fx2 if fx2 < hx2 else hx2) - (fx1 if fx1 > hx1 else hx1)
            if iw > 0.0:
                ih = (fy2 if fy2 < hy2 else hy2) - (fy1 if fy1 > hy1 else hy1)
                inter = iw * ih
                if inter > 0.0:  # so ih > 0.0, and the union is at least inter
                    w = inter / (head_area + face_area - inter)
                    if w > 0.0:
                        row.append((j, w))
                        persons_of[j].append(i)
        edges.append(row)

    # A lone edge is its own component's optimum. Any other component is
    # solved on its dense sub-matrix, zero off the edges; rows and columns
    # keep their order, so its lexicographically smallest optimum maps back.
    pairs: list[tuple[int, int, float]] = []  # (person_id, face index, overlap)
    seen = [False] * n
    solved = False
    for start, row in enumerate(edges):
        if len(row) == 1 and len(persons_of[row[0][0]]) == 1:
            pairs.append((persons[start].person_id, *row[0]))
            continue
        if not row or seen[start]:
            continue
        seen[start] = True
        rows, cols, stack = [start], set(), [start]
        while stack:  # a search over persons that share a face
            for j, _ in edges[stack.pop()]:
                if j not in cols:
                    cols.add(j)
                    for i in persons_of[j]:
                        if not seen[i]:
                            seen[i] = True
                            rows.append(i)
                            stack.append(i)
        rows.sort()
        cols = sorted(cols)
        col_of = {j: b for b, j in enumerate(cols)}
        sub = [[0.0] * len(cols) for _ in rows]
        for a, i in enumerate(rows):
            for j, w in edges[i]:
                sub[a][col_of[j]] = w
        pairs.extend((persons[rows[a]].person_id, cols[b], sub[a][b])
                     for a, b in _assign_lexicographic(sub))
        solved = True
    if solved:  # a component's later rows came before persons still to visit
        pairs.sort()

    matched_faces = {j for _, j, _ in pairs}
    unmatched = tuple(j for j in range(m) if j not in matched_faces)
    return Association(tuple(pairs), unmatched)


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
