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
  positive-overlap candidates, the positive edges are the answer.
- A contested frame is split into the connected components of its
  positive-overlap bipartite graph by a union-find over persons and faces,
  O(n*m). The optimum is additive across components, and the lexicographic
  reconstruction only ever picks positive-overlap faces, which lie in the
  row's own component, so solving each component alone gives the same pairs
  as solving the whole matrix.
- A component with r persons and k <= 12 faces is solved by the exact
  bitmask DP in O(r * 2^k * k).
- A component with more than 12 faces falls back to scipy's assignment
  solver plus one re-solve per candidate pair to fix the lexicographic
  tie-break; only this path imports numpy and scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ingest import Box, FrameObservation

_TOL = 1e-12
# Exact bitmask DP handles components of up to this many faces; larger
# components fall back to a scipy-based solve.
_DP_MAX_FACES = 12


@dataclass(frozen=True)
class Association:
    frame_t: float
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
        return Association(frame.t, (), tuple(range(m)))

    heads = [head_region(p.box) for p in persons]
    weights = [[box_overlap(head, f.box) for f in frame.faces] for head in heads]
    chosen = _assign_conflict_free(weights)
    if chosen is None:
        chosen = _assign_components(weights)

    pairs = tuple(
        (persons[i].person_id, j, weights[i][j]) for i, j in sorted(chosen)
    )
    matched_faces = {j for _, j in chosen}
    unmatched = tuple(j for j in range(m) if j not in matched_faces)
    return Association(frame.t, pairs, unmatched)


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
        solve = _assign_dp if len(cols) <= _DP_MAX_FACES else _assign_scipy
        chosen.extend((rows[a], cols[b]) for a, b in solve(sub))
    return chosen


def _assign_dp(weights: list[list[float]]) -> list[tuple[int, int]]:
    """Exact assignment via DP over face bitmasks, reconstructed so that the
    (row, col) pair sequence is lexicographically smallest among optima."""
    n = len(weights)
    m = len(weights[0])
    full = (1 << m) - 1

    # best[i][mask]: max total matching rows i.. using only faces in mask
    best = [[0.0] * (full + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = weights[i]
        nxt = best[i + 1]
        cur = best[i]
        for mask in range(full + 1):
            value = nxt[mask]
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                j = bit.bit_length() - 1
                w = row[j]
                if w > 0.0:
                    cand = w + nxt[mask ^ bit]
                    if cand > value:
                        value = cand
            cur[mask] = value

    chosen: list[tuple[int, int]] = []
    mask = full
    for i in range(n):
        target = best[i][mask]
        for j in range(m):
            bit = 1 << j
            if mask & bit and weights[i][j] > 0.0:
                if abs(weights[i][j] + best[i + 1][mask ^ bit] - target) <= _TOL:
                    chosen.append((i, j))
                    mask ^= bit
                    break
    return chosen


def _assign_scipy(weights: list[list[float]]) -> list[tuple[int, int]]:
    """Fallback for wide frames: scipy optimum plus greedy lexicographic fix."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    arr = np.asarray(weights, dtype=float)

    def max_total(rows: list[int], cols: list[int]) -> float:
        if not rows or not cols:
            return 0.0
        sub = arr[np.ix_(rows, cols)]
        # Pad with zero-weight dummy columns so rows may stay unmatched.
        padded = np.hstack([sub, np.zeros((len(rows), len(rows)))])
        ri, ci = linear_sum_assignment(padded, maximize=True)
        return float(padded[ri, ci].sum())

    rows = list(range(arr.shape[0]))
    cols = list(range(arr.shape[1]))
    chosen: list[tuple[int, int]] = []
    target = max_total(rows, cols)
    for i in list(rows):
        matched = False
        for j in cols:
            w = float(arr[i, j])
            if w <= 0.0:
                continue
            rest = max_total([r for r in rows if r != i], [c for c in cols if c != j])
            if abs(w + rest - target) <= 1e-9:
                chosen.append((i, j))
                rows.remove(i)
                cols.remove(j)
                target = rest
                matched = True
                break
        if not matched:
            rows.remove(i)
    return chosen
