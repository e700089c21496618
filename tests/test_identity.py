import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import socialevents
from socialevents.cli import main
from socialevents.identity import (
    _assign_lexicographic,
    box_overlap,
    head_region,
    match_faces_to_persons,
)
from socialevents.ingest import Box, FaceMeasurement, FrameObservation, PersonBox
from helpers import tick
from oracles import (assign_components, assign_conflict_free, assign_dp, best_assignment_total,
                     dense_association)
from synth import make_video, write_observations


def face(box, conf=0.9):
    return FaceMeasurement(box, conf, None, False)


def frame(persons, faces, t=0.0):
    return FrameObservation("v", tick(t), tuple(persons), tuple(faces))


class TestHeadRegion:
    def test_full_height_box(self):
        assert head_region(Box(0.0, 0.0, 0.4, 1.0)) == Box(0.0, 0.0, 0.4, 0.5)

    def test_general_box(self):
        region = head_region(Box(0.2, 0.4, 0.6, 0.8))
        assert list(region) == pytest.approx([0.2, 0.4, 0.6, 0.6])


class TestBoxOverlap:
    def test_identical(self):
        assert box_overlap(Box(0.1, 0.1, 0.5, 0.5), Box(0.1, 0.1, 0.5, 0.5)) == 1.0

    def test_disjoint(self):
        assert box_overlap(Box(0.0, 0.0, 0.2, 0.2), Box(0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_half_contained(self):
        assert box_overlap(Box(0, 0, 1, 1), Box(0, 0, 0.5, 1)) == pytest.approx(0.5)

    def test_touching_edges_is_zero(self):
        assert box_overlap(Box(0.0, 0.0, 0.5, 1.0), Box(0.5, 0.0, 1.0, 1.0)) == 0.0


class TestMatching:
    def test_single_face_in_head_region(self):
        person = PersonBox(4, Box(0.1, 0.0, 0.5, 1.0))  # head region y in [0, 0.5]
        f = face(Box(0.2, 0.1, 0.4, 0.4))
        assoc = match_faces_to_persons(frame([person], [f]))
        assert len(assoc.pairs) == 1
        pid, fidx, overlap = assoc.pairs[0]
        assert (pid, fidx) == (4, 0)
        assert overlap > 0
        assert assoc.unmatched_faces == ()

    def test_cross_overlap_assignment_maximizes_total(self):
        # weights {(p0,f0)=0.6, (p0,f1)=0.1, (p1,f0)=0.2, (p1,f1)=0.5}
        chosen = _assign_lexicographic([[0.6, 0.1], [0.2, 0.5]])
        assert chosen == [(0, 0), (1, 1)]  # 1.1 beats 0.3

    def test_zero_overlap_face_unmatched(self):
        person = PersonBox(0, Box(0.1, 0.0, 0.5, 1.0))
        near = face(Box(0.2, 0.1, 0.4, 0.4))
        far = face(Box(0.6, 0.7, 0.9, 0.95))  # disjoint from every head region
        assoc = match_faces_to_persons(frame([person], [near, far]))
        assert [p[1] for p in assoc.pairs] == [0]
        assert assoc.unmatched_faces == (1,)

    def test_empty_inputs(self):
        person = PersonBox(0, Box(0.1, 0.0, 0.5, 1.0))
        assert match_faces_to_persons(frame([], [face(Box(0.2, 0.1, 0.4, 0.4))])).pairs == ()
        assert match_faces_to_persons(frame([person], [])).pairs == ()

    def test_lexicographic_tie_break(self):
        # two identical persons and faces: all weights equal, smallest pairs win
        chosen = _assign_lexicographic([[0.5, 0.5], [0.5, 0.5]])
        assert chosen == [(0, 0), (1, 1)]


def random_frame(rng, max_side=6):
    persons = []
    n = rng.randint(0, max_side)
    for i in range(n):
        x1 = rng.uniform(0, 0.7)
        y1 = rng.uniform(0, 0.4)
        persons.append(PersonBox(i, Box(x1, y1, x1 + rng.uniform(0.1, 0.3), y1 + rng.uniform(0.2, 0.5))))
    faces = []
    for _ in range(rng.randint(0, max_side)):
        x1 = rng.uniform(0, 0.8)
        y1 = rng.uniform(0, 0.8)
        faces.append(face(Box(x1, y1, x1 + rng.uniform(0.02, 0.2), y1 + rng.uniform(0.02, 0.2))))
    return frame(persons, faces)


class TestMatchingProperties:
    def test_total_matches_brute_force_on_500_frames(self):
        rng = random.Random(1234)
        for _ in range(500):
            fr = random_frame(rng)
            assoc = match_faces_to_persons(fr)
            total = sum(p[2] for p in assoc.pairs)
            weights = [
                [box_overlap(head_region(p.box), f.box) for f in fr.faces]
                for p in sorted(fr.persons, key=lambda p: p.person_id)
            ]
            assert total == pytest.approx(best_assignment_total(weights), abs=1e-9)

    def test_partial_injection(self):
        rng = random.Random(99)
        for _ in range(200):
            assoc = match_faces_to_persons(random_frame(rng))
            pids = [p[0] for p in assoc.pairs]
            fidx = [p[1] for p in assoc.pairs]
            assert len(pids) == len(set(pids))
            assert len(fidx) == len(set(fidx))
            assert all(p[2] > 0 for p in assoc.pairs)

    def test_face_order_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(100):
            fr = random_frame(rng)
            assoc = match_faces_to_persons(fr)
            order = list(range(len(fr.faces)))
            rng.shuffle(order)
            shuffled = frame(fr.persons, [fr.faces[j] for j in order])
            assoc2 = match_faces_to_persons(shuffled)
            # compare person -> face geometry, not raw indices
            geo1 = {p: fr.faces[j].box for p, j, _ in assoc.pairs}
            geo2 = {p: shuffled.faces[j].box for p, j, _ in assoc2.pairs}
            assert geo1 == geo2

    def test_solver_agrees_with_dp_oracle(self):
        # half the matrices draw from a few values whose sums tie, some only
        # up to rounding (0.1 + 0.2 != 0.3), to exercise the tolerance
        rng = random.Random(5)
        ties = [0.0, 0.1, 0.125, 0.25, 0.5, 0.1 + 0.2, 0.3]
        for k in range(500):
            n, m = rng.randint(1, 8), rng.randint(1, 12)
            if k % 2:
                weights = [[rng.choice(ties) for _ in range(m)] for _ in range(n)]
            else:
                weights = [
                    [rng.choice([0.0, rng.random()]) for _ in range(m)] for _ in range(n)
                ]
            assert _assign_lexicographic(weights) == assign_dp(weights)

    def test_lexicographic_smallest_among_optima(self):
        # tie-heavy discrete weights force many equal-total optima; the
        # solver must return the lexicographically smallest pair sequence
        rng = random.Random(21)
        for _ in range(300):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            weights = [
                [rng.choice([0.0, 0.25, 0.25, 0.5]) for _ in range(m)]
                for _ in range(n)
            ]
            expected = _brute_lex_smallest(weights)
            assert assign_dp(weights) == expected
            assert _assign_lexicographic(weights) == expected
            assert sorted(assign_components(weights)) == expected


def _brute_lex_smallest(weights):
    """Enumerate every partial injection; keep the max-total ones and return
    the lexicographically smallest pair sequence among them."""
    n = len(weights)
    m = len(weights[0]) if weights else 0
    solutions = []

    def rec(i, used, total, chosen):
        if i == n:
            solutions.append((total, list(chosen)))
            return
        rec(i + 1, used, total, chosen)
        for j in range(m):
            if j not in used and weights[i][j] > 0.0:
                chosen.append((i, j))
                rec(i + 1, used | {j}, total + weights[i][j], chosen)
                chosen.pop()

    rec(0, frozenset(), 0.0, [])
    best = max(total for total, _ in solutions)
    optimal = [chosen for total, chosen in solutions if abs(total - best) <= 1e-12]
    return min(optimal)


def test_wide_frame_matches_brute_force():
    rng = random.Random(11)
    persons = [PersonBox(i, Box(i / 6 + 0.01, 0.0, (i + 1) / 6 - 0.01, 1.0)) for i in range(6)]
    faces = []
    for _ in range(18):
        x1 = rng.uniform(0, 0.9)
        y1 = rng.uniform(0, 0.45)
        faces.append(face(Box(x1, y1, min(1.0, x1 + 0.08), min(1.0, y1 + 0.08))))
    assoc = match_faces_to_persons(frame(persons, faces))
    weights = [
        [box_overlap(head_region(p.box), f.box) for f in faces] for p in persons
    ]
    total = sum(p[2] for p in assoc.pairs)
    # a permutation search is infeasible at 18 faces; search each person's
    # positive-overlap candidates instead
    assert total == pytest.approx(_best_total_small_rows(weights), abs=1e-9)


def _best_total_small_rows(weights):
    n = len(weights)
    best = [0.0]

    def search(i, used, acc):
        if i == n:
            best[0] = max(best[0], acc)
            return
        search(i + 1, used, acc)
        for j, w in enumerate(weights[i]):
            if w > 0 and j not in used:
                search(i + 1, used | {j}, acc + w)

    search(0, frozenset(), 0.0)
    return best[0]


def contested_frame(rng, max_persons, min_faces, max_faces, t=0.0):
    """A crowded frame: faces drawn inside random persons' head regions, with
    a share of exact duplicate person and face boxes to force IoU ties."""
    persons = []
    for pid in rng.sample(range(40), rng.randint(2, max_persons)):
        if persons and rng.random() < 0.15:
            box = rng.choice(persons).box
        else:
            x1 = rng.uniform(0.0, 0.9)
            y1 = rng.uniform(0.0, 0.3)
            box = Box(x1, y1, x1 + rng.uniform(0.04, 0.1), y1 + rng.uniform(0.3, 0.6))
        persons.append(PersonBox(pid, box))
    faces = []
    for _ in range(rng.randint(min_faces, max_faces)):
        if faces and rng.random() < 0.25:
            faces.append(rng.choice(faces))
            continue
        head = head_region(rng.choice(persons).box)
        w = rng.uniform(0.02, 0.06)
        h = rng.uniform(0.03, 0.08)
        x1 = rng.uniform(head.x1 - w / 2, head.x2 - w / 2)
        y1 = rng.uniform(head.y1 - h / 2, head.y2 - h / 2)
        faces.append(face(Box(x1, y1, x1 + w, y1 + h)))
    return frame(persons, faces, t)


def _weights(fr):
    return [
        [box_overlap(head_region(p.box), f.box) for f in fr.faces]
        for p in sorted(fr.persons, key=lambda p: p.person_id)
    ]


# sha256 of the associations of 300 seeded contested frames: the pairs, their
# overlaps and the unmatched faces are pinned, whichever solver produces them.
ASSOCIATION_DIGEST = "f891355b2cede25dcfd32a6c2d4de109532a1129db052fc46d79dd64a9da9800"


def test_contested_association_bytes_match_digest():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    contested = 0
    t = 0
    while contested < 300:
        fr = contested_frame(rng, 14, 8, 14, t * 0.5)
        t += 1
        if assign_conflict_free(_weights(fr)) is not None:
            continue
        contested += 1
        assoc = match_faces_to_persons(fr)
        digest.update(repr((assoc.pairs, assoc.unmatched_faces)).encode() + b"\n")
    assert digest.hexdigest() == ASSOCIATION_DIGEST


def test_matching_equals_whole_matrix_dp():
    # the DP over the full weight matrix is the reference for every frame
    # the DP can take, contested or not
    rng = random.Random(77)
    for _ in range(150):
        fr = contested_frame(rng, 8, 1, 11)
        assoc = match_faces_to_persons(fr)
        persons = sorted(p.person_id for p in fr.persons)
        expected = [(persons[i], j) for i, j in assign_dp(_weights(fr))]
        assert [(pid, j) for pid, j, _ in assoc.pairs] == expected


def _large_component_frame():
    """One wide head region over 13 faces, two of which a second person
    contests: a single contested 2 x 13 component."""
    wide = PersonBox(0, Box(0.0, 0.0, 1.0, 0.4))
    narrow = PersonBox(1, Box(0.02, 0.0, 0.16, 0.4))
    faces = [face(Box(0.01 + 0.075 * k, 0.02, 0.07 + 0.075 * k, 0.12)) for k in range(13)]
    return FrameObservation("wide", 0, (wide, narrow), tuple(faces))


def test_large_component_matches_brute_force():
    fr = _large_component_frame()
    assoc = match_faces_to_persons(fr)
    weights = _weights(fr)
    assert assign_conflict_free(weights) is None
    assert sum(w for _, _, w in assoc.pairs) == pytest.approx(
        _best_total_small_rows(weights), abs=1e-9)
    assert [(i, j) for i, j, _ in assoc.pairs] == _brute_lex_smallest(weights)


_GRID = 40  # box edges on a 1/40 grid, so that boxes touch exactly and overlaps tie
_TINY = 1e-170  # _TINY * _TINY underflows to 0.0


@st.composite
def crowded_frames(draw):
    """Up to 30 persons x 30 faces. Persons are lanes of the grid, some
    overlapping, some at the origin, or copies of an earlier person's box.
    Faces sit in a head region, touch one exactly, copy an earlier face or
    lie at the origin: a sliver, or a speck whose intersection with a head
    region underflows."""
    persons = []
    n = draw(st.integers(0, 30))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    for pid in ids:
        kind = draw(st.integers(0, 9))
        if persons and kind == 0:
            box = persons[draw(st.integers(0, len(persons) - 1))].box
        else:
            x1 = 0 if kind == 1 else draw(st.integers(0, _GRID - 1))  # 1: at the origin
            x2 = min(_GRID, x1 + draw(st.integers(1, 4)))
            y1 = 0 if kind == 1 else draw(st.sampled_from((0, 4, 10)))
            box = Box(x1 / _GRID, y1 / _GRID, x2 / _GRID, (y1 + draw(st.sampled_from((20, 24)))) / _GRID)
        persons.append(PersonBox(pid, box))
    faces = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 9))
        if faces and kind == 0:
            faces.append(faces[draw(st.integers(0, len(faces) - 1))])
            continue
        if kind == 1 or not persons:
            box = Box(0.0, 0.0, _TINY, draw(st.sampled_from((_TINY, 0.05))))
        else:
            head = head_region(persons[draw(st.integers(0, len(persons) - 1))].box)
            if kind == 2 and head.x2 < 1.0:  # touches the head region's right edge
                box = Box(head.x2, head.y1, min(1.0, head.x2 + 0.05), head.y1 + 0.05)
            else:
                x1 = min(1.0 - 1 / (2 * _GRID),
                         max(0.0, head.x1 + draw(st.integers(-2, 4)) / (2 * _GRID)))
                y1 = max(0.0, head.y1 + draw(st.integers(-2, 4)) / (2 * _GRID))
                box = Box(x1, y1, min(1.0, x1 + draw(st.integers(1, 3)) / (2 * _GRID)),
                          y1 + draw(st.integers(1, 3)) / (2 * _GRID))
        faces.append(face(box))
    return frame(persons, faces)


# No shrinking: a frame of many draws shrinks for Hypothesis's full five
# minutes, while the falsifying frame itself is printed at once.
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(fr=crowded_frames())
@example(fr=frame([PersonBox(0, Box(0.0, 0.0, 0.1, 0.6)), PersonBox(1, Box(0.1, 0.0, 0.2, 0.6)),
                   PersonBox(2, Box(0.5, 0.0, 0.6, 0.6))],
                  [face(Box(0.0, 0.0, _TINY, _TINY)), face(Box(0.09, 0.1, 0.11, 0.12)),
                   face(Box(0.1, 0.1, 0.12, 0.12)), face(Box(0.52, 0.1, 0.54, 0.12))])).via(
    "an underflowing speck, a contested component and a lone edge")
@example(fr=frame([PersonBox(3, Box(0.0, 0.0, 0.1, 0.6))], [face(Box(0.0, 0.0, _TINY, _TINY))])).via(
    "an underflowing speck alone in a head region")
def test_association_matches_the_dense_matrix(fr):
    """Edges and components give the dense matrix's association: the same
    pairs, overlap floats and unmatched faces."""
    assert repr(match_faces_to_persons(fr)) == repr(dense_association(fr))


def test_boxes_whose_areas_underflow_associate_nothing(tmp_path):
    """A head region and a face that overlap at the origin, each of an area
    that underflows to 0.0, would have an overlap of 0.0 / 0.0: they make no
    edge, and detect writes its artifacts."""
    fr = frame([PersonBox(0, Box(0.0, 0.0, _TINY, _TINY))], [face(Box(0.0, 0.0, _TINY, _TINY))])
    assert match_faces_to_persons(fr) == ((), (0,))
    write_observations([fr], tmp_path / "obs.jsonl")
    assert main(["detect", "--input", str(tmp_path / "obs.jsonl"), "--out", str(tmp_path)]) == 0


def test_association_and_detect_import_no_numpy_or_scipy(tmp_path):
    # a fresh interpreter, so that no other test's imports are counted
    obs = tmp_path / "obs.jsonl"
    write_observations(make_video(3, min_frames=24, max_frames=40) + [_large_component_frame()], obs)
    script = (
        "import sys\n"
        "from socialevents import cli\n"
        "from socialevents.identity import match_faces_to_persons\n"
        "from socialevents.ingest import load_observations\n"
        "wide = [f for f in load_observations(sys.argv[1]) if f.video_id == 'wide']\n"
        "assert len(wide[0].faces) == 13 and len(match_faces_to_persons(wide[0]).pairs) == 2\n"
        "code = cli.main(['detect', '--input', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    src = str(Path(socialevents.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", script, str(obs), str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
