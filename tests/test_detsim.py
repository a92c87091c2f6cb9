import math
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plotquest.corpus import sample_plot_data
from plotquest.detsim import (
    CHAR_CONFUSION, DIGIT_CONFUSION, PAPER_LIKE, ZERO_NOISE, APPool, Detection, DetectionSet,
    NoiseModel, _candidates, _is_numericish, average_precision, corrupt_text, get_preset, iou,
    ocr_accuracy, perturb, perturb_with_provenance,
)
from plotquest.plotgen import ELEMENT_CLASSES, VisualElement
from plotquest.plotgen import make_plot_spec, render

from conftest import make_data, rendered


# -- iou ---------------------------------------------------------------------

def test_iou_identical_boxes():
    assert iou((3, 4, 10, 20), (3, 4, 10, 20)) == 1.0


def test_iou_disjoint_boxes():
    assert iou((0, 0, 10, 10), (100, 100, 5, 5)) == 0.0


def test_iou_half_overlap_by_area_arithmetic():
    a, b = (0, 0, 10, 10), (5, 0, 10, 10)
    inter = 5 * 10  # overlap is a 5x10 strip
    union = 100 + 100 - inter
    assert iou(a, b) == pytest.approx(inter / union)
    assert iou(a, b) == pytest.approx(1 / 3)


def test_iou_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = tuple(rng.uniform(0, 50, 2)) + tuple(rng.uniform(1, 30, 2))
        b = tuple(rng.uniform(0, 50, 2)) + tuple(rng.uniform(1, 30, 2))
        assert iou(a, b) == pytest.approx(iou(b, a))
        assert 0.0 <= iou(a, b) <= 1.0


def test_iou_rejects_negative_extent():
    with pytest.raises(ValueError):
        iou((0, 0, -1, 5), (0, 0, 1, 1))


_FLOAT_MAX = sys.float_info.max
# every box check_element accepts: four finite numbers, width and height >= 0
_finite_boxes = st.tuples(
    st.floats(-_FLOAT_MAX, _FLOAT_MAX), st.floats(-_FLOAT_MAX, _FLOAT_MAX),
    st.floats(0.0, _FLOAT_MAX), st.floats(0.0, _FLOAT_MAX),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.lists(_finite_boxes, min_size=1, max_size=4), b=st.lists(_finite_boxes, max_size=3))
def test_iou_of_finite_boxes_is_in_unit_interval_without_warnings(a, b):
    # finite boxes near 1e308 used to overflow to a NaN IOU with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = np.array([[iou(x, y) for y in a + b] for x in a])
    assert ((m >= 0.0) & (m <= 1.0)).all(), m  # a NaN fails both


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=_finite_boxes, b=_finite_boxes)
def test_iou_equals_the_matrix_kernel_on_one_pair(a, b):
    assert iou(a, b) == iou_matrix([a], [b])[0, 0]
    # coordinates shared by both boxes, so that overlaps and identical
    # degenerate boxes come up at every scale
    c = (a[0], b[1], a[2], b[3])
    assert iou(a, c) == iou_matrix([a], [c])[0, 0]
    assert iou(c, c) == iou_matrix([c], [c])[0, 0]


# ordinary-sized boxes at a huge coordinate once lost their extents to the
# rescale, which scaled the pair by its largest number, the offset included
_OFFSET_PAIR = ((2.0 ** 600, 0.0, 1.0, 1.0), (2.0 ** 600, 0.0, 2.0, 2.0))
_SEPARATED_FLAT_PAIR = ((2.0 ** 600, 1e-300, 0.0, 0.0), (2.0 ** 600, 2e-300, 0.0, 0.0))


def test_iou_keeps_a_pairs_extents_at_a_huge_coordinate():
    assert iou(*_OFFSET_PAIR) == 0.25
    assert iou(*_SEPARATED_FLAT_PAIR) == 0.0  # distinct zero-area boxes, not identical ones
    for a, b in (_OFFSET_PAIR, _SEPARATED_FLAT_PAIR):
        assert iou(a, b) == iou_matrix([a], [b])[0, 0]


def test_candidates_agree_with_iou_at_a_huge_coordinate():
    for a, b in (_OFFSET_PAIR, _SEPARATED_FLAT_PAIR):
        for lowest in THRESHOLDS:
            got = _candidates([Detection("bar", a, 1.0)], [VisualElement("bar", b)], lowest)
            assert got == [[(0, iou(a, b))] if iou(a, b) >= lowest else []]


def test_iou_of_a_pair_farther_apart_than_the_float_range_is_zero():
    # moving the pair to its origin overflows the far box's coordinate to inf
    a, b = (-1.7e308, 0.0, 1e308, 1.0), (1.7e308, 0.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert iou(a, b) == iou(b, a) == 0.0
        assert iou_matrix([a], [b])[0, 0] == 0.0


# -- perturb -----------------------------------------------------------------

def _det_key(d):
    if d is None:
        return None
    return (d.cls, tuple(float(v) for v in d.bbox), d.score, d.text, d.color)


def _rendered_plots(corpus, n):
    return [render(make_plot_spec(sample_plot_data(corpus, seed), seed))[1] for seed in range(n)]


def test_zero_noise_is_identity(corpus):
    for seed, ann in enumerate(_rendered_plots(corpus, 10)):
        det, prov = perturb_with_provenance(ann, ZERO_NOISE.with_seed(seed))
        assert [e for e, _ in prov] == ann.elements
        assert [d for _, d in prov] == det.detections
        assert [_det_key(d) for d in det.detections] == \
            [(e.cls, e.bbox, 1.0, e.text, e.color) for e in ann.elements]
        assert det.style == ann.style


def test_drop_everything(corpus):
    data = sample_plot_data(corpus, 4)
    _, ann = render(make_plot_spec(data, 2))
    det = perturb(ann, NoiseModel(drop_prob=1.0))
    assert det.detections == []


def test_perturb_deterministic(corpus):
    for seed, ann in enumerate(_rendered_plots(corpus, 10)):
        for noise in NOISES:
            (a, a_prov), (b, b_prov) = (perturb_with_provenance(ann, noise.with_seed(seed)) for _ in range(2))
            assert a.to_json() == b.to_json()
            assert [(e, _det_key(d)) for e, d in a_prov] == [(e, _det_key(d)) for e, d in b_prov]


def test_perturb_different_seeds_differ(corpus):
    data = sample_plot_data(corpus, 4)
    _, ann = render(make_plot_spec(data, 2))
    a = perturb(ann, PAPER_LIKE.with_seed(1))
    b = perturb(ann, PAPER_LIKE.with_seed(2))
    assert a.to_json() != b.to_json()


def test_jittered_bar_edge_shifts_reading():
    # an 80 px edge error on an axis where 80 px equal 80 units turns a
    # gold reading of 680 into 760
    from plotquest.sie import read
    axes = [
        Detection("ytick_label", (10, 794, 20, 12), 1.0, text="0"),  # centre 800
        Detection("ytick_label", (10, 294, 20, 12), 1.0, text="500"),  # centre 300: 1 unit per pixel
        Detection("xtick_label", (100, 830, 40, 12), 1.0, text="2008"),
    ]
    gold_box = (100.0, 800.0 - 680.0, 40.0, 680.0)
    jittered = (100.0, 800.0 - 760.0, 40.0, 760.0)
    for box, value in ((gold_box, 680.0), (jittered, 760.0)):
        reading = read(DetectionSet(axes + [Detection("bar", box, 1.0, color=0)]))
        assert reading.table.cells == [[pytest.approx(value)]]


# -- corrupt_text ------------------------------------------------------------

def test_corruption_fixtures():
    assert corrupt_text("Indoor", NoiseModel(ocr_truncate_prob=1.0), 0) == "Indoo"
    assert corrupt_text("Operator", NoiseModel(ocr_char_sub_prob=1.0), 0) == "Dperator"
    assert corrupt_text("2008", NoiseModel(ocr_sign_digit_prob=1.0), 4) == "200B"
    assert corrupt_text("2009", NoiseModel(ocr_sign_digit_prob=1.0), 0) == "-2009"
    assert corrupt_text("100", NoiseModel(ocr_sign_digit_prob=1.0), 0) == "-100"


def test_corrupt_text_zero_noise_identity():
    for s in ("Indoor", "2008", "", "price of diesel"):
        assert corrupt_text(s, ZERO_NOISE, 7) == s


def test_substitution_preserves_length():
    noise = NoiseModel(ocr_char_sub_prob=0.5)
    rng = np.random.default_rng(3)
    for k in range(300):
        n = int(rng.integers(0, 20))
        s = "".join(chr(int(c)) for c in rng.integers(48, 123, n))
        assert len(corrupt_text(s, noise, k)) == len(s)


def test_truncation_only_shortens():
    noise = NoiseModel(ocr_truncate_prob=0.7)
    rng = np.random.default_rng(4)
    for k in range(300):
        n = int(rng.integers(1, 20))
        s = "x" * n
        out = corrupt_text(s, noise, k)
        assert len(out) in (n, max(n - 1, 1))
        assert s.startswith(out)


def test_corrupt_text_deterministic_per_seed():
    noise = NoiseModel(ocr_char_sub_prob=0.3, ocr_truncate_prob=0.3, ocr_sign_digit_prob=0.3)
    for seed in range(50):
        assert corrupt_text("Operator 2008", noise, seed) == corrupt_text("Operator 2008", noise, seed)


# -- average precision -------------------------------------------------------

def test_ap_perfect_detections(corpus):
    data = sample_plot_data(corpus, 9)
    _, ann = render(make_plot_spec(data, 9))
    det = perturb(ann, ZERO_NOISE)
    for thr in (0.5, 0.75, 0.9):
        per_class, m = average_precision([(det, ann)], thr)
        assert m == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in per_class.values())


def test_ap_half_recall_is_half():
    # single-point PR curve at recall 0.5, precision 1 -> area 0.5
    data = make_data([[3.0, 7.0]])
    _, _, ann = rendered(data, "vbar")
    bars = [e for e in ann.elements if e.cls == "bar"]
    det = DetectionSet([Detection("bar", bars[0].bbox, 1.0, color=bars[0].color)])
    per_class, _ = average_precision([(det, ann)], 0.5)
    for thr in (0.5, 0.75, 0.9):
        per_class, _ = average_precision([(det, ann)], thr)
        assert per_class["bar"] == pytest.approx(0.5)


def test_ap_monotone_in_threshold(corpus):
    for seed in range(20):
        data = sample_plot_data(corpus, seed)
        _, ann = render(make_plot_spec(data, seed))
        det = perturb(ann, PAPER_LIKE.with_seed(seed))
        maps = [average_precision([(det, ann)], thr)[1] for thr in (0.5, 0.75, 0.9)]
        assert maps[0] >= maps[1] >= maps[2]


def test_ap_dataset_pooling(corpus):
    plots = []
    for seed in range(6):
        data = sample_plot_data(corpus, seed)
        _, ann = render(make_plot_spec(data, seed))
        plots.append((perturb(ann, ZERO_NOISE), ann))
    per_class, m = average_precision(plots, 0.9)
    assert m == pytest.approx(1.0)
    with pytest.raises(ValueError):
        average_precision(plots[:1], 1.5)


def test_ap_of_no_plots_is_an_error():
    # no plots is nothing scored, not an mAP of 0; a plot without gold is scored
    with pytest.raises(ValueError, match="no plots"):
        average_precision([], 0.5)
    with pytest.raises(ValueError, match="no plots"):
        APPool(THRESHOLDS).result()
    _, _, template = rendered(make_data([[3.0, 7.0]]), "vbar")
    assert average_precision([(DetectionSet([]), replace(template, elements=[]))], 0.5) == ({}, 0.0)


def test_appool_validates_thresholds():
    for bad in ((), (0.5, 1.0), (0.0,)):
        with pytest.raises(ValueError):
            APPool(bad)


# -- the IOU matrix kernel ---------------------------------------------------
# APPool once scored each plot through one IOU matrix of all its detections
# against all its golds, masked to same-class pairs; kept as the reference
# for the pair rule ``iou`` and the candidate search that replaced it, with
# the pair rule's move to each huge pair's own origin.

def iou_matrix(a, b) -> np.ndarray:
    """Intersection over union of every (x, y, w, h) box in ``a`` against
    every box in ``b``, as an len(a) x len(b) float64 matrix of values in
    [0, 1]; no edge, area or union overflows for finite boxes closer than
    the float range."""
    A = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    B = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if (A[:, 2:] < 0).any() or (B[:, 2:] < 0).any():
        raise ValueError("box extents must be non-negative")
    shape = (len(A), len(B))
    ax, ay, aw, ah = (np.broadcast_to(c[:, None], shape) for c in A.T)
    bx, by, bw, bh = (np.broadcast_to(c[None, :], shape) for c in B.T)
    big = 2.0 ** 500
    huge = (np.abs(A).max(axis=1, initial=0.0)[:, None] > big) | (np.abs(B).max(axis=1, initial=0.0)[None, :] > big)
    # a pair farther apart than the float range moves to inf, and its
    # unscaled areas may overflow: its IOU is still 0
    with np.errstate(over="ignore"):
        # IOU does not change with translation or scale: move each pair with
        # a number above 2**500 to its own origin, then bring its numbers
        # below 1 by a power of two; boxes of ordinary size are never moved
        # or rescaled
        ox, oy = np.where(huge, np.minimum(ax, bx), 0.0), np.where(huge, np.minimum(ay, by), 0.0)
        ax, ay, bx, by = ax - ox, ay - oy, bx - ox, by - oy
        largest = np.max([ax, ay, aw, ah, bx, by, bw, bh], axis=0)  # all >= 0 once moved
        k = np.where(huge, -np.frexp(largest)[1], 0)
        ax, ay, aw, ah, bx, by, bw, bh = (np.ldexp(v, k) for v in (ax, ay, aw, ah, bx, by, bw, bh))
        ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
        iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
        inter = ix * iy
        union = aw * ah + bw * bh - inter
    degenerate = union <= 0.0
    if not degenerate.any():
        return np.minimum(inter / union, 1.0)  # edge rounding can put inter a few ulps above union
    # two degenerate boxes, compared as moved and scaled; identical ones
    # still count as a perfect match
    same = (ax == bx) & (ay == by) & (aw == bw) & (ah == bh)
    return np.where(degenerate, same.astype(np.float64), np.minimum(inter / np.where(degenerate, 1.0, union), 1.0))


def _matrix_candidates(dets, golds, lowest):
    """Per detection, the (gold index, IOU) of the golds of its class that
    clear ``lowest``, in plot order, read off one masked IOU matrix."""
    if not dets:
        return []
    codes = {}
    det_codes = [codes.setdefault(d.cls, len(codes)) for d in dets]
    gold_codes = [codes.get(e.cls, -1) for e in golds]
    m = iou_matrix([d.bbox for d in dets], [e.bbox for e in golds])
    same_cls = np.array(det_codes)[:, None] == np.array(gold_codes, dtype=np.int64)[None, :]
    rows, cols = np.nonzero(same_cls & (m >= lowest))
    candidates = [[] for _ in dets]
    for i, g, v in zip(rows.tolist(), cols.tolist(), m[rows, cols].tolist()):
        candidates[i].append((g, v))
    return candidates


def test_iou_matrix_matches_pairwise_iou():
    rng = np.random.default_rng(1)
    a = [tuple(rng.integers(0, 6, 2)) + tuple(rng.integers(0, 4, 2)) for _ in range(9)]
    b = [tuple(rng.integers(0, 6, 2)) + tuple(rng.integers(0, 4, 2)) for _ in range(7)] + [a[0]]
    M = iou_matrix(a, b)
    assert M.shape == (9, 8)
    assert M.tolist() == [[_oracle_iou(x, y) for y in b] for x in a]
    assert iou_matrix([], b).shape == (0, 8)


# -- brute-force AP oracle ---------------------------------------------------
# The per-pair scalar implementation that APPool replaced, kept as the
# reference: the pooled kernel must give exactly (==) the same numbers.

def _oracle_iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    if aw < 0 or ah < 0 or bw < 0 or bh < 0:
        raise ValueError("box extents must be non-negative")
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    if union <= 0.0:
        # two degenerate boxes; identical ones still count as a perfect match
        return 1.0 if a == b else 0.0
    return inter / union


def _oracle_match_plot(preds, golds, thr):
    """Greedy one-to-one matching in score order; returns (score, is_tp)."""
    order = sorted(range(len(preds)), key=lambda k: (-preds[k].score, k))
    taken = [False] * len(golds)
    out = []
    for k in order:
        best, best_iou = -1, thr
        for g, gold in enumerate(golds):
            if taken[g]:
                continue
            v = _oracle_iou(preds[k].bbox, gold.bbox)
            if v >= best_iou:
                best, best_iou = g, v
        if best >= 0:
            taken[best] = True
            out.append((preds[k].score, True))
        else:
            out.append((preds[k].score, False))
    return out


def _oracle_ap_from_records(records, n_gold):
    """Every-point interpolated AP from pooled (score, is_tp) records."""
    if n_gold == 0:
        return 0.0
    if not records:
        return 0.0
    records = sorted(records, key=lambda r: -r[0])
    tp = np.cumsum([1 if hit else 0 for _, hit in records])
    fp = np.cumsum([0 if hit else 1 for _, hit in records])
    recall = tp / n_gold
    precision = tp / np.maximum(tp + fp, 1)
    # precision envelope, then area under the recall steps
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, env):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def _oracle_average_precision(plots, thr):
    classes = sorted({e.cls for _, g in plots for e in g.elements})
    per_class = {}
    for cls in classes:
        records = []
        n_gold = 0
        for p, g in plots:
            gold_elems = [e for e in g.elements if e.cls == cls]
            n_gold += len(gold_elems)
            records.extend(_oracle_match_plot(p.by_class(cls), gold_elems, thr))
        per_class[cls] = _oracle_ap_from_records(records, n_gold)
    m_ap = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, m_ap


THRESHOLDS = (0.5, 0.75, 0.9)
HEAVY = NoiseModel(box_jitter_sigma=6.0, drop_prob=0.35, misclass_prob=0.2, ocr_char_sub_prob=0.4,
                   ocr_truncate_prob=0.4, ocr_sign_digit_prob=0.4, seed=5)


def _assert_matches_oracle(plots):
    pool = APPool(THRESHOLDS)
    for d, a in plots:
        pool.add(d, a)
    for thr, got in zip(THRESHOLDS, pool.result()):
        want = _oracle_average_precision(plots, thr)
        assert got == want  # per-class dict and mAP, exactly
        assert average_precision(plots, thr) == want


def _grid_plot(rng, template, classes, n_gold, n_pred):
    """A plot on a coarse integer grid, so that duplicate boxes, IOU ties,
    score ties and zero-size boxes (identical or not) are all common."""
    def box():
        w, h = rng.integers(0, 4, 2)
        return tuple(float(v) for v in (*rng.integers(0, 5, 2), w, h))

    golds = [VisualElement(str(rng.choice(classes)), box()) for _ in range(n_gold)]
    if golds and n_gold > 1:
        golds.append(golds[0])  # a duplicated gold element
    dets = []
    for _ in range(n_pred):
        if golds and rng.random() < 0.5:
            src = golds[int(rng.integers(len(golds)))]
            cls, bbox = src.cls, src.bbox if rng.random() < 0.5 else box()
        else:
            cls, bbox = str(rng.choice(classes)), box()
        dets.append(Detection(cls, bbox, float(rng.choice([0.25, 0.5, 0.5, 1.0]))))
    if dets:
        dets.append(dets[-1])  # a duplicated detection, same score
    return DetectionSet(dets), replace(template, elements=golds)


def test_appool_equals_oracle_on_grid_plots():
    _, _, template = rendered(make_data([[3.0, 7.0]]), "vbar")
    classes = ["bar", "title", "xtick_label"]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        plots = [_grid_plot(rng, template, classes, int(rng.integers(0, 8)), int(rng.integers(0, 10)))
                 for _ in range(int(rng.integers(1, 6)))]
        _assert_matches_oracle(plots)


def test_appool_equals_oracle_on_edge_cases():
    _, _, template = rendered(make_data([[3.0, 7.0]]), "vbar")
    zero_a, zero_b = (1.0, 1.0, 0.0, 0.0), (2.0, 1.0, 0.0, 3.0)
    plot_a = replace(template, elements=[
        VisualElement("bar", (0.0, 0.0, 2.0, 2.0)), VisualElement("bar", (0.0, 0.0, 2.0, 2.0)),
        VisualElement("bar", zero_a), VisualElement("bar", zero_b)])
    plot_b = replace(template, elements=[VisualElement("title", (0.0, 0.0, 4.0, 1.0))])
    dets_a = DetectionSet([
        Detection("bar", (0.0, 0.0, 2.0, 2.0), 0.5), Detection("bar", (0.0, 0.0, 2.0, 2.0), 0.5),
        Detection("bar", zero_a, 0.5), Detection("bar", zero_b, 1.0), Detection("bar", zero_a, 0.25),
        # misclassified: the only "title" gold is in the other plot
        Detection("title", (0.0, 0.0, 4.0, 1.0), 1.0)])
    no_gold = replace(template, elements=[])
    cases = [
        [(dets_a, plot_a), (DetectionSet([]), plot_b)],
        [(DetectionSet([]), plot_a), (DetectionSet([]), plot_b)],
        [(dets_a, plot_a)],
        [(DetectionSet([]), no_gold)],
        [(dets_a, no_gold)],
    ]
    for plots in cases:
        _assert_matches_oracle(plots)
    per_class, _ = average_precision([(dets_a, plot_a)], 0.5)
    assert per_class["bar"] == 1.0  # both duplicates and both zero-size golds found


@pytest.mark.parametrize("noise", [PAPER_LIKE, HEAVY], ids=["paper_like", "heavy"])
def test_appool_equals_oracle_on_perturbed_plots(corpus, noise):
    plots = []
    for seed in range(25):
        _, ann = render(make_plot_spec(sample_plot_data(corpus, seed), seed))
        plots.append((perturb(ann, noise.with_seed(noise.seed + seed)), ann))
    _assert_matches_oracle(plots)


# -- candidate search ------------------------------------------------------

def _scaled(dets, ann, k):
    """The plot with every box scaled by 2**k: the same plot at another scale."""
    def scale(box):
        return tuple(math.ldexp(v, k) for v in box)
    return (DetectionSet([replace(d, bbox=scale(d.bbox)) for d in dets.detections]),
            replace(ann, elements=[replace(e, bbox=scale(e.bbox)) for e in ann.elements]))


def _assert_candidates_match_matrix(plots):
    for dets, ann in plots:
        for lowest in THRESHOLDS:
            want = _matrix_candidates(dets.detections, ann.elements, lowest)
            assert _candidates(dets.detections, ann.elements, lowest) == want


def test_candidates_equal_the_matrix_kernel_on_grid_plots():
    # touching edges, identical zero-area boxes and duplicate golds are
    # common on the integer grid; 2**1020 puts its coordinates near the
    # float max, with every box of the plot at one scale
    _, _, template = rendered(make_data([[3.0, 7.0]]), "vbar")
    classes = ["bar", "title", "xtick_label"]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        dets, ann = _grid_plot(rng, template, classes, int(rng.integers(0, 8)), int(rng.integers(0, 10)))
        _assert_candidates_match_matrix(_scaled(dets, ann, k) for k in (0, -600, 600, 1020))


@pytest.mark.parametrize("noise", [ZERO_NOISE, PAPER_LIKE, HEAVY], ids=["zero", "paper_like", "heavy"])
def test_candidates_equal_the_matrix_kernel_on_perturbed_plots(corpus, noise):
    plots = [render(make_plot_spec(sample_plot_data(corpus, seed), seed))[1] for seed in range(10)]
    plots += [rendered(make_data([[0.0, 7.0], [3.0, 0.0]]), plot_type)[2] for plot_type in ("vbar", "hbar")]
    pairs = [(perturb(ann, noise.with_seed(noise.seed + k)), ann) for k, ann in enumerate(plots)]
    # a zero value draws a zero-height bar: at zero noise its detection is
    # identical to it and scores 1.0 by the degenerate rule, while jitter
    # gives every detected box some height
    flat_ious = [v for d, a in pairs
                 for det, row in zip(d.detections, _candidates(d.detections, a.elements, 0.5))
                 for _, v in row if det.bbox[3] == 0.0]
    assert (1.0 in flat_ious) == noise.is_zero()
    _assert_candidates_match_matrix(_scaled(d, a, k) for d, a in pairs for k in (0, 1010, 1013))


def test_a_pair_scores_alike_whatever_else_its_plot_holds():
    # a coordinate above 2**500 once rescaled the whole plot's IOU matrix by
    # its power of two, which underflowed every ordinary pair to IOU 0: a
    # title 1e308 wide made a well-placed bar miss
    _, _, template = rendered(make_data([[3.0, 7.0]]), "vbar")
    bar = VisualElement("bar", (10.0, 20.0, 30.0, 40.0))
    title = VisualElement("title", (0.0, 0.0, 1e308, 10.0))
    det = DetectionSet([Detection("bar", (10.2, 20.0, 30.0, 40.0), 1.0)])
    for elements in ([bar], [bar, title]):
        for thr in THRESHOLDS:
            per_class, _ = average_precision([(det, replace(template, elements=elements))], thr)
            assert per_class["bar"] == 1.0


# -- corrupt_text oracle -----------------------------------------------------
# corrupt_text as it was before its per-call overhead was cut (one draw per
# character), kept verbatim as the reference apart from the name: the current
# code must consume the same random stream and give exactly the same text.

def _oracle_corrupt_text(s: str, noise: NoiseModel, seed: int) -> str:
    """Apply the OCR error model to one string, deterministically per seed."""
    rng = np.random.default_rng(seed)
    out = list(s)

    # character substitution: per-position, length preserving
    if noise.ocr_char_sub_prob > 0:
        for k, c in enumerate(out):
            if rng.random() < noise.ocr_char_sub_prob and c in CHAR_CONFUSION:
                out[k] = CHAR_CONFUSION[c]

    # sign/digit damage on numeric-looking strings
    if noise.ocr_sign_digit_prob > 0 and _is_numericish(s):
        if rng.random() < noise.ocr_sign_digit_prob:
            if rng.random() < 0.5:
                out.insert(0, "-")
            else:
                digit_pos = [k for k, c in enumerate(out) if c in DIGIT_CONFUSION]
                if digit_pos:
                    k = digit_pos[int(rng.integers(len(digit_pos)))]
                    out[k] = DIGIT_CONFUSION[out[k]]
                else:
                    out.insert(0, "-")

    # tail truncation
    if noise.ocr_truncate_prob > 0 and len(out) > 1:
        if rng.random() < noise.ocr_truncate_prob:
            out = out[:-1]

    return "".join(out)


NOISES = [ZERO_NOISE, PAPER_LIKE, HEAVY]
NOISE_IDS = ["zero", "paper_like", "heavy"]
# "" has nothing to corrupt; the second text is every confusable character;
# "347" is numeric with no confusable digit (the sign/digit damage inserts
# "-"); "2019" has confusable digits (one is picked with rng.integers)
EDGE_TEXTS = ["", "".join(CHAR_CONFUSION), "347", "2019", "-0.5e+3", "A"]
SIGN_DIGIT_ONLY = NoiseModel(ocr_sign_digit_prob=1.0)


@pytest.mark.parametrize("noise", [*NOISES, SIGN_DIGIT_ONLY, NoiseModel(ocr_char_sub_prob=1.0)],
                         ids=[*NOISE_IDS, "sign_digit_only", "substitute_all"])
def test_corrupt_text_equals_oracle_on_edge_texts(noise):
    for text in EDGE_TEXTS:
        for seed in range(300):
            assert corrupt_text(text, noise, seed) == _oracle_corrupt_text(text, noise, seed)


def test_corrupt_text_edge_texts_reach_every_branch():
    assert {corrupt_text("347", SIGN_DIGIT_ONLY, seed) for seed in range(40)} == {"-347"}
    damaged = {corrupt_text("2019", SIGN_DIGIT_ONLY, seed) for seed in range(40)}
    assert damaged == {"-2019", "Z019", "2O19", "20I9", "201q"}
    all_confusable = "".join(CHAR_CONFUSION)
    assert corrupt_text(all_confusable, NoiseModel(ocr_char_sub_prob=1.0), 3) == \
        "".join(CHAR_CONFUSION.values())


# -- the perturbation stream -------------------------------------------------
# perturb draws, from one generator per plot, a block each of drop uniforms,
# (n, 4) jitter normals, misclass uniforms, misclass picks and score uniforms,
# then every text's OCR noise in element order. These checks pin that layout
# and its consequences, not a verbatim copy of the code; determinism and the
# zero-noise identity are checked with perturb above.

def _only(noise, *names):
    """``noise`` with every component but the named ones switched off."""
    keep = {name: getattr(noise, name) for name in names}
    if "box_jitter_sigma" in names:
        keep["class_sigma"] = noise.class_sigma
    return NoiseModel(**keep, seed=noise.seed)


DROP = ("drop_prob",)
JITTER = ("box_jitter_sigma",)
OCR = ("ocr_char_sub_prob", "ocr_truncate_prob", "ocr_sign_digit_prob")


def _survivors(prov):
    return {k: d for k, (_, d) in enumerate(prov) if d is not None}


@pytest.mark.parametrize("noise", [PAPER_LIKE, HEAVY], ids=["paper_like", "heavy"])
def test_each_noise_component_draws_the_same_whatever_the_others_do(corpus, noise):
    n_dropped = n_text_after_drop = 0
    for seed, ann in enumerate(_rendered_plots(corpus, 25)):
        model = noise.with_seed(seed)
        full = _survivors(perturb_with_provenance(ann, model)[1])
        # drop-only and the full model drop the same elements
        assert set(_survivors(perturb_with_provenance(ann, _only(model, *DROP))[1])) == set(full)
        # jitter-only and jitter+drop give the same box to every survivor
        jitter = _survivors(perturb_with_provenance(ann, _only(model, *JITTER))[1])
        jitter_drop = _survivors(perturb_with_provenance(ann, _only(model, *JITTER, *DROP))[1])
        assert set(jitter_drop) == set(full)
        assert all(d.bbox == jitter[k].bbox for k, d in jitter_drop.items())
        # OCR-only and the full model give the same text to every survivor
        ocr = _survivors(perturb_with_provenance(ann, _only(model, *OCR))[1])
        assert all(d.text == ocr[k].text for k, d in full.items())
        n_dropped += len(ann.elements) - len(full)
        first_drop = min(set(range(len(ann.elements))) - set(full), default=len(ann.elements))
        n_text_after_drop += sum(1 for k, d in full.items() if k > first_drop and d.text is not None)
    assert n_dropped > 0 and n_text_after_drop > 0  # the checks above are not vacuous


def test_stream_blocks_come_in_the_documented_order():
    noise = HEAVY.with_seed(17)
    classes = list(ELEMENT_CLASSES)
    elements = [VisualElement(classes[k % len(classes)], (100.0 * k, 50.0, 60.0, 40.0),
                              text=f"Label {k}" if k % 3 else None) for k in range(60)]
    _, _, template = rendered(make_data([[3.0, 7.0]]), "vbar")
    n = len(elements)
    rng = np.random.default_rng(noise.seed)
    drop = rng.random(n) < noise.drop_prob
    jitter = rng.standard_normal((n, 4))
    mis = rng.random(n) < noise.misclass_prob
    pick = rng.integers(len(classes) - 1, size=n)
    score = 0.5 + 0.5 * rng.random(n)
    _, prov = perturb_with_provenance(replace(template, elements=elements), noise)
    sigma = noise.box_jitter_sigma
    assert [d is None for _, d in prov] == drop.tolist()
    for k, (e, d) in enumerate(prov):
        if d is None:
            continue
        x, y, _, _ = e.bbox
        assert (d.bbox[0] - x) / sigma == pytest.approx(jitter[k, 0], abs=1e-9)
        assert (d.bbox[1] - y) / sigma == pytest.approx(jitter[k, 1], abs=1e-9)
        others = [c for c in classes if c != e.cls]
        assert d.cls == (others[pick[k]] if mis[k] else e.cls)
        assert d.score == score[k]


@pytest.mark.parametrize("noise", [PAPER_LIKE, HEAVY], ids=["paper_like", "heavy"])
def test_noise_marginals_match_the_model(noise):
    # 24,000 wide boxes (the 0.25 px floor on width and height never binds)
    # spread over every class, so each rate and the jitter z-scores can be
    # checked against the model; seeds are fixed, so this is deterministic
    classes = list(ELEMENT_CLASSES)
    _, _, template = rendered(make_data([[3.0, 7.0]]), "vbar")
    elements = [VisualElement(classes[k % len(classes)], (10.0 * (k % 97), 5.0 * (k % 89), 60.0, 40.0))
                for k in range(4000)]
    ann = replace(template, elements=elements)
    n = dropped = survivors = misclassed = 0
    z = []
    for seed in range(6):
        for e, d in perturb_with_provenance(ann, noise.with_seed(seed))[1]:
            n += 1
            if d is None:
                dropped += 1
                continue
            survivors += 1
            misclassed += d.cls != e.cls
            sigma = noise.sigma_for(e.cls)
            (x, y, w, h), (bx, by, bw, bh) = e.bbox, d.bbox
            z += [(bx - x) / sigma, (by - y) / sigma, (bx + bw - x - w) / sigma, (by + bh - y - h) / sigma]
    assert n >= 20_000

    def within_4_sigma(hits, trials, p):
        return abs(hits / trials - p) <= 4 * (p * (1 - p) / trials) ** 0.5

    assert within_4_sigma(dropped, n, noise.drop_prob)
    assert within_4_sigma(misclassed, survivors, noise.misclass_prob)
    z = np.array(z)
    assert abs(z.mean()) <= 4 / len(z) ** 0.5
    assert abs(z.var() - 1.0) <= 4 * (2 / len(z)) ** 0.5


# -- ocr accuracy ------------------------------------------------------------

def test_ocr_accuracy_all_match():
    texts = [("title", "Hello", "Hello"), ("xtick_label", "2008", "2008")]
    assert ocr_accuracy(texts)["total"] == 1.0


def test_ocr_accuracy_one_in_ten():
    texts = [("xtick_label", str(k), str(k)) for k in range(10)]
    texts[3] = ("xtick_label", "oops", "3")
    out = ocr_accuracy(texts)
    assert out["total"] == pytest.approx(0.9)
    assert out["xtick_label"] == pytest.approx(0.9)


def test_ocr_truncation_counts_as_mismatch():
    out = ocr_accuracy([("legend_label", "Indoo", "Indoor")])
    assert out["total"] == 0.0


def test_ocr_accuracy_of_no_texts_is_an_error():
    # no texts is nothing scored, not an accuracy of 0
    with pytest.raises(ValueError, match="no texts"):
        ocr_accuracy([])


def test_presets():
    assert get_preset("zero").is_zero()
    assert not get_preset("paper_like").is_zero()
    with pytest.raises(KeyError):
        get_preset("nope")


def test_noise_model_json_roundtrip():
    nm = PAPER_LIKE.with_seed(9)
    assert NoiseModel.from_json(nm.to_json()) == nm


def test_every_noise_knob_counts_and_round_trips():
    # is_zero, validation and JSON read the field list, so no knob is left out
    names = [f.name for f in fields(NoiseModel)]
    assert list(NoiseModel().to_json()) == names
    for name in names:
        if name == "seed":
            continue
        nm = NoiseModel(**{name: {"bar": 1.0} if name == "class_sigma" else 0.5})
        assert not nm.is_zero(), name
        assert list(nm.to_json()) == names
        assert NoiseModel.from_json(nm.to_json()) == nm
        if name.endswith("_prob"):
            with pytest.raises(ValueError, match=name):
                NoiseModel(**{name: 1.5})
    assert NoiseModel(seed=3, class_sigma={"bar": 0.0}).is_zero()


def test_noise_model_validates_probabilities():
    with pytest.raises(ValueError):
        NoiseModel(drop_prob=1.5)
    with pytest.raises(ValueError):
        NoiseModel(box_jitter_sigma=-1)


def test_noise_model_from_json_is_strict():
    from plotquest.detsim import PAPER_LIKE
    assert NoiseModel.from_json(PAPER_LIKE.to_json()) == PAPER_LIKE
    assert NoiseModel.from_json({}) == NoiseModel()
    for bad in ({"box_jiter_sigma": 1.0}, {"box_jitter_sigma": -0.1},
                {"class_sigma": {"bar": -1.0}}, {"class_sigma": {"barr": 1.0}},
                {"drop_prob": 1.01}, {"misclass_prob": -0.5}, {"ocr_char_sub_prob": 2},
                {"drop_prob": "0.1"}, {"box_jitter_sigma": float("nan")}, {"seed": 1.5}, [1]):
        with pytest.raises(ValueError):
            NoiseModel.from_json(bad)


def test_noise_model_rejects_negative_class_sigma():
    with pytest.raises(ValueError):
        NoiseModel(class_sigma={"bar": -0.1})
