import numpy as np
import pytest

from plotquest.corpus import sample_plot_data
from plotquest.detsim import (
    PAPER_LIKE, ZERO_NOISE, Detection, DetectionSet, NoiseModel,
    average_precision, corrupt_text, get_preset, iou, ocr_accuracy, perturb,
)
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


# -- perturb -----------------------------------------------------------------

def test_zero_noise_is_identity(corpus):
    data = sample_plot_data(corpus, 4)
    _, ann = render(make_plot_spec(data, 2))
    det = perturb(ann, ZERO_NOISE)
    assert len(det.detections) == len(ann.elements)
    for d, e in zip(det.detections, ann.elements):
        assert d.cls == e.cls
        assert d.bbox == e.bbox
        assert d.text == e.text
        assert d.color == e.color
        assert d.score == 1.0


def test_drop_everything(corpus):
    data = sample_plot_data(corpus, 4)
    _, ann = render(make_plot_spec(data, 2))
    det = perturb(ann, NoiseModel(drop_prob=1.0))
    assert det.detections == []


def test_perturb_deterministic(corpus):
    data = sample_plot_data(corpus, 4)
    _, ann = render(make_plot_spec(data, 2))
    noise = PAPER_LIKE.with_seed(1234)
    assert perturb(ann, noise).to_json() == perturb(ann, noise).to_json()


def test_perturb_different_seeds_differ(corpus):
    data = sample_plot_data(corpus, 4)
    _, ann = render(make_plot_spec(data, 2))
    a = perturb(ann, PAPER_LIKE.with_seed(1))
    b = perturb(ann, PAPER_LIKE.with_seed(2))
    assert a.to_json() != b.to_json()


def test_jittered_value_edge_shifts_reading():
    # an 80 px edge error on an axis where 80 px equal 80 units turns a
    # gold reading of 680 into 760
    from plotquest.sie import interpolate_value
    ticks = [(0.0, 800.0), (1000.0, -200.0)]  # 1 unit per pixel, value up
    gold_box = (100.0, 800.0 - 680.0, 40.0, 680.0)
    assert interpolate_value(gold_box, ticks, "vertical") == pytest.approx(680.0)
    jittered = (100.0, 800.0 - 760.0, 40.0, 760.0)
    assert interpolate_value(jittered, ticks, "vertical") == pytest.approx(760.0)


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
        per_class, m = average_precision(det, ann, thr)
        assert m == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in per_class.values())


def test_ap_half_recall_is_half():
    # single-point PR curve at recall 0.5, precision 1 -> area 0.5
    data = make_data([[3.0, 7.0]])
    _, _, ann = rendered(data, "vbar")
    bars = [e for e in ann.elements if e.cls == "bar"]
    det = DetectionSet([Detection("bar", bars[0].bbox, 1.0, color=bars[0].color)])
    per_class, _ = average_precision(det, ann, 0.5)
    for thr in (0.5, 0.75, 0.9):
        per_class, _ = average_precision(det, ann, thr)
        assert per_class["bar"] == pytest.approx(0.5)


def test_ap_monotone_in_threshold(corpus):
    for seed in range(20):
        data = sample_plot_data(corpus, seed)
        _, ann = render(make_plot_spec(data, seed))
        det = perturb(ann, PAPER_LIKE.with_seed(seed))
        maps = [average_precision(det, ann, thr)[1] for thr in (0.5, 0.75, 0.9)]
        assert maps[0] >= maps[1] >= maps[2]


def test_ap_dataset_pooling(corpus):
    anns, dets = [], []
    for seed in range(6):
        data = sample_plot_data(corpus, seed)
        _, ann = render(make_plot_spec(data, seed))
        anns.append(ann)
        dets.append(perturb(ann, ZERO_NOISE))
    per_class, m = average_precision(dets, anns, 0.9)
    assert m == pytest.approx(1.0)
    with pytest.raises(ValueError):
        average_precision(dets[:2], anns, 0.9)
    with pytest.raises(ValueError):
        average_precision(dets[0], anns[0], 1.5)


# -- ocr accuracy ------------------------------------------------------------

def test_ocr_accuracy_all_match():
    pairs = [("title", "Hello"), ("xtick_label", "2008")]
    assert ocr_accuracy(pairs, pairs)["total"] == 1.0


def test_ocr_accuracy_one_in_ten():
    gold = [("xtick_label", str(k)) for k in range(10)]
    pred = list(gold)
    pred[3] = ("xtick_label", "oops")
    out = ocr_accuracy(pred, gold)
    assert out["total"] == pytest.approx(0.9)
    assert out["xtick_label"] == pytest.approx(0.9)


def test_ocr_truncation_counts_as_mismatch():
    out = ocr_accuracy([("legend_label", "Indoo")], [("legend_label", "Indoor")])
    assert out["total"] == 0.0


def test_ocr_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        ocr_accuracy([("a", "x")], [])


def test_presets():
    assert get_preset("zero").is_zero()
    assert not get_preset("paper_like").is_zero()
    with pytest.raises(KeyError):
        get_preset("nope")


def test_noise_model_json_roundtrip():
    nm = PAPER_LIKE.with_seed(9)
    assert NoiseModel.from_json(nm.to_json()) == nm


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
