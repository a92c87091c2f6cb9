"""Perception-stage simulator: perturbs ground-truth annotations into noisy
detection sets, corrupts text the way a character recognizer fails, and
scores detections with average precision at an IOU threshold.

The simulator stands in for the trained detector + OCR stages so the rest
of the pipeline can be exercised with controllable, reproducible error.
Noise knobs are independent per element: box edges get Gaussian jitter
(optionally class-conditional, since small marks degrade much faster at
tight IOU), whole elements drop or flip class, and texts pass through a
three-mode corruption model (character substitution, tail truncation,
sign/digit damage on numeric strings).

AP uses every-point interpolation (area under the precision envelope) with
greedy one-to-one matching in score order; an exact half-recall detection
set therefore scores AP = 0.5. Scoring takes one pass per plot: each
detection is tested against the gold elements of its class alone, a gold
strictly beyond one of its edges is skipped with two comparisons per axis,
every other pair is scored by the one pair rule ``iou``, and all thresholds
are matched from those candidates, with only the compact match records
pooled across plots (APPool). OCR is pooled per plot alike (OCRPool): a hit
count and a total per class. Each scorer takes its items paired: AP one
(detections, annotation) pair per plot, OCR one (class, predicted, gold)
triple per text, and scoring no items is a ValueError.

The random stream is part of the behaviour. Perturbation draws everything
from one generator per plot: first one block per per-element quantity
(drop, box jitter, misclass, misclass pick, score), each with one value per
element (four for the jitter), then the OCR noise of every text element in
element order. No block's size depends on whether an effect fires, so each
noise component sees the same draws whatever the others do; any change to
those draws or their order changes every noisy output.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .answers import finite_number
from .plotgen import ELEMENT_CLASSES, ElementRecord, PlotAnnotation, StyleParams, VisualElement

BBox = tuple[float, float, float, float]

# visually confusable characters; single deterministic target per source
CHAR_CONFUSION = {
    "O": "D", "D": "O", "B": "8", "S": "5", "I": "1", "Z": "2",
    "l": "I", "z": "2", "u": "v", "n": "m", "m": "n",
    "0": "O", "1": "I", "2": "Z", "5": "S", "6": "G", "8": "B", "9": "q",
}
DIGIT_CONFUSION = {c: t for c, t in CHAR_CONFUSION.items() if c.isdigit()}


@dataclass(frozen=True)
class NoiseModel:
    """The noise knobs and the seed of their draws. The field declarations
    are the one list of knobs: validation, ``is_zero`` and both JSON
    directions read ``fields``. Every knob is a finite number: a ``*_prob``
    field is a probability, a sigma is >= 0, and ``class_sigma`` maps
    element classes to sigmas. The seed is an integer. A model that breaks
    any of this raises ValueError when it is built."""

    box_jitter_sigma: float = 0.0  # px, Gaussian per box edge
    drop_prob: float = 0.0
    misclass_prob: float = 0.0
    ocr_char_sub_prob: float = 0.0
    ocr_truncate_prob: float = 0.0
    ocr_sign_digit_prob: float = 0.0
    seed: int = 0
    class_sigma: dict = field(default_factory=dict)  # per-class jitter override

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed={self.seed!r} is not an integer")
        if not isinstance(self.class_sigma, dict) or not set(self.class_sigma) <= set(ELEMENT_CLASSES):
            raise ValueError(f"class_sigma must map element classes to sigmas, got {self.class_sigma!r}")
        numbers = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name not in ("seed", "class_sigma")]
        numbers += [(f"class_sigma[{c!r}]", v) for c, v in self.class_sigma.items()]
        for name, v in numbers:
            if not finite_number(v):
                raise ValueError(f"{name}={v!r} is not a finite number")
            if name.endswith("_prob") and not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")
            if v < 0:
                raise ValueError(f"{name}={v} must be >= 0")

    def sigma_for(self, cls: str) -> float:
        return float(self.class_sigma.get(cls, self.box_jitter_sigma))

    def is_zero(self) -> bool:
        """No knob but the seed is set (a class sigma of 0 sets none)."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "seed" and any(v.values() if isinstance(v, dict) else (v,)):
                return False
        return True

    def with_seed(self, seed: int) -> "NoiseModel":
        return replace(self, seed=seed)

    def to_json(self) -> dict:
        """Every field, in declaration order."""
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "NoiseModel":
        """Strict inverse of to_json: every key is optional and none unknown
        (a misspelt key would otherwise mean, silently, no such noise). The
        values are checked as in the constructor; raises ValueError on
        anything that is not an object or on an unknown key."""
        if not isinstance(obj, dict):
            raise ValueError("noise model must be a JSON object")
        names = [f.name for f in fields(NoiseModel)]
        unknown = sorted(set(obj) - set(names))
        if unknown:
            raise ValueError(f"unknown noise model keys {unknown}; known: {names}")
        return NoiseModel(**obj)


ZERO_NOISE = NoiseModel()

# Calibrated by a grid search (not kept; tools/calibrate_noise.py measures one
# model) so that over 1,000 generated plots mAP@0.5 ~ 0.96, mAP@0.9 ~ 0.72
# and mean extraction F1 ~ 0.68.
# The per-class AP@0.9 profile is deliberately uneven, as real detectors are:
# near-zero for the wide title box, high for text labels, moderate for bars
# and line markers.
PAPER_LIKE = NoiseModel(
    box_jitter_sigma=0.10,
    drop_prob=0.012,
    misclass_prob=0.006,
    ocr_char_sub_prob=0.016,
    ocr_truncate_prob=0.03,
    ocr_sign_digit_prob=0.03,
    class_sigma={"title": 2.2, "bar": 0.4, "line": 0.25, "dotline": 0.34},
)

PRESETS = {"zero": ZERO_NOISE, "paper_like": PAPER_LIKE}


@dataclass(frozen=True)
class Detection(ElementRecord):
    cls: str
    bbox: BBox
    score: float
    text: str | None = None
    color: int | None = None

    def __post_init__(self):
        if not (type(self.score) in (int, float) and 0.0 < self.score <= 1.0):  # a bool is no score
            raise ValueError(f"detection score {self.score!r} is not a number in (0, 1]")
        super().__post_init__()


@dataclass
class DetectionSet:
    detections: list[Detection]
    style: StyleParams | None = None  # image-level styling survives detection

    def to_json(self) -> dict:
        rec: dict = {"detections": [d.to_json() for d in self.detections]}
        if self.style is not None:
            rec["style"] = self.style.to_json()
        return rec

    @staticmethod
    def from_json(obj: dict) -> "DetectionSet":
        style = StyleParams.from_json(obj["style"]) if "style" in obj else None
        return DetectionSet([Detection.from_json(d) for d in obj["detections"]], style=style)

    def dumps(self) -> str:
        return json.dumps(self.to_json())


# ---------------------------------------------------------------------------
# geometry

def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two (x, y, w, h) boxes, in [0, 1]; no
    edge, area or union overflows for finite boxes less than the float range
    apart (a pair farther apart scores 0), and the IOU of a pair depends on
    its two boxes alone."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    if aw < 0 or ah < 0 or bw < 0 or bh < 0:
        raise ValueError("box extents must be non-negative")
    big = 2.0 ** 500
    if not (-big <= ax <= big and -big <= ay <= big and aw <= big and ah <= big
            and -big <= bx <= big and -big <= by <= big and bw <= big and bh <= big):
        # IOU does not change with translation or scale: move the pair to
        # its own origin, then bring its numbers below 1 by a power of two;
        # boxes of ordinary size are never moved or rescaled
        ox, oy = (ax if ax < bx else bx), (ay if ay < by else by)
        ax, ay, bx, by = ax - ox, ay - oy, bx - ox, by - oy
        k = -math.frexp(max(ax, ay, aw, ah, bx, by, bw, bh))[1]  # all >= 0 now
        ax, ay, aw, ah, bx, by, bw, bh = (math.ldexp(v, k) for v in (ax, ay, aw, ah, bx, by, bw, bh))
    # conditional expressions, not min/max: the builtin calls would cost
    # more than the rest of the rule
    ax1, bx1, ay1, by1 = ax + aw, bx + bw, ay + ah, by + bh
    ix = (ax1 if ax1 < bx1 else bx1) - (ax if ax > bx else bx)
    iy = (ay1 if ay1 < by1 else by1) - (ay if ay > by else by)
    inter = ix * iy if ix > 0.0 and iy > 0.0 else 0.0
    union = aw * ah + bw * bh - inter
    if union <= 0.0:
        # two degenerate boxes; identical ones still count as a perfect match
        return 1.0 if (ax, ay, aw, ah) == (bx, by, bw, bh) else 0.0
    v = inter / union
    return v if v < 1.0 else 1.0  # edge rounding can put inter a few ulps above union


# ---------------------------------------------------------------------------
# text corruption

def _is_numericish(s: str) -> bool:
    return bool(s) and all(c.isdigit() or c in ".-+eE" for c in s)


def corrupt_text(s: str, noise: NoiseModel, seed: int) -> str:
    """Apply the OCR error model to one string, deterministically per seed."""
    return _corrupt(s, noise, np.random.default_rng(seed))


def _corrupt(s: str, noise: NoiseModel, rng: np.random.Generator) -> str:
    """The OCR error model applied to ``s``, drawing from ``rng``."""
    out = list(s)

    # character substitution: per-position, length preserving; one uniform
    # per character, drawn as one block (the same doubles, in order, as one
    # draw per character)
    if noise.ocr_char_sub_prob > 0:
        for k, u in enumerate(rng.random(len(out)).tolist()):
            if u < noise.ocr_char_sub_prob and out[k] in CHAR_CONFUSION:
                out[k] = CHAR_CONFUSION[out[k]]

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


# ---------------------------------------------------------------------------
# perturbation

def perturb(annotation: PlotAnnotation, noise: NoiseModel) -> DetectionSet:
    """Simulate the detection + OCR stages on a ground-truth annotation.

    Deterministic for a fixed (annotation, noise). The plot's generator
    gives, in order, one block each of drop uniforms, (n, 4) jitter
    normals, misclass uniforms, misclass picks and score uniforms for the
    n elements, then the OCR noise of every text element in element order,
    dropped ones included. So no component's draws depend on whether
    another fires, and outputs never depend on evaluation order.
    """
    return perturb_with_provenance(annotation, noise)[0]


def perturb_with_provenance(
    annotation: PlotAnnotation, noise: NoiseModel
) -> tuple[DetectionSet, list[tuple[VisualElement, Detection | None]]]:
    """Like perturb, but also maps each gold element to its detection
    (None when dropped), which OCR scoring needs for alignment."""
    rng = np.random.default_rng(noise.seed)
    zero = noise.is_zero()
    classes = list(ELEMENT_CLASSES)
    elements = annotation.elements
    n = len(elements)
    r_drop = rng.random(n).tolist()
    jitter = rng.standard_normal((n, 4)).tolist()
    r_mis = rng.random(n).tolist()
    mis_pick = rng.integers(len(classes) - 1, size=n).tolist()
    r_score = rng.random(n).tolist()
    texts = [e.text if e.text is None else _corrupt(e.text, noise, rng) for e in elements]

    # the knobs, read once per call; a class's sigma is looked up on first use
    drop_prob, misclass_prob = noise.drop_prob, noise.misclass_prob
    sigmas: dict[str, float] = {}
    detections: list[Detection] = []
    provenance: list[tuple[VisualElement, Detection | None]] = []
    for e, drop_u, jit, mis_u, pick, score_u, text in zip(
            elements, r_drop, jitter, r_mis, mis_pick, r_score, texts):
        if drop_u < drop_prob:
            provenance.append((e, None))
            continue

        cls = e.cls
        sigma = sigmas.get(cls)
        if sigma is None:
            sigma = sigmas[cls] = noise.sigma_for(cls)
        if sigma > 0:
            x, y, w, h = e.bbox
            x1 = x + sigma * jit[0]
            y1 = y + sigma * jit[1]
            x2 = x + w + sigma * jit[2]
            y2 = y + h + sigma * jit[3]
            bbox = (x1, y1, max(x2 - x1, 0.25), max(y2 - y1, 0.25))
        else:
            bbox = e.bbox

        if mis_u < misclass_prob:
            cls = [c for c in classes if c != cls][pick]
        det = Detection(cls, bbox, 1.0 if zero else 0.5 + 0.5 * score_u, text, e.color)
        detections.append(det)
        provenance.append((e, det))
    return DetectionSet(detections, style=annotation.style), provenance


# ---------------------------------------------------------------------------
# detection scoring

class APPool:
    """Per-class AP and mAP at several IOU thresholds, fed one plot at a time.

    ``add`` matches one plot's detections to its gold elements: per
    detection, the golds of its class that clear the lowest threshold
    (``_candidates``: separated boxes are skipped, every other pair is
    scored by ``iou``), then greedy one-to-one matching in score order at
    every threshold (among golds tied at the best IOU the last one wins).
    Only the compact match records are kept, so a caller can drop the plot
    after ``add``. Records pool per class across plots; a pool fed no
    plot has nothing to score, and ``result`` raises ValueError.
    """

    def __init__(self, thresholds: Sequence[float]):
        if not thresholds:
            raise ValueError("no IOU thresholds")
        if not all(0.0 < thr < 1.0 for thr in thresholds):
            raise ValueError("iou_threshold must lie in (0, 1)")
        self.thresholds = tuple(thresholds)
        self._lowest = min(self.thresholds)
        self._n_plots = 0
        self._n_gold: dict[str, int] = {}
        self._scores: dict[str, array] = {}  # per class, in match order
        self._hits: list[dict[str, bytearray]] = [{} for _ in self.thresholds]

    def add(self, pred: DetectionSet, gold: PlotAnnotation) -> None:
        self._n_plots += 1
        for e in gold.elements:
            self._n_gold[e.cls] = self._n_gold.get(e.cls, 0) + 1
        dets = sorted(pred.detections, key=lambda d: -d.score)  # stable: ties keep detection order
        if not dets:
            return
        codes: dict[str, int] = {}  # class -> index, in order of first detection
        det_codes = [codes.setdefault(d.cls, len(codes)) for d in dets]
        scores = [self._scores.setdefault(cls, array("d")) for cls in codes]
        for d, c in zip(dets, det_codes):
            scores[c].append(d.score)
        candidates = _candidates(dets, gold.elements, self._lowest)
        for thr, hits in zip(self.thresholds, self._hits):
            outs = [hits.setdefault(cls, bytearray()) for cls in codes]
            taken = [False] * len(gold.elements)  # golds of different classes never compete
            for c, row in zip(det_codes, candidates):
                best, best_iou = -1, thr
                for g, v in row:
                    if v >= best_iou and not taken[g]:
                        best, best_iou = g, v
                if best >= 0:
                    taken[best] = True
                outs[c].append(best >= 0)

    def result(self) -> list[tuple[dict[str, float], float]]:
        """One (per-class AP, mAP) per threshold; mAP averages over the
        classes present in gold."""
        if not self._n_plots:
            raise ValueError("no plots to score")
        per_class: list[dict[str, float]] = [{} for _ in self.thresholds]
        for cls, n_gold in sorted(self._n_gold.items()):
            scores = np.array(self._scores.get(cls, ()), dtype=np.float64)
            order = np.argsort(-scores, kind="stable")
            for aps, hits in zip(per_class, self._hits):
                hit = np.array(hits.get(cls, ()), dtype=np.bool_)[order]
                aps[cls] = _every_point_ap(hit, n_gold)
        return [(aps, float(np.mean(list(aps.values()))) if aps else 0.0) for aps in per_class]


def _candidates(dets: Sequence[Detection], golds: Sequence[VisualElement],
                lowest: float) -> list[list[tuple[int, float]]]:
    """Per detection, the (gold index, IOU) of every gold of its class whose
    IOU with it is at least ``lowest``, in plot order. A gold strictly
    beyond one of the detection's edges cannot overlap it and is skipped
    unscored; every other pair is scored by ``iou``."""
    edges: dict[str, list[tuple[int, float, float, float, float, BBox]]] = {}
    for g, e in enumerate(golds):
        x, y, w, h = e.bbox
        edges.setdefault(e.cls, []).append((g, x, y, x + w, y + h, e.bbox))
    out: list[list[tuple[int, float]]] = []
    for d in dets:
        row: list[tuple[int, float]] = []
        x, y, w, h = box = d.bbox
        x1, y1 = x + w, y + h
        for g, gx, gy, gx1, gy1, gold_box in edges.get(d.cls, ()):
            if x1 < gx or gx1 < x or y1 < gy or gy1 < y:
                continue
            v = iou(box, gold_box)
            if v >= lowest:
                row.append((g, v))
        out.append(row)
    return out


def _every_point_ap(hit: np.ndarray, n_gold: int) -> float:
    """Every-point interpolated AP of detections in score order, given
    which of them are true positives."""
    if not len(hit):
        return 0.0
    tp = np.cumsum(hit)
    precision = tp / np.arange(1, len(hit) + 1)
    # precision envelope, then area under the recall steps; recall rises
    # exactly at the true positives
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p in zip((tp[hit] / n_gold).tolist(), env[hit].tolist()):
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def average_precision(
    plots: Iterable[tuple[DetectionSet, PlotAnnotation]], iou_threshold: float,
) -> tuple[dict[str, float], float]:
    """Per-class AP and mAP at one IOU threshold over (detections,
    annotation) pairs, pooled per class across plots by ``APPool``
    (matching stays within each plot); no plots is a ValueError."""
    pool = APPool((iou_threshold,))
    for pred, gold in plots:
        pool.add(pred, gold)
    return pool.result()[0]


class OCRPool:
    """Exact-match OCR rate per element class plus 'total', fed one plot at
    a time: ``add`` takes one plot's (class, predicted text, gold text)
    triples and keeps only a hit count and a total per class. A pool fed no
    text has nothing to score, and ``result`` raises ValueError."""

    def __init__(self):
        self._hits: dict[str, int] = {}
        self._totals: dict[str, int] = {}

    def add(self, texts: Iterable[tuple[str, str, str]]) -> None:
        hits, totals = self._hits, self._totals
        for cls, pred, gold in texts:
            totals[cls] = totals.get(cls, 0) + 1
            hits[cls] = hits.get(cls, 0) + (pred == gold)

    def __len__(self) -> int:
        """The number of texts added."""
        return sum(self._totals.values())

    def result(self) -> dict[str, float]:
        """The rate of each class, in sorted class order, then 'total'. Each
        is hits / total, the same double as the mean of 0s and 1s."""
        if not self._totals:
            raise ValueError("no texts to score")
        out = {cls: self._hits[cls] / n for cls, n in sorted(self._totals.items())}
        out["total"] = sum(self._hits.values()) / len(self)
        return out


def ocr_accuracy(texts: Iterable[tuple[str, str, str]]) -> dict[str, float]:
    """Exact-match rate per element class plus 'total', over (class,
    predicted text, gold text) triples, scored by one ``OCRPool``; no texts
    is a ValueError."""
    pool = OCRPool()
    pool.add(texts)
    return pool.result()
