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
set therefore scores AP = 0.5.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .plotgen import (
    ELEMENT_CLASSES, PlotAnnotation, StyleParams, VisualElement, check_bbox, check_text_and_color,
)

BBox = tuple[float, float, float, float]

# visually confusable characters; single deterministic target per source
CHAR_CONFUSION = {
    "O": "D", "D": "O", "B": "8", "S": "5", "I": "1", "Z": "2",
    "l": "I", "z": "2", "u": "v", "n": "m", "m": "n",
    "0": "O", "1": "I", "2": "Z", "5": "S", "6": "G", "8": "B", "9": "q",
}
DIGIT_CONFUSION = {"0": "O", "1": "I", "2": "Z", "5": "S", "6": "G", "8": "B", "9": "q"}


@dataclass(frozen=True)
class NoiseModel:
    box_jitter_sigma: float = 0.0  # px, Gaussian per box edge
    drop_prob: float = 0.0
    misclass_prob: float = 0.0
    ocr_char_sub_prob: float = 0.0
    ocr_truncate_prob: float = 0.0
    ocr_sign_digit_prob: float = 0.0
    seed: int = 0
    class_sigma: dict = field(default_factory=dict)  # per-class jitter override

    def __post_init__(self):
        for name in ("drop_prob", "misclass_prob", "ocr_char_sub_prob",
                     "ocr_truncate_prob", "ocr_sign_digit_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name}={p} outside [0, 1]")
        if self.box_jitter_sigma < 0:
            raise ValueError("box_jitter_sigma must be >= 0")
        for cls, sigma in self.class_sigma.items():
            if sigma < 0:
                raise ValueError(f"class_sigma[{cls!r}]={sigma} must be >= 0")

    def sigma_for(self, cls: str) -> float:
        return float(self.class_sigma.get(cls, self.box_jitter_sigma))

    def is_zero(self) -> bool:
        return (
            self.box_jitter_sigma == 0 and not any(self.class_sigma.values())
            and self.drop_prob == 0 and self.misclass_prob == 0
            and self.ocr_char_sub_prob == 0 and self.ocr_truncate_prob == 0
            and self.ocr_sign_digit_prob == 0
        )

    def with_seed(self, seed: int) -> "NoiseModel":
        return replace(self, seed=seed)

    def to_json(self) -> dict:
        return {
            "box_jitter_sigma": self.box_jitter_sigma,
            "drop_prob": self.drop_prob,
            "misclass_prob": self.misclass_prob,
            "ocr_char_sub_prob": self.ocr_char_sub_prob,
            "ocr_truncate_prob": self.ocr_truncate_prob,
            "ocr_sign_digit_prob": self.ocr_sign_digit_prob,
            "seed": self.seed,
            "class_sigma": dict(self.class_sigma),
        }

    @staticmethod
    def from_json(obj: dict) -> "NoiseModel":
        """Strict inverse of to_json: every key is optional and none unknown
        (a misspelt key would otherwise mean, silently, no such noise).
        Raises ValueError on an unknown key or class, a value that is not a
        finite number, a negative sigma or a probability outside [0, 1]."""
        if not isinstance(obj, dict):
            raise ValueError("noise model must be a JSON object")
        names = [f.name for f in fields(NoiseModel)]
        unknown = sorted(set(obj) - set(names))
        if unknown:
            raise ValueError(f"unknown noise model keys {unknown}; known: {names}")
        seed = obj.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed={seed!r} is not an integer")
        class_sigma = obj.get("class_sigma", {})
        if not isinstance(class_sigma, dict) or not set(class_sigma) <= set(ELEMENT_CLASSES):
            raise ValueError(f"class_sigma must map element classes to sigmas, got {class_sigma!r}")
        numbers = {k: v for k, v in obj.items() if k not in ("seed", "class_sigma")}
        for name, v in [*numbers.items(), *class_sigma.items()]:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name}={v!r} is not a finite number")
        return NoiseModel(**numbers, seed=seed, class_sigma=dict(class_sigma))


ZERO_NOISE = NoiseModel()

# Calibrated by grid search (tools/calibrate_noise.py) so that over 1,000
# generated plots mAP@0.5 ~ 0.96, mAP@0.9 ~ 0.72 and mean extraction F1 ~ 0.68.
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


def get_preset(name: str) -> NoiseModel:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown noise preset {name!r}; have {sorted(PRESETS)}")


@dataclass(frozen=True)
class Detection:
    cls: str
    bbox: BBox
    score: float
    text: str | None = None
    color: int | None = None

    def __post_init__(self):
        if not (0.0 < self.score <= 1.0):
            raise ValueError(f"detection score {self.score} outside (0, 1]")
        check_bbox(self.bbox)
        check_text_and_color(self.text, self.color)

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.bbox
        return (x + w / 2.0, y + h / 2.0)

    def to_json(self) -> dict:
        rec: dict = {"class": self.cls, "bbox": list(self.bbox), "score": self.score}
        if self.text is not None:
            rec["text"] = self.text
        if self.color is not None:
            rec["color"] = self.color
        return rec

    @staticmethod
    def from_json(obj: dict) -> "Detection":
        return Detection(
            cls=obj["class"],
            bbox=tuple(float(v) for v in obj["bbox"]),
            score=float(obj["score"]),
            text=obj.get("text"),
            color=obj.get("color"),
        )


@dataclass
class DetectionSet:
    detections: list[Detection]
    style: StyleParams | None = None  # image-level styling survives detection

    def by_class(self, cls: str) -> list[Detection]:
        return [d for d in self.detections if d.cls == cls]

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
        return json.dumps(self.to_json(), indent=1)

    @staticmethod
    def loads(text: str) -> "DetectionSet":
        return DetectionSet.from_json(json.loads(text))


# ---------------------------------------------------------------------------
# geometry

def iou(a: BBox, b: BBox) -> float:
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


# ---------------------------------------------------------------------------
# text corruption

def _is_numericish(s: str) -> bool:
    return bool(s) and all(c.isdigit() or c in ".-+eE" for c in s)


def corrupt_text(s: str, noise: NoiseModel, seed: int) -> str:
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


# ---------------------------------------------------------------------------
# perturbation

def perturb(annotation: PlotAnnotation, noise: NoiseModel) -> DetectionSet:
    """Simulate the detection + OCR stages on a ground-truth annotation.

    Deterministic for a fixed (annotation, noise): each element consumes a
    fixed number of random draws whether or not the corresponding effect
    fires, so outputs never depend on evaluation order.
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
    detections: list[Detection] = []
    provenance: list[tuple[VisualElement, Detection | None]] = []
    for e in annotation.elements:
        r_drop = rng.random()
        jit = rng.normal(0.0, 1.0, size=4)
        r_mis = rng.random()
        mis_pick = int(rng.integers(len(classes) - 1))
        r_score = rng.random()
        text_seed = int(rng.integers(2**31 - 1))

        if r_drop < noise.drop_prob:
            provenance.append((e, None))
            continue

        x, y, w, h = e.bbox
        sigma = noise.sigma_for(e.cls)
        if sigma > 0:
            x1 = x + sigma * jit[0]
            y1 = y + sigma * jit[1]
            x2 = x + w + sigma * jit[2]
            y2 = y + h + sigma * jit[3]
            bbox = (x1, y1, max(x2 - x1, 0.25), max(y2 - y1, 0.25))
        else:
            bbox = e.bbox

        cls = e.cls
        if r_mis < noise.misclass_prob:
            others = [c for c in classes if c != e.cls]
            cls = others[mis_pick]

        text = e.text
        if text is not None:
            text = corrupt_text(text, noise, text_seed)

        score = 1.0 if zero else 0.5 + 0.5 * r_score
        det = Detection(cls=cls, bbox=bbox, score=score, text=text, color=e.color)
        detections.append(det)
        provenance.append((e, det))
    return DetectionSet(detections, style=annotation.style), provenance


# ---------------------------------------------------------------------------
# detection scoring

def _match_plot(preds: list[Detection], golds: list[VisualElement], thr: float) -> list[tuple[float, bool]]:
    """Greedy one-to-one matching in score order; returns (score, is_tp)."""
    order = sorted(range(len(preds)), key=lambda k: (-preds[k].score, k))
    taken = [False] * len(golds)
    out = []
    for k in order:
        best, best_iou = -1, thr
        for g, gold in enumerate(golds):
            if taken[g]:
                continue
            v = iou(preds[k].bbox, gold.bbox)
            if v >= best_iou:
                best, best_iou = g, v
        if best >= 0:
            taken[best] = True
            out.append((preds[k].score, True))
        else:
            out.append((preds[k].score, False))
    return out


def _ap_from_records(records: list[tuple[float, bool]], n_gold: int) -> float:
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


def average_precision(
    pred: DetectionSet | list[DetectionSet],
    gold: PlotAnnotation | list[PlotAnnotation],
    iou_threshold: float,
) -> tuple[dict[str, float], float]:
    """Per-class AP and mAP at one IOU threshold.

    Accepts a single (pred, gold) pair or parallel lists of pairs; in list
    form detections are pooled per class across plots (matching stays
    within each plot). mAP averages over the classes present in gold.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")
    preds = [pred] if isinstance(pred, DetectionSet) else list(pred)
    golds = [gold] if isinstance(gold, PlotAnnotation) else list(gold)
    if len(preds) != len(golds):
        raise ValueError("pred/gold list lengths differ")

    classes = sorted({e.cls for g in golds for e in g.elements})
    per_class: dict[str, float] = {}
    for cls in classes:
        records: list[tuple[float, bool]] = []
        n_gold = 0
        for p, g in zip(preds, golds):
            gold_elems = [e for e in g.elements if e.cls == cls]
            n_gold += len(gold_elems)
            records.extend(_match_plot(p.by_class(cls), gold_elems, iou_threshold))
        per_class[cls] = _ap_from_records(records, n_gold)
    m_ap = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, m_ap


def ocr_accuracy(
    pred_texts: list[tuple[str, str]],
    gold_texts: list[tuple[str, str]],
) -> dict[str, float]:
    """Exact-match rate per element class plus 'total'.

    Inputs are parallel (class, text) lists aligned by element identity.
    """
    if len(pred_texts) != len(gold_texts):
        raise ValueError(f"length mismatch: {len(pred_texts)} pred vs {len(gold_texts)} gold")
    hits: dict[str, list[int]] = {}
    for (cls, p), (_, g) in zip(pred_texts, gold_texts):
        hits.setdefault(cls, []).append(1 if p == g else 0)
    out = {cls: float(np.mean(v)) for cls, v in sorted(hits.items())}
    total = [h for v in hits.values() for h in v]
    out["total"] = float(np.mean(total)) if total else 0.0
    return out
