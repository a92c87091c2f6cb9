"""Compare two runs over one dataset split, template by template.

Each argument is a run directory (its predictions.jsonl is read) or a
predictions file. The two must hold the same question lines, in the same
order: the same plot id, template id and text. Each answer is scored as
``plotquest evaluate`` scores it. For each template id the tool prints the
number of questions, how many stored predictions changed, how many became
correct and how many stopped being correct, and the accuracy before and
after; the last row is the totals.

Run: python3 tools/compare_runs.py BEFORE AFTER
Exit codes: 0 success, 1 usage error, 2 data error (one line on stderr).
"""
import os
import sys

from plotquest.cli import DataError, _prediction_record, _read_jsonl
from plotquest.harness import score_answer


def read_run(path: str) -> list[tuple[tuple, object, bool]]:
    """(question key, stored prediction, correct) for each question line,
    decoded as ``plotquest evaluate`` decodes it; the key is (plot id,
    template id, text)."""
    if os.path.isdir(path):
        path = os.path.join(path, "predictions.jsonl")

    def row(obj: dict) -> tuple[tuple, object, bool]:
        q, prediction = _prediction_record(obj)
        ok = score_answer(prediction, q.gold_answer)
        return (obj["plot_id"], q.template.id, q.text), obj.get("prediction"), ok

    rows = _read_jsonl(path, "prediction", row)
    if not rows:
        raise DataError(f"empty predictions file {path}")
    return rows


def compare(before: list, after: list) -> dict[int, list[int]]:
    """Per template id: [questions, changed, became correct, stopped being
    correct, correct before, correct after]."""
    if len(before) != len(after):
        raise DataError(f"the runs hold {len(before)} and {len(after)} questions")
    per_template: dict[int, list[int]] = {}
    for k, ((key, p0, ok0), (key1, p1, ok1)) in enumerate(zip(before, after), start=1):
        if key != key1:
            raise DataError(f"question {k} differs: {key!r} against {key1!r}")
        row = per_template.setdefault(key[1], [0] * 6)
        for i, v in enumerate((1, p0 != p1, ok1 and not ok0, ok0 and not ok1, ok0, ok1)):
            row[i] += v
    return per_template


def render(per_template: dict[int, list[int]]) -> str:
    def line(name, n, changed, became, stopped, right0, right1) -> str:
        return (f"{name:>8} {n:>9} {changed:>8} {became:>14} {stopped:>15}"
                f" {100 * right0 / n:>9.2f}% {100 * right1 / n:>9.2f}%")

    lines = [f"{'template':>8} {'questions':>9} {'changed':>8} {'became correct':>14}"
             f" {'stopped correct':>15} {'before':>10} {'after':>10}"]
    lines += [line(tid, *row) for tid, row in sorted(per_template.items())]
    lines.append(line("total", *(sum(col) for col in zip(*per_template.values()))))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage error: compare_runs.py BEFORE AFTER (run directories or predictions files)",
              file=sys.stderr)
        return 1
    try:
        print(render(compare(read_run(argv[0]), read_run(argv[1]))))
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
