"""Every script under demos/, the README's library quickstart, and the noise
calibration tool on a few plots, run to completion from a scratch
directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(path), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_script(demo, tmp_path)


def test_calibrate_noise_runs(tmp_path):
    proc = run_script(ROOT / "tools" / "calibrate_noise.py", tmp_path, "5")
    assert proc.stdout.startswith("current paper_like: mAP@0.5=")


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    script = tmp_path / "quickstart.py"
    script.write_text(code, encoding="utf-8")
    proc = run_script(script, tmp_path)
    assert "-> " in proc.stdout and "(gold: " in proc.stdout


def test_compare_runs_totals_are_what_evaluate_reports(tmp_path, capsys):
    from plotquest.cli import main
    ds = tmp_path / "ds"
    assert main(["generate", "--n-plots", "6", "--seed", "3", "--split", "1,0,0", "--out", str(ds)]) == 0
    runs = []
    for noise in ("zero", "paper_like"):
        out = tmp_path / noise
        assert main(["run", "--dataset", str(ds), "--noise", noise, "--run-split", "train", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(out / "predictions.jsonl")]) == 0
        runs.append((out, capsys.readouterr().out.splitlines()[0].removeprefix("overall accuracy: ")))
    (zero, zero_acc), (noisy, noisy_acc) = runs
    assert zero_acc == "100.00%" and noisy_acc != zero_acc
    tool = ROOT / "tools" / "compare_runs.py"
    # a run directory on one side, a predictions file on the other
    total = run_script(tool, tmp_path, str(zero), str(noisy / "predictions.jsonl")).stdout.splitlines()[-1].split()
    n = sum(1 for line in open(zero / "predictions.jsonl") if line.strip())
    assert total[:2] == ["total", str(n)] and total[-2:] == [zero_acc, noisy_acc]
    assert int(total[3]) == 0 and int(total[4]) > 0  # nothing became correct; some stopped being
    # question lines in another order are another split's: refused
    lines = (noisy / "predictions.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "swapped.jsonl").write_text("".join(lines[1::-1] + lines[2:]))
    proc = subprocess.run([sys.executable, str(tool), str(zero), str(tmp_path / "swapped.jsonl")],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: question 1 differs") and proc.stderr.count("\n") == 1
