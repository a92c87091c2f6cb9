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
