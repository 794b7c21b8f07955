import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 4
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
