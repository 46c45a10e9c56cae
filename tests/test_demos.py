"""The demos run end to end against the package."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def run_demo(name, tmp_path):
    # demos write through tempfile, so TMPDIR keeps their files in tmp_path
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_ranking_objective_demo_runs(tmp_path):
    # the one demo built directly on smooth_ap / smooth_ap_grad
    proc = run_demo("01_ranking_objective.py", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_image_pipeline_demo_runs(tmp_path):
    # the image path end to end: binary bundle, augment_image, training, eval
    proc = run_demo("05_image_pipeline.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
