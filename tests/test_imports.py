"""Import hygiene: the package stands on numpy alone and loads none of
numpy's optional submodules while it runs, its modules reach each other
through public names only, and the test oracles share no code with it."""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    probe = "import sys, s2r2; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_train_and_eval_do_not_load_numpy_ma(tmp_path):
    # np.unique without return_counts imports numpy.ma (~15 ms) on numpy 2.x
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = f"""
import sys
from s2r2 import ExperimentConfig, SyntheticSpec, render_config
from s2r2.cli import main
run = {str(tmp_path)!r}
cfg = ExperimentConfig(synthetic=SyntheticSpec(num_classes=4, dim=8, samples_per_class=12),
                       hidden_dims=(16,), rep_dim=8, proj_hidden_dim=8, proj_out_dim=8,
                       B=4, K=2, steps=4, eval_every=2)
with open(run + "/exp.cfg", "w") as fh:
    fh.write(render_config(cfg))
assert main(["train", "--config", run + "/exp.cfg", "--out", run + "/train"]) == 0
assert main(["eval", "--config", run + "/exp.cfg", "--out", run + "/eval",
             "--checkpoint", run + "/train/checkpoint.bin"]) == 0
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_no_module_imports_a_private_name_of_another():
    package = os.path.join(SRC, "s2r2")
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{name} <- {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_oracles_import_nothing_from_the_package():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="oracles.py")
    found = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name.split(".")[0] == "s2r2"]
    found += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "s2r2"]
    assert found == []
