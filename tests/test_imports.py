"""Import hygiene: the package stands on numpy alone and loads none of
numpy's optional submodules while it runs, its modules reach each other
through public names only, import nothing inside a function and keep no
hand-rolled module-level cache or second block budget, start runs from
two places only, and the test oracles share no code with it."""

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
from s2r2 import EncoderConfig, ExperimentConfig, SyntheticSpec, render_config
from s2r2.cli import main
run = {str(tmp_path)!r}
cfg = ExperimentConfig(synthetic=SyntheticSpec(num_classes=4, dim=8, samples_per_class=12),
                       encoder=EncoderConfig(hidden_dims=(16,), rep_dim=8, proj_hidden_dim=8,
                                             proj_out_dim=8),
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


def package_trees():
    """``(file name, ast)`` of every module of the package."""
    package = os.path.join(SRC, "s2r2")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def test_no_module_imports_a_private_name_of_another():
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{name} <- {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_function_holds_an_import():
    # every import sits at the top of its module, so an import cycle shows at load
    found = []
    for name, tree in package_trees():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}: {func.name} line {node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def calls_by_function(tree, callee: str):
    """Names of the functions whose own body (not a nested one's) calls ``callee``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Name) and func.id == callee
                    or isinstance(func, ast.Attribute) and func.attr == callee):
                found.append(owner)
            visit(child, owner)

    visit(tree, None)
    return found


def test_runs_are_started_by_train_and_the_sweep_driver_alone():
    # ablate and compare run their cells through one loop
    found = [f"{name[:-3]}.{owner}" for name, tree in package_trees()
             for owner in calls_by_function(tree, "run_experiment")]
    assert sorted(found) == ["cli._cmd_train", "experiment._run_cells"]


def test_oracles_import_nothing_from_the_package():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="oracles.py")
    found = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name.split(".")[0] == "s2r2"]
    found += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "s2r2"]
    assert found == []


def is_empty_container(value) -> bool:
    """Whether ``value`` is ``{}``, ``[]``, ``dict()``, ``list()`` or ``set()``."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set") and not value.args
            and not value.keywords)


def test_no_module_keeps_a_hand_rolled_cache():
    # module-level memo state goes through functools.lru_cache, which bounds it
    found = []
    for name, tree in package_trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if is_empty_container(node.value):
                found += [f"{name}: {ast.unparse(target)}" for target in targets]
    assert found == []


def test_one_block_budget():
    # every blocked loop sizes its blocks by ranking.BLOCK_ENTRIES through row_blocks
    found = []
    for name, tree in package_trees():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found += [f"{name}: {target.id}" for target in targets
                      if isinstance(target, ast.Name) and target.id.endswith("_ENTRIES")]
    assert found == ["ranking.py: BLOCK_ENTRIES"]


def is_dataclass_decorator(node) -> bool:
    """Whether ``node`` is ``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``."""
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_experiment_config_holds_the_one_seed_field():
    # one seed per run: every component that draws takes its seed as an argument
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass_decorator,
                                                          node.decorator_list)):
                found += [f"{name}: {node.name}" for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name) and stmt.target.id == "seed"]
    assert found == ["config.py: ExperimentConfig"]
