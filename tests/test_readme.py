"""The README's code examples run against the package as documented, and its
config block is what `render_config` prints for the defaults."""

import contextlib
import io
import os
import re

from s2r2 import ExperimentConfig, render_config

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)


def test_lower_level_snippet_runs():
    (snippet,) = [block for block in python_blocks() if "smooth_ap(" in block]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, README, "exec"), {})
    exact, smooth, grad = out.getvalue().splitlines()
    assert float(exact) == 1.0
    assert 0.0 < float(smooth) <= 1.0
    assert grad.startswith("[") and grad.endswith("]")


def test_config_block_is_the_rendered_defaults():
    with open(README, encoding="utf-8") as fh:
        (block,) = re.findall(r"```ini\n(.*?)```", fh.read(), flags=re.DOTALL)
    # no default value holds a '#', so every '#' starts a comment
    lines = [line.split("#", 1)[0].rstrip() for line in block.splitlines()]
    assert lines == render_config(ExperimentConfig()).splitlines()
