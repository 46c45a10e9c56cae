"""The README's code examples run against the package as documented, its
config block is what `render_config` prints for the defaults, and its
`metrics.jsonl` field list is the record's."""

import contextlib
import dataclasses
import io
import os
import re

from s2r2 import ExperimentConfig, MetricsRecord, render_config

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


def test_metrics_fields_are_the_record_fields():
    with open(README, encoding="utf-8") as fh:
        (listed,) = re.findall(r"`metrics\.jsonl` - one JSON object per step: (.*?)\(",
                               fh.read(), flags=re.DOTALL)
    names = re.findall(r"`(\w+)`", listed)
    assert names == [field.name for field in dataclasses.fields(MetricsRecord)]
