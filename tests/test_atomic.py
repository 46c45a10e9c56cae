"""Atomic artifact writes: a failed write never damages the previous file."""

import os

import pytest

import s2r2.atomic as atomic
from s2r2.atomic import atomic_write


def test_write_replaces_target(tmp_path):
    path = tmp_path / "eval.json"
    path.write_text("old\n")
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["eval.json"]


def _fail_in_write(path, monkeypatch):
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("partial")
        raise OSError("disk full")


def _fail_in_replace(path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(atomic.os, "replace", refuse)
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("complete")


@pytest.mark.parametrize("fail", [_fail_in_write, _fail_in_replace], ids=["write", "replace"])
def test_failure_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, fail):
    path = tmp_path / "comparison.json"
    path.write_text("previous\n")
    with pytest.raises(OSError, match="disk full"):
        fail(path, monkeypatch)
    assert path.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["comparison.json"]


def test_failure_without_previous_file_leaves_nothing(tmp_path):
    with pytest.raises(OSError, match="disk full"):
        _fail_in_write(tmp_path / "grid.csv", None)
    assert os.listdir(tmp_path) == []
