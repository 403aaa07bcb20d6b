"""Artifact writes: atomic replacement, file modes, failure cleanup."""

import os
import stat

import pytest

from occlm import artifacts


def test_write_bytes_mode_matches_open_and_replaces_whole(tmp_path):
    old_umask = os.umask(0o027)
    try:
        ref = tmp_path / "ref"
        with open(ref, "w"):
            pass
        path = tmp_path / "sub" / "a.bin"
        artifacts.write_bytes(path, b"x" * 100)
        artifacts.write_bytes(path, b"short")
    finally:
        os.umask(old_umask)
    assert path.read_bytes() == b"short"
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode)
    assert os.listdir(path.parent) == ["a.bin"]


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    artifacts.write_json(path, {"v": 1})

    def fail(fd):
        raise OSError("fsync failed")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="fsync failed"):
        artifacts.write_json(path, {"v": 2})
    monkeypatch.undo()
    assert artifacts.read_json(path) == {"v": 1}
    assert os.listdir(tmp_path) == ["a.json"]
