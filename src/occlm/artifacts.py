"""Artifact files: every file occlm writes for a later run goes through here.

A write lands whole or not at all: the bytes go to a temp file beside the
target, are fsynced, then renamed onto it with os.replace, so a run killed
mid-write leaves the previous file (or none), never a truncated one.
"""

import json
import os

from .errors import ConfigError


def write_bytes(path, data):
    """Atomically replace ``path`` with ``data``, creating its directory."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{os.path.basename(path)}.{os.urandom(4).hex()}.tmp")
    # 0o666 under the umask: the same mode open(path, "w") gives a new file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text(path, text):
    write_bytes(path, text.encode("utf-8"))


def write_json(path, obj):
    write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path):
    """Parse a JSON file; malformed JSON is a ConfigError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
