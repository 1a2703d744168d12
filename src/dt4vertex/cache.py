"""Content-addressed vertex cache.

One JSON record per fixed point, in standard coordinates, keyed by the
canonical fixed-point key (legs and added boxes, box configuration, or edge
and normal degrees): the TLaurent rendering of V and the factored rendering
of its Euler root, behind a versioned header.  A chart's root is relabelled
from that record, so the key holds no substitution.  The file lives at
<dir>/vertices.jsonl; DT4VERTEX_CACHE_DIR overrides the default directory.
"""

from __future__ import annotations

import json
import os

FORMAT = "dt4vertex-cache"
VERSION = 1
FILENAME = "vertices.jsonl"
# keys of the records an older layout wrote per chart; nothing looks them up
CHART_PREFIX = "@["


def default_cache_dir():
    env = os.environ.get("DT4VERTEX_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "dt4vertex")


class VertexCache:
    """In-memory vertex store persisted as JSONL, one append per new record.

    An append that was cut short leaves a last line without its newline.
    Loading skips that line, and the next append cuts it away first; any
    other malformed line raises.  Loading also skips the records of chart
    roots (keys behind a chart prefix) that an older layout wrote, since
    chart roots are now relabelled from standard ones.
    """

    def __init__(self, directory=None):
        self.directory = directory if directory is not None else default_cache_dir()
        self._data = {}
        self._torn_at = None  # byte offset of a torn last line, if any
        self.hits = 0
        self.misses = 0
        self._load()

    @property
    def path(self):
        return os.path.join(self.directory, FILENAME)

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            header = fh.readline()
            if not header.endswith(b"\n"):  # an empty file or a torn header
                self._torn_at = 0
                return
            meta = json.loads(header)
            if meta.get("format") != FORMAT or meta.get("version") != VERSION:
                raise ValueError(f"unrecognized cache file {self.path}")
            for line in fh:
                if not line.endswith(b"\n"):
                    self._torn_at = fh.tell() - len(line)
                    break
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    if not rec["key"].startswith(CHART_PREFIX):
                        self._data[rec["key"]] = rec

    def _append(self, record):
        os.makedirs(self.directory, exist_ok=True)
        with open(self.path, "ab") as fh:
            if self._torn_at is not None:
                fh.truncate(self._torn_at)
                self._torn_at = None
            if fh.seek(0, os.SEEK_END) == 0:
                fh.write(json.dumps({"format": FORMAT, "version": VERSION}).encode() + b"\n")
            fh.write(json.dumps(record, sort_keys=True).encode() + b"\n")

    def get(self, key):
        rec = self._data.get(key)
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def put(self, key, record):
        if key in self._data:
            return
        self._data[key] = record
        self._append(record)

    def keys(self):
        return sorted(self._data)

    def __len__(self):
        return len(self._data)

    def stats(self):
        return {"directory": self.directory, "entries": len(self._data)}

    def clear(self):
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self._torn_at = None
        if os.path.exists(self.path):
            os.remove(self.path)
