"""Content-addressed vertex cache.

One JSON record per fixed point, in standard coordinates, keyed by the
canonical fixed-point key (legs and added boxes, box configuration, or edge
and normal degrees): the factored rendering of its Euler root and the
CRC-32 of key and root, behind a header that names the format version and
the square-root convention of the roots.  A chart's root is
relabelled from that record, so the key holds no substitution.  The file
lives at <dir>/vertices.jsonl; DT4VERTEX_CACHE_DIR overrides the default
directory.
"""

from __future__ import annotations

import json
import os
import zlib

from .vertexcalc import SQRT_CONVENTION, SqrtEuler

FORMAT = "dt4vertex-cache"
VERSION = 2
FILENAME = "vertices.jsonl"
# the convention of the version-2 files written before the header named it
UNNAMED_SQRT = "positive-lead"


def default_cache_dir():
    env = os.environ.get("DT4VERTEX_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "dt4vertex")


def cache_path(directory=None):
    return os.path.join(directory if directory is not None else default_cache_dir(), FILENAME)


def clear(directory=None):
    """Delete the cache file without reading it, so that a damaged file or
    one of another format can be removed too."""
    try:
        os.remove(cache_path(directory))
    except FileNotFoundError:
        pass


def _checksum(key, root):
    """The CRC-32 a record stores of its key and root.  It detects damage,
    as an unkeyed SHA-256 would, without loading OpenSSL through hashlib,
    which costs a process about 3.5 MB of resident memory."""
    return zlib.crc32(json.dumps({"key": key, "root": root}, sort_keys=True).encode())


class VertexCache:
    """The root store of ``vertexcalc.RootStore`` persisted as JSONL, one
    append per new root; its ``solves`` live as long as it does.

    Loading checks each record against its CRC-32 and decodes its root
    once.  An append that was cut short leaves a last line without its
    newline.  Loading skips that line, and the next append cuts it away
    first.  Any other malformed line, a record whose CRC-32 does not match
    its key and root, a root that does not decode, and a header of another
    format, version or square-root convention raise ValueError, which names
    the file.
    """

    def __init__(self, directory=None):
        self.directory = directory if directory is not None else default_cache_dir()
        self._roots = {}
        self.solves = {}
        self._torn_at = None  # byte offset of a torn last line, if any
        self.hits = 0
        self.misses = 0
        self._load()

    @property
    def path(self):
        return cache_path(self.directory)

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            header = fh.readline()
            if not header.endswith(b"\n"):  # an empty file or a torn header
                self._torn_at = 0
                return
            try:
                meta = json.loads(header)
            except ValueError:
                meta = None
            if not isinstance(meta, dict) or meta.get("format") != FORMAT:
                raise ValueError(f"unrecognized cache file {self.path}")
            if meta.get("version") != VERSION:
                raise ValueError(
                    f"cache file {self.path} has format version {meta.get('version')!r}, "
                    f"not {VERSION}; `dt4vertex cache clear` removes it"
                )
            sqrt = meta.get("sqrt", UNNAMED_SQRT)
            if sqrt != SQRT_CONVENTION:
                raise ValueError(
                    f"cache file {self.path} has square-root convention {sqrt!r}, "
                    f"not {SQRT_CONVENTION!r}; `dt4vertex cache clear` removes it"
                )
            for n, line in enumerate(fh, 2):
                if not line.endswith(b"\n"):
                    self._torn_at = fh.tell() - len(line)
                    break
                if line.strip():
                    key, root = self._record(line, n)
                    self._roots[key] = root

    def _record(self, line, n):
        """(key, root) of the record on line n, checked against its CRC-32
        and decoded."""
        try:
            rec = json.loads(line)
            key, root, crc = rec["key"], rec["root"], rec["crc32"]
        except (ValueError, TypeError, KeyError):
            raise ValueError(f"malformed record on line {n} of cache file {self.path}") from None
        if crc != _checksum(key, root):
            raise ValueError(f"damaged record {key!r} in cache file {self.path}: CRC-32 mismatch")
        try:
            root = SqrtEuler.from_json(root)
            # euler_sqrt writes a parity of 0 or 1 and integer exponents
            exponents = root.value.factors.values()
            if root.parity not in (0, 1) or any(type(e) is not int for e in exponents):
                raise ValueError
        except (KeyError, TypeError, IndexError, ZeroDivisionError, ValueError):
            raise ValueError(f"malformed root {key!r} in cache file {self.path}") from None
        return key, root

    def _append(self, key, root):
        os.makedirs(self.directory, exist_ok=True)
        root = root.to_json()
        record = {"key": key, "root": root, "crc32": _checksum(key, root)}
        with open(self.path, "ab") as fh:
            if self._torn_at is not None:
                fh.truncate(self._torn_at)
                self._torn_at = None
            if fh.seek(0, os.SEEK_END) == 0:
                header = {"format": FORMAT, "version": VERSION, "sqrt": SQRT_CONVENTION}
                fh.write(json.dumps(header).encode() + b"\n")
            fh.write(json.dumps(record, sort_keys=True).encode() + b"\n")

    def get(self, key):
        root = self._roots.get(key)
        if root is None:
            self.misses += 1
        else:
            self.hits += 1
        return root

    def put(self, key, root):
        if key in self._roots:
            return
        self._roots[key] = root
        self._append(key, root)

    def keys(self):
        return sorted(self._roots)

    def __len__(self):
        return len(self._roots)

    def stats(self):
        return {"directory": self.directory, "entries": len(self._roots)}
