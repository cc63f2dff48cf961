"""Flat binary container: JSON metadata header + named fp64 arrays.

Layout: 8-byte magic, u64-LE header length, UTF-8 JSON header, then raw
little-endian float64 array data in header order. Round-trips byte-exactly,
which checkpoint and resume tests rely on.

`atomic_write` is how deskrl replaces a file (checkpoints, `updates.json`,
`manifest.json`): the bytes go to a temp file in the same directory, which
then replaces the target with `os.replace`, so a reader or a killed writer
sees the old file or the new one, never a part of either.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

MAGIC = b"DESKRL01"

__all__ = ["atomic_write", "write_container", "read_container"]


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temp file beside `path`; when the block ends without raising it
    replaces `path`, and when it raises it is removed and `path` is untouched.

    The temp name starts with a dot, so listings of a run's files skip it.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    header = {
        "meta": meta,
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }
    # Canonical JSON so identical state always produces identical bytes.
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for v in arrays.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def _parse_header(path, raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
        header = None
    if not (isinstance(header, dict) and "meta" in header
            and isinstance(header.get("arrays"), list)
            and all(map(_is_array_spec, header["arrays"]))):
        raise ValueError(f"{path}: corrupt header (not a UTF-8 JSON object with 'meta' "
                         f"and a list of 'arrays', each with a name and a shape)")
    return header


def _is_array_spec(spec) -> bool:
    return (isinstance(spec, dict) and isinstance(spec.get("name"), str)
            and isinstance(spec.get("shape"), list)
            and all(isinstance(n, int) and n >= 0 for n in spec["shape"]))


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container; raise ValueError naming the path if it is cut short,
    its header is corrupt, or it has bytes after the last array."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a deskrl container (bad magic {magic!r})")

        def read_exact(count: int, what: str) -> bytes:
            data = f.read(count)
            if len(data) != count:
                raise ValueError(f"{path}: truncated in {what} "
                                 f"(wanted {count} bytes, got {len(data)})")
            return data

        (hlen,) = struct.unpack("<Q", read_exact(8, "the header length"))
        header = _parse_header(path, read_exact(hlen, "the header"))
        arrays: dict[str, np.ndarray] = {}
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = read_exact(count * 8, f"array {spec['name']!r}")
            arrays[spec["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)
        extra = os.fstat(f.fileno()).st_size - f.tell()
        if extra:
            raise ValueError(f"{path}: {extra} unexpected bytes after the last array")
    return header["meta"], arrays
