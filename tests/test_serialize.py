import numpy as np
import pytest

from deskrl.rng import Rng
from deskrl import serialize
from deskrl.serialize import MAGIC, read_container, write_container


def test_round_trip_preserves_meta_and_arrays(tmp_path):
    meta = {"config": {"a": 1, "b": "text"}, "nested": [1, 2, 3]}
    arrays = {
        "w": Rng(0).normal(size=(3, 4, 5)),
        "b": np.zeros(7),
        "scalar": np.asarray([42.0]),
    }
    path = tmp_path / "c.bin"
    write_container(path, meta, arrays)
    meta2, arrays2 = read_container(path)
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for k in arrays:
        np.testing.assert_array_equal(arrays2[k], arrays[k])
        assert arrays2[k].dtype == np.float64


def test_identical_state_produces_identical_bytes(tmp_path):
    meta = {"x": 1}
    arrays = {"a": Rng(3).normal(size=(8, 8))}
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    write_container(p1, meta, arrays)
    write_container(p2, {"x": 1}, {"a": arrays["a"].copy()})
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_prefix_and_bad_magic(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {}, {})
    assert path.read_bytes()[:8] == MAGIC
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_container(bad)


def test_empty_arrays_round_trip(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"only": "meta"}, {})
    meta, arrays = read_container(path)
    assert meta == {"only": "meta"}
    assert arrays == {}


def _damaged(tmp_path, transform):
    path = tmp_path / "c.bin"
    write_container(path, {"k": 1}, {"first": np.ones(4), "last": Rng(1).normal(size=(2, 3))})
    path.write_bytes(transform(path.read_bytes()))
    return path


@pytest.mark.parametrize("cut", [3, 8])
def test_truncated_container_names_path_and_array(tmp_path, cut):
    path = _damaged(tmp_path, lambda b: b[:-cut])
    with pytest.raises(ValueError, match=r"c\.bin: truncated in array 'last'"):
        read_container(path)


def test_truncated_header_is_reported(tmp_path):
    path = _damaged(tmp_path, lambda b: b[:20])
    with pytest.raises(ValueError, match="truncated in the header"):
        read_container(path)


@pytest.mark.parametrize("old,new", [
    (b'{"arrays"', b'["arrays"'),
    (b'"k"', b'"\xff"'),
    (b'"arrays"', b'"arrayz"'),
    (b'"meta"', b'"mext"'),
    (b'"name"', b'"nome"'),
    (b'[2,3]', b'"2,3"'),
    (b'[2,3]', b'[2.5]'),
], ids=["not-json", "not-utf8", "no-arrays", "no-meta", "no-name", "shape-not-a-list",
        "shape-not-ints"])
def test_corrupt_header_names_the_path(tmp_path, old, new):
    # Same-length edits, so only the header's content is wrong.
    path = _damaged(tmp_path, lambda b: b.replace(old, new, 1))
    with pytest.raises(ValueError, match=r"c\.bin: corrupt header"):
        read_container(path)


def test_trailing_bytes_are_rejected(tmp_path):
    path = _damaged(tmp_path, lambda b: b + b"\x00" * 8)
    with pytest.raises(ValueError, match=r"c\.bin: 8 unexpected bytes"):
        read_container(path)


def test_a_write_that_raises_leaves_the_old_file(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"x": 1}, {"a": np.zeros(3)})
    before = path.read_bytes()
    # The header and the first array are written before the second fails.
    with pytest.raises(ValueError):
        write_container(path, {"x": 2}, {"a": np.ones(3), "b": np.array(["not a float"])})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin"]

    with pytest.raises(RuntimeError):
        with serialize.atomic_write(path, "wb") as f:
            f.write(b"partial")
            raise RuntimeError("midway")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin"]
