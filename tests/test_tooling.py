"""Tests of the repository's scripts."""
import importlib.util
import os


def _bench_ab():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_ab.py")
    spec = importlib.util.spec_from_file_location("bench_ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_digest_names_the_source_tree(tmp_path):
    """Two copies of one tree digest alike, bytecode caches aside, and one
    changed byte changes the digest."""
    src_digest = _bench_ab().src_digest
    for side in ("a", "b"):
        pkg = tmp_path / side / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_bytes(b"x = 1\n")
        (pkg.parent / "top.py").write_bytes(b"")
    cache = tmp_path / "b" / "src" / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython-311.pyc").write_bytes(b"\0")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert src_digest(a) == src_digest(b)
    (tmp_path / "b" / "src" / "pkg" / "mod.py").write_bytes(b"x = 2\n")
    assert src_digest(a) != src_digest(b)
