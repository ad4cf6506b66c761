"""Tests of the repository's scripts."""
import importlib.util
import os
import subprocess


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


def test_pairs_swap_slots_and_alternate_order():
    """Pair k puts the parent in slot{k % 2} and runs it first on even k."""
    schedule = _bench_ab().schedule
    parent_first, change_first = ("parent", "change"), ("change", "parent")
    assert [schedule(k) for k in range(4)] == [
        ({"parent": "slot0", "change": "slot1"}, parent_first),
        ({"parent": "slot1", "change": "slot0"}, change_first),
        ({"parent": "slot0", "change": "slot1"}, parent_first),
        ({"parent": "slot1", "change": "slot0"}, change_first),
    ]


def test_staging_builds_revisions_and_checkouts_alike(tmp_path, monkeypatch):
    """A staged revision digests like its checked-out tree; a staged
    checkout carries its uncommitted edits and untracked files."""
    bench_ab = _bench_ab()
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "src" / "pkg" / "mod.py").write_bytes(b"x = 1\n")
    (repo / ".gitignore").write_bytes(b"__pycache__/\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "tree")
    monkeypatch.chdir(repo)
    committed = bench_ab.src_digest(str(repo))
    archive, source = bench_ab.pack("HEAD")
    assert source["staged_from"] == "revision" and len(source["commit"]) == 40
    bench_ab.stage(archive, str(tmp_path / "slot0"))
    assert bench_ab.src_digest(str(tmp_path / "slot0")) == committed

    (repo / "src" / "pkg" / "mod.py").write_bytes(b"x = 2\n")
    (repo / "src" / "pkg" / "new.py").write_bytes(b"")
    (repo / "src" / "pkg" / "__pycache__").mkdir()
    (repo / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    archive, source = bench_ab.pack(str(repo))
    assert source == {"staged_from": "checkout", "path": str(repo)}
    bench_ab.stage(archive, str(tmp_path / "slot0"))  # replaces the revision
    staged = tmp_path / "slot0" / "src" / "pkg"
    assert sorted(p.name for p in staged.iterdir()) == ["mod.py", "new.py"]
    assert bench_ab.src_digest(str(tmp_path / "slot0")) == bench_ab.src_digest(str(repo))
    assert bench_ab.src_digest(str(tmp_path / "slot0")) != committed
