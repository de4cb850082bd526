"""Artifact writing: atomic renames, the error path, file modes, and
concurrent writers to the same path."""

import os
import stat
import sys
import threading

import pytest

from secquant.export import write_all


def test_error_leaves_no_artifact_and_no_temp(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file, so nothing can be created under it\n")
    with pytest.raises(OSError):
        write_all([(tmp_path / "a.csv", "a\n"), (blocker / "b.csv", "b\n")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


def test_one_path_named_twice_is_refused_before_any_write(tmp_path):
    (tmp_path / "sub").mkdir()
    files = [(tmp_path / "b.csv", "b\n"), (tmp_path / "a.csv", "a\n"),
             (tmp_path / "sub" / ".." / "a.csv", "again\n")]
    with pytest.raises(ValueError, match="artifact path named twice: .*a.csv"):
        write_all(files)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_mode_is_that_of_a_plain_open(tmp_path):
    write_all([(tmp_path / "artifact.csv", "x\n")])
    with open(tmp_path / "reference.csv", "w") as fh:
        fh.write("x\n")
    modes = [stat.S_IMODE(os.stat(tmp_path / n).st_mode)
             for n in ("artifact.csv", "reference.csv")]
    assert modes[0] == modes[1]


def test_concurrent_writers_to_one_path(tmp_path):
    target = tmp_path / "out.csv"
    n_threads = 2 * (os.cpu_count() or 1) + 2
    payloads = [f"writer {i}\n" * 2000 for i in range(n_threads)]
    errors = []

    def writer(payload):
        try:
            for _ in range(30):
                write_all([(target, payload)])
        except Exception as exc:  # collected and asserted on below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_text() in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
