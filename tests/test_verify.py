"""`verify.run_all` shares the checks with at most one forked child. Its
results are those of running each check here in CHECKS order, whatever the
child does, and no child outlives the call."""

import errno
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from emeasure import cli, verify
from emeasure.rationals import ResourceError

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def listed(results):
    return [(r.name, r.passed, r.detail) for r in results]


def serial():
    return listed(verify.run_check(fn) for fn in verify.CHECKS)


def assert_no_child():
    # What perfbench reads as a process left running.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("run_all forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)


def fork_fails():
    raise BlockingIOError(errno.EAGAIN, "out of processes")


def checks(monkeypatch, *bodies):
    """Replace CHECKS by `bodies`, registered as check0, check1, ..."""
    monkeypatch.setattr(verify, "CHECKS", [])
    for i, body in enumerate(bodies):
        verify._check(f"check{i}", budget=1.0)(body)


@needs_fork
def test_run_all_forks_one_child_and_matches_a_serial_run(monkeypatch):
    two_cpus(monkeypatch)
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert listed(verify.run_all()) == serial()
    assert len(forks) == 1
    assert_no_child()


@pytest.mark.parametrize(
    "case", ["one CPU", "one CPU counted", "live thread", "no fork", "fork fails"]
)
def test_run_all_forks_nothing_when_it_may_not(monkeypatch, case):
    two_cpus(monkeypatch)
    if case == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "one CPU counted":
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if case == "no fork":
        monkeypatch.delattr(os, "fork", raising=False)
    elif case == "fork fails":
        monkeypatch.setattr(os, "fork", fork_fails, raising=False)
    else:
        forbid_fork(monkeypatch)
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    if case == "live thread":
        helper.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = listed(verify.run_all())
    finally:
        stop.set()
        if helper.is_alive():
            helper.join(timeout=10)
    assert not helper.is_alive()
    assert results == serial()
    assert_no_child()


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_a_check_that_raises_raises_from_run_all_and_the_cli(monkeypatch, capsys, cpus):
    def resources():
        raise ResourceError("over budget")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    checks(monkeypatch, lambda: (True, "ok"), resources, lambda: (True, "ok"))
    with pytest.raises(ResourceError, match="over budget"):
        verify.run_all()
    assert_no_child()
    assert cli.run(["verify-paper"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource error: over budget" in captured.err
    assert_no_child()


def slow_here_and_raising_there(parent, marker, there):
    """A check that passes in `parent` after a pause, which lets the child
    take the next check, and elsewhere leaves `marker` and calls `there`."""

    def body():
        if os.getpid() != parent:
            marker.touch()
            there()
        time.sleep(0.02)
        return True, f"ran in {parent}"

    return body


@needs_fork
@pytest.mark.parametrize("there", ["raise", "SIGKILL"])
def test_a_check_the_child_does_not_finish_runs_in_the_parent(monkeypatch, tmp_path, there):
    def fail():
        if there == "raise":
            raise RuntimeError("only in the child")
        os.kill(os.getpid(), signal.SIGKILL)

    two_cpus(monkeypatch)
    marker = tmp_path / "child"
    checks(
        monkeypatch,
        *(slow_here_and_raising_there(os.getpid(), marker, fail) for _ in range(6)),
    )
    results = listed(verify.run_all())
    assert marker.exists()  # the child took a check
    assert results == [(f"check{i}", True, f"ran in {os.getpid()}") for i in range(6)]
    assert_no_child()


def test_importing_the_cli_skips_modules_most_calls_never_use():
    # Each of these costs milliseconds to import, which every CLI call and
    # perfbench's setup_s would pay. The records are no dataclasses, which
    # import inspect, and only verify-paper's timestamp imports datetime.
    src = Path(verify.__file__).resolve().parents[1]
    code = "import sys, emeasure.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = {name.partition(".")[0] for name in out.split()}
    costly = {"multiprocessing", "concurrent", "pickle", "subprocess"}
    assert not loaded & (costly | {"dataclasses", "inspect", "datetime"})
    assert {"marshal", "threading"} <= loaded
