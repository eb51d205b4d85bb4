"""`rng.fan_out`: the same results for any CPU count, and no child left behind.

The CPU count is set by replacing `os.sched_getaffinity`, so the
several-CPU cases fork (and hold) on a one-CPU machine too.  After each
test no child of this process is left, running or unreaped.
"""

import io
import os
import signal
import time

import pytest

from prenelab import rng
from prenelab.replicator import EscapeConfig, run_escape_experiment
from prenelab.soup import SoupConfig, run_catalysis_experiment


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _timed_out(signum, frame):
    raise TimeoutError("fan_out test still running after 60 s")


@pytest.fixture(autouse=True)
def no_child_left():
    previous = signal.signal(signal.SIGALRM, _timed_out)  # a hang fails the test
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _escape():
    trace = io.StringIO()
    report = run_escape_experiment(EscapeConfig(n_pairs=5, horizon=10, master_seed=5), trace)
    return report, trace.getvalue()


def _soup():
    return run_catalysis_experiment(SoupConfig(n_replicates=4, horizon=2.0, master_seed=6))


@pytest.mark.parametrize("count", [2, 3, 64], ids=["two-cpus", "three-cpus", "more-cpus-than-replicates"])
def test_experiments_give_one_cpus_report_and_trace(monkeypatch, count):
    _cpus(monkeypatch, 1)
    escape, soup = _escape(), _soup()
    assert escape[1]
    _cpus(monkeypatch, count)
    assert _escape() == escape
    assert _soup() == soup


def test_results_come_back_in_index_order(monkeypatch):
    _cpus(monkeypatch, 3)
    assert rng.fan_out(lambda i: (i, os.getpid()), 0) == []
    results = rng.fan_out(lambda i: (i, os.getpid()), 7)
    assert [i for i, _ in results] == list(range(7))
    assert {pid for i, pid in results if i % 3 == 0} == {os.getpid()}  # share 0 stays here
    assert len({pid for _, pid in results}) == 3


def test_a_childs_exception_is_raised_with_its_type_and_message(monkeypatch):
    here = os.getpid()

    def boom(i):
        if i == 3 and os.getpid() != here:
            raise ValueError(f"boom {i}")
        return i

    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="^boom 3$"):
        rng.fan_out(boom, 6)


def test_a_child_killed_before_answering_names_its_status(monkeypatch):
    def die(i):
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    _cpus(monkeypatch, 2)
    status = -signal.SIGKILL
    with pytest.raises(ChildProcessError, match=f"exited with status {status} before answering$"):
        rng.fan_out(die, 4)


def test_children_are_reaped_when_this_process_share_raises(monkeypatch):
    def work(i):
        if i == 0:
            raise KeyError("share 0")
        time.sleep(30)  # the children would hold this process up unless killed

    _cpus(monkeypatch, 3)
    started = time.monotonic()
    with pytest.raises(KeyError, match="share 0"):
        rng.fan_out(work, 3)
    assert time.monotonic() - started < 10
