"""Helpers shared by the tests of the forked map (`radial.fork_map`).

Test modules import them by name (``from conftest import _cpus``); the
tests directory is on the import path.
"""

import collections
import os
import time

import pytest

from ptone import radial


def _cpus(monkeypatch, n):
    """Make `radial.fork_map` see n CPUs, and count the processes it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _one_item_each(monkeypatch, path, first):
    """Make a two-item `radial.fork_map` run item 0 in the process named
    first ("parent" or "child") and item 1 in the other; return the
    function every item must call before its work.

    After the fork the other process waits until an item has started,
    and each item, once it has logged its start in path, waits until
    both have, so neither process takes both.  A wait gives up after
    30 s, and the test's own checks then fail.
    """
    _cpus(monkeypatch, 2)
    path.write_text("")
    fork = os.fork

    def ordered_fork():
        pid = fork()
        if (pid == 0) != (first == "child"):
            _wait_for_lines(path, 1)
        return pid

    def start():
        with open(path, "a") as fh:
            fh.write("%d\n" % os.getpid())
        _wait_for_lines(path, 2)

    monkeypatch.setattr(os, "fork", ordered_fork)
    return start


def _wait_for_lines(path, k, seconds=30.0):
    """Wait until path holds k lines, or give up after seconds."""
    deadline = time.monotonic() + seconds
    while (len(path.read_text().split()) < k
           and time.monotonic() < deadline):
        time.sleep(0.001)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_calls(monkeypatch, path):
    """Append one line to path per call of `radial._solve`, `radial._shoot`
    and `RadialSolution._march`, in this process and in every process it
    forks; return a function that reads the counts by name."""
    for owner, name in ((radial, "_solve"), (radial, "_shoot"),
                        (radial.RadialSolution, "_march")):
        def spy(*args, _fn=getattr(owner, name), _name=name):
            with open(path, "a") as fh:
                fh.write(_name + "\n")
            return _fn(*args)
        monkeypatch.setattr(owner, name, spy)
    path.write_text("")
    return lambda: collections.Counter(path.read_text().split())
