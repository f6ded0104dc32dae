"""Helpers shared by the tests of the forked map (`radial.fork_map`).

Test modules import them by name (``from conftest import _cpus``); the
tests directory is on the import path.
"""

import collections
import os

import pytest

from ptone import radial


def _cpus(monkeypatch, n):
    """Make `radial.fork_map` see n CPUs, and count the processes it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


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
