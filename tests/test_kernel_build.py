"""The compiled walk's library: built once per source, cached, shared.

`ptone._ode` builds its C kernel with the system compiler on first
import and keeps it in the package's __pycache__.  Each build below runs
in a fresh interpreter (`_python`), which imports `ptone._ode` (loading
the package's cached library) and then builds into a directory of the
test's own, so no test process loads a file that a test then changes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import ptone
from conftest import _one_item_each
from ptone import radial

SRC = str(Path(ptone.__file__).resolve().parents[1])

# Counts the compiler runs of what follows it, this import included.
_SPY = """\
import subprocess, sys
compiles = []
run = subprocess.run
def spy(*args, **kwargs):
    compiles.append(args)
    return run(*args, **kwargs)
subprocess.run = spy
from ptone import _ode, modelspace, radial
"""

# Checks that the walk of the library lib takes a step bit for bit as the
# package's own library does, and prints the count of compiler runs.
_CHECK = """\
fn = lib.walk
fn.argtypes, fn.restype = _ode._c_walk.argtypes, _ode._c_walk.restype
def step():
    walk = radial._make_rhs(2.5, 2, modelspace.space_form(-1.0), 7.25)[2]
    return walk([0.3], [0.01], 0.5, -0.25, 0.1, -0.2, [0.0], [0.0], None)
want = step()
_ode._c_walk = fn
assert step() == want
print(len(compiles))
"""

# Loads the library of the directory argv[1], building it there if it
# must.
_BUILD = _SPY + "lib = _ode._load(sys.argv[1])\n" + _CHECK


def _python(code, *args, path=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    if path is not None:
        env["PATH"] = path
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _libraries(directory):
    return sorted(p for p in directory.iterdir() if p.suffix == ".so")


def _whole(library):
    # the library's name ends with a sha256 of its bytes
    digest = hashlib.sha256(library.read_bytes()).hexdigest()[:20]
    return library.name.endswith("." + digest + ".so")


def test_a_second_import_loads_the_cached_library():
    # This process's import left the library in the package's
    # __pycache__, so a fresh import runs no compiler.
    done = _python(_SPY + "print(len(compiles))\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_a_truncated_library_is_rebuilt(tmp_path):
    done = _python(_BUILD, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]
    [library] = _libraries(tmp_path)
    whole = library.read_bytes()
    library.write_bytes(whole[:len(whole) // 2])
    done = _python(_BUILD, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]
    [library] = _libraries(tmp_path)
    assert _whole(library)
    # once whole, it is loaded as it is
    done = _python(_BUILD, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_two_builds_into_one_empty_directory_both_load(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    builds = [subprocess.Popen([sys.executable, "-c", _BUILD, str(tmp_path)],
                               env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
              for _ in range(2)]
    for build in builds:
        out, err = build.communicate(timeout=120)
        assert build.returncode == 0, err
        assert out.split() in (["0"], ["1"])
    libraries = _libraries(tmp_path)
    assert libraries and all(_whole(p) for p in libraries)
    # no temporary file is left behind
    assert set(tmp_path.iterdir()) == set(libraries)


def test_a_missing_compiler_fails_the_import_with_its_message(tmp_path):
    done = _python(_SPY + "_ode._load(sys.argv[1])\n", str(tmp_path),
                   path=str(tmp_path))
    assert done.returncode == 1
    assert "ImportError: ptone._ode needs a C compiler, cc" in done.stderr
    assert "No such file or directory" in done.stderr
    assert not list(tmp_path.iterdir())


def test_an_unwritable_cache_builds_in_a_private_directory():
    # The library is built in a directory of tempfile.mkdtemp's, removed
    # once the library is loaded.
    done = _python(_SPY + """\
import os, tempfile
made = []
mkdtemp = tempfile.mkdtemp
tempfile.mkdtemp = lambda: made.append(mkdtemp()) or made[-1]
def refuse(*args, **kwargs):
    raise PermissionError("read-only")
os.makedirs = refuse
lib = _ode._library()
assert len(made) == 1 and not os.path.exists(made[0])
""" + _CHECK)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]


def test_a_fork_map_child_never_compiles(monkeypatch, tmp_path):
    # A forked child inherits the loaded library: its marches run on it,
    # and nothing compiles.
    start = _one_item_each(monkeypatch, tmp_path / "started", "child")

    def refuse(*args, **kwargs):
        raise AssertionError("process %d ran %r" % (os.getpid(), args))

    monkeypatch.setattr(subprocess, "run", refuse)

    def item(c):
        start()
        return os.getpid(), _omega(c)

    rows = radial.fork_map(item, [-1.0, 1.0])
    assert {pid for pid, _ in rows} - {os.getpid()}
    assert [w for _, w in rows] == [_omega(-1.0), _omega(1.0)]


def _omega(c):
    """A node of a fresh march on the unit ball, p = 2.5, m = 2."""
    sol = radial.solve_ball_eigenvalue(radial.ball_problem(2.5, 2, c, 1.0),
                                       use_cache=False)
    return float(sol.omega[1000])
