"""Print a sha256 of the CSV body of each CSV-producing ptone command.

Not collected by pytest (no ``test_`` prefix); run from a checkout's root:

    PYTHONPATH=src python3 tests/csv_bodies.py                # every command
    PYTHONPATH=src python3 tests/csv_bodies.py eig sweep-matrix

The commands are every README command that writes CSV (``selftest``
is the README's ``selftest --out``) and the three matrices of the
ROADMAP (``eig-matrix``, ``sweep-matrix``, ``rstar-matrix``).  Names
given as arguments pick a subset.  Each command runs through
``cli.main`` on a cold solver cache and writes its CSV to a temporary
file; the digest covers the file without its leading ``# `` line, which
carries a timestamp.  Two checkouts whose digests agree print
byte-identical CSV bodies.  Output lines read ``<sha256>  <name>``.
"""

import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

from ptone import cli, radial

README = Path(__file__).resolve().parents[1] / "README.md"

MATRICES = {
    "eig-matrix": "eig --p 2,3,6 --m 1,2,4 --c=-1,0,1 --r 1",
    "sweep-matrix": "sweep --p 2,2.5,3,4 --m 2,3 --c=-1,0,1 --r 1",
    "rstar-matrix": "rstar --p 2,3,4 --m 2,3 --c=-1,0,1 --r 1",
}


def readme_commands():
    """(name, argv) of the README commands that write CSV, --out dropped."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    out = []
    for line in block.splitlines():
        if not line.startswith("ptone "):
            continue
        argv = shlex.split(line.split("#", 1)[0])[1:]
        if "--out" in argv:
            i = argv.index("--out")
            del argv[i:i + 2]
        elif argv[0] == "selftest":
            continue    # prints status lines only
        out.append((argv[0], argv))
    return out


def commands():
    cmds = dict(readme_commands())
    cmds.update((name, shlex.split(line)) for name, line in MATRICES.items())
    return cmds


def body_digest(argv):
    """(sha256 of the CSV body, exit code) of one cold-cache cli run."""
    radial.clear_solver_cache()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(path)])
        text = path.read_text()
    if text.startswith("# "):
        text = text.split("\n", 1)[1]
    return hashlib.sha256(text.encode()).hexdigest(), code


def main(names):
    cmds = commands()
    unknown = [n for n in names if n not in cmds]
    if unknown:
        raise SystemExit("unknown command %s; choose from %s"
                         % (", ".join(unknown), ", ".join(cmds)))
    for name in names or cmds:
        digest, code = body_digest(cmds[name])
        print("%s  %s%s" % (digest, name, "" if code == 0 else
                            "  (exit %d)" % code))


if __name__ == "__main__":
    main(sys.argv[1:])
