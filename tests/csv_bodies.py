"""Print a sha256 of the CSV body and the JSON file of each ptone command.

Not collected by pytest (no ``test_`` prefix); run from a checkout's root:

    PYTHONPATH=src python3 tests/csv_bodies.py                # every command
    PYTHONPATH=src python3 tests/csv_bodies.py eig sweep-matrix
    PYTHONPATH=src python3 tests/csv_bodies.py --check SAVED   # compare

The commands are every README command that writes CSV (``selftest``
is the README's ``selftest --out``) and the three matrices of the
ROADMAP (``eig-matrix``, ``sweep-matrix``, ``rstar-matrix``).  Names
given as arguments pick a subset.  Each command runs through
``cli.main`` on a cold solver cache and writes its CSV to a temporary
file; the digest covers the file without its leading ``# `` line, which
carries a timestamp.  Every command but ``selftest``, whose JSON holds
runtimes, also writes its ``--json`` file, which carries no timestamp,
and gets a second line for it.  Two checkouts whose digests agree print
byte-identical CSV bodies and JSON files.  Output lines read
``<sha256>  <name>`` for the CSV body, with ``  (exit N)`` appended when
the command exits N != 0, and ``<sha256>  <name>.json`` for the JSON.

``--check SAVED`` compares against a saved output of this script: save
the digests of one checkout (``... csv_bodies.py > SAVED``), then run
``--check SAVED`` in the other.  It runs the commands named in SAVED
(or the subset named as arguments), prints one line per digest that
moved, with the saved and the new line, and a summary.  Only the lines
SAVED holds are compared, so a SAVED without ``.json`` lines compares
the CSV bodies alone.  It exits 1 if any moved and 0 if every one
matched.
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


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines(name, argv):
    """Output lines of one cold-cache cli run: the CSV body's digest with
    the exit code, then the JSON file's (all but selftest)."""
    radial.clear_solver_cache()
    with_json = argv[0] != "selftest"
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = Path(tmp) / "out.csv", Path(tmp) / "out.json"
        extra = ["--out", str(csv_path)]
        if with_json:
            extra += ["--json", str(json_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + extra)
        text = csv_path.read_text()
        json_text = json_path.read_text() if with_json else None
    if text.startswith("# "):
        text = text.split("\n", 1)[1]
    lines = ["%s  %s%s" % (_sha(text), name, "" if code == 0 else
                           "  (exit %d)" % code)]
    if with_json:
        lines.append("%s  %s.json" % (_sha(json_text), name))
    return lines


def check(saved_path, names):
    """Compare against the saved digest lines; return the exit status."""
    saved = {}
    for line in Path(saved_path).read_text().splitlines():
        if line.strip():
            saved[line.split()[1]] = line.rstrip()
    cmds = commands()
    saved_cmds = list(dict.fromkeys(n.removesuffix(".json") for n in saved))
    unknown = [n for n in saved_cmds if n not in cmds]
    if unknown:
        raise SystemExit("%s names unknown command %s"
                         % (saved_path, ", ".join(unknown)))
    missing = [n for n in names if n not in saved_cmds]
    if missing:
        raise SystemExit("%s has no digest for %s"
                         % (saved_path, ", ".join(missing)))
    moved = count = 0
    for name in names or saved_cmds:
        for line in digest_lines(name, cmds[name]):
            key = line.split()[1]
            if key not in saved:
                continue
            count += 1
            if line != saved[key]:
                moved += 1
                print("moved: %s\n  saved %s\n  now   %s"
                      % (key, saved[key], line))
    print("%d of %d digests moved" % (moved, count) if moved else
          "all %d digests match %s" % (count, saved_path))
    return 1 if moved else 0


def main(args):
    if args[:1] == ["--check"]:
        if len(args) < 2:
            raise SystemExit("--check needs the file of saved digests")
        return check(args[1], args[2:])
    names = args
    cmds = commands()
    unknown = [n for n in names if n not in cmds]
    if unknown:
        raise SystemExit("unknown command %s; choose from %s"
                         % (", ".join(unknown), ", ".join(cmds)))
    for name in names or cmds:
        print("\n".join(digest_lines(name, cmds[name])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
