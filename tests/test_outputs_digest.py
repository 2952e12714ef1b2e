"""The committed digest of every shipped output.

``tests/data/outputs.sha256`` lists the sha256 of each CSV that
``simulate``, ``compare``, ``sweep --var theta1``, ``sweep --var phi``,
``mortality`` and ``coeffs`` write on all four model kinds at the shipped
config, and of the ``policy --t 0/10/20/30`` lines. The test regenerates
them and compares them file by file, so a change that moves any output byte
fails here. A change that moves an output on purpose rewrites the file in
the same commit and states which entries moved and by how much:

    PYTHONPATH=src python tests/test_outputs_digest.py --keep new
    PYTHONPATH=src python tests/test_outputs_digest.py --compare old new

The first rewrites the file and keeps the outputs under ``new``, one file
per entry at the entry's name; the second prints, for each entry that
differs between two kept directories (``old`` kept the same way before the
change), how many of its fields moved and their largest relative change.

numpy's ``Generator`` does not promise the same normals across numpy
versions (NEP 19), so the file records the numpy version it was made with,
and a failure names both.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from pendraw.cli import main
from pendraw.config import MODEL_KINDS, default_config_path

DIGEST = Path(__file__).with_name("data") / "outputs.sha256"
SWEEPS = {"theta1": "0,-0.003", "phi": "0,1"}
POLICY_TIMES = ("0", "10", "20", "30")


def _run(argv) -> bytes:
    """Runs ``pendraw argv`` in this process; returns its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue().encode()


def shipped_outputs(work: Path) -> dict:
    """{entry name: sha256} of every digested output, written under work at
    its entry name."""
    digests = {}
    for kind in MODEL_KINDS:
        config = work / f"{kind}.cfg"
        config.write_text(default_config_path().read_text()
                          .replace("kind = ou-single", f"kind = {kind}"))
        runs = {"simulate": [], "compare": [], "mortality": [], "coeffs": []}
        runs.update({f"sweep-{var}": ["--var", var, f"--values={values}"]
                     for var, values in SWEEPS.items()})
        for name, extra in runs.items():
            out = work / kind / name
            _run([name.split("-")[0], "--config", str(config),
                  "--out", str(out), *extra])
            for path in sorted(out.iterdir()):
                digests[f"{kind}/{name}/{path.name}"] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
        (work / kind / "policy").mkdir(exist_ok=True)
        for t in POLICY_TIMES:
            lines = _run(["policy", "--config", str(config), "--t", t])
            (work / kind / "policy" / f"t={t}").write_bytes(lines)
            digests[f"{kind}/policy/t={t}"] = hashlib.sha256(lines).hexdigest()
    return digests


def read_digest():
    """(numpy version, {entry name: sha256}) of the committed digest."""
    version, digests = None, {}
    for line in DIGEST.read_text().splitlines():
        if line.startswith("# numpy "):
            version = line.split()[-1]
        elif line and not line.startswith("#"):
            sha, name = line.split("  ", 1)
            digests[name] = sha
    return version, digests


def write_digest(digests: dict) -> None:
    DIGEST.write_text(f"# numpy {np.__version__}\n" + "".join(
        f"{sha}  {name}\n" for name, sha in sorted(digests.items())))


def test_every_shipped_output_matches_the_digest(tmp_path):
    version, want = read_digest()
    got = shipped_outputs(tmp_path)
    moved = sorted(name for name in want.keys() & got.keys()
                   if want[name] != got[name])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (moved or missing or extra), (
        f"outputs differ from {DIGEST.name} (made with numpy {version}, run "
        f"with numpy {np.__version__}): moved {moved}, missing {missing}, "
        f"new {extra}")
    # each entry is kept at its name, as --keep and --compare read them
    assert all((tmp_path / name).is_file() for name in got)


def test_compare_names_each_moved_entry(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, value in ((old, "1.5"), (new, "1.50000003")):
        (root / "k" / "run").mkdir(parents=True)
        (root / "k.cfg").write_text("not an output\n" + value)
        (root / "k" / "run" / "a.csv").write_text(
            f"t,x,y\n0,{value},a\n1,2,b\n")
        (root / "k" / "run" / "b.csv").write_text("t,x\n0,1\n")
    (new / "k" / "extra").write_text("1\n")
    (new / "k" / "run" / "b.csv").write_text("t,x\n0,one\n")
    assert compare_kept(old, new) == [
        f"k/extra: only in {new}",
        "k/run/a.csv: 1 field(s) moved, largest relative change 2e-08",
        "k/run/b.csv: 1 field(s) moved, largest relative change inf"]


def _field_moves(old: bytes, new: bytes):
    """(fields that differ, their largest relative change) between two CSV
    outputs of the same layout; a field that is not a number, or a row or
    field that only one side has, counts as a change of inf."""
    rows_old, rows_new = old.decode().splitlines(), new.decode().splitlines()
    moved, worst = abs(len(rows_old) - len(rows_new)), 0.0
    if moved:
        worst = float("inf")
    for row_old, row_new in zip(rows_old, rows_new):
        a, b = row_old.split(","), row_new.split(",")
        if len(a) != len(b):
            moved, worst = moved + 1, float("inf")
            continue
        for x, y in zip(a, b):
            if x == y:
                continue
            moved += 1
            try:
                x, y = float(x), float(y)
                change = abs(y - x) / abs(x) if x else float("inf")
            except ValueError:
                change = float("inf")
            worst = max(worst, change)
    return moved, worst


def compare_kept(old: Path, new: Path) -> list:
    """One line per entry that differs between two directories kept by
    ``--keep``: its name, the fields that moved and their largest relative
    change, or that only one side has it."""
    names = {str(p.relative_to(root)) for root in (old, new)
             for p in root.rglob("*") if p.is_file() and p.suffix != ".cfg"}
    lines = []
    for name in sorted(names):
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {old if a.is_file() else new}")
        elif a.read_bytes() != b.read_bytes():
            moved, worst = _field_moves(a.read_bytes(), b.read_bytes())
            lines.append(f"{name}: {moved} field(s) moved, largest relative "
                         f"change {worst:.3g}")
    return lines


def _main(argv) -> None:
    parser = argparse.ArgumentParser(description="Rewrite the output digest, "
                                     "or compare two kept output directories.")
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="write the outputs under DIR and keep them")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        type=Path, help="print what moved from OLD to NEW, "
                        "both kept by --keep; the digest is not rewritten")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare_kept(*args.compare)
        print("\n".join(lines) if lines else "no entry moved")
        return
    with contextlib.ExitStack() as stack:
        work = args.keep or Path(stack.enter_context(
            tempfile.TemporaryDirectory()))
        work.mkdir(parents=True, exist_ok=True)
        write_digest(shipped_outputs(work))
    print(f"wrote {DIGEST}", file=sys.stderr)


if __name__ == "__main__":
    _main(sys.argv[1:])
