"""The committed digest of every shipped output.

``tests/data/outputs.sha256`` lists the sha256 of each CSV that
``simulate``, ``compare``, ``sweep --var theta1``, ``sweep --var phi``,
``mortality`` and ``coeffs`` write on all four model kinds at the shipped
config, and of the ``policy --t 0/10/20/30`` lines. The test regenerates
them and compares them file by file, so a change that moves any output byte
fails here. A change that moves an output on purpose rewrites the file in
the same commit and states which entries moved and by how much:

    PYTHONPATH=src python tests/test_outputs_digest.py

numpy's ``Generator`` does not promise the same normals across numpy
versions (NEP 19), so the file records the numpy version it was made with,
and a failure names both.
"""

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
    """{entry name: sha256} of every digested output, written under work."""
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
        for t in POLICY_TIMES:
            lines = _run(["policy", "--config", str(config), "--t", t])
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        write_digest(shipped_outputs(Path(work)))
    print(f"wrote {DIGEST}", file=sys.stderr)
