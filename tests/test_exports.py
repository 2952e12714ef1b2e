"""The package's public names: ``__all__`` lists exactly what it imports,
and importing the package loads no third-party module besides numpy."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pendraw


def test_every_exported_name_resolves():
    assert [name for name in pendraw.__all__ if not hasattr(pendraw, name)] \
        == []
    assert len(set(pendraw.__all__)) == len(pendraw.__all__)


def test_no_public_import_is_left_out_of_all():
    public = {name for name, value in vars(pendraw).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(pendraw.__all__)) == []


def test_import_loads_no_third_party_module_but_numpy():
    # the runtime depends on numpy alone; a fresh interpreter shows what
    # `import pendraw, pendraw.cli` pulls in
    code = ("import sys; before = set(sys.modules); import pendraw, pendraw.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    src = str(Path(pendraw.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "pendraw" in out and "numpy" in out
    third_party = set(out) - set(sys.stdlib_module_names) - {"pendraw",
                                                            "numpy"}
    assert sorted(third_party) == []
