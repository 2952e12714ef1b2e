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


def fresh_import_modules():
    """The modules a fresh interpreter loads for `import pendraw, pendraw.cli`."""
    code = ("import sys; before = set(sys.modules); import pendraw, pendraw.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(pendraw.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return set(subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True,
                              text=True).stdout.split())


def test_import_loads_no_third_party_module_but_numpy():
    # the runtime depends on numpy alone
    out = {m.split('.')[0] for m in fresh_import_modules()}
    assert "pendraw" in out and "numpy" in out
    third_party = set(out) - set(sys.stdlib_module_names) - {"pendraw",
                                                            "numpy"}
    assert sorted(third_party) == []


def test_import_defers_the_oracle_and_rule_modules():
    # the Gauss-Legendre nodes (numpy.polynomial) and the exact Gregory
    # corrections (fractions) are loaded on first use, outside the start-up
    # of every command
    loaded = fresh_import_modules()
    assert sorted(m for m in loaded if m == "fractions"
                  or m.startswith("numpy.polynomial")) == []
