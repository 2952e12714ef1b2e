"""The package's public names: ``__all__`` lists exactly what it imports."""

import types

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
