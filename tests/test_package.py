"""The package's public names."""

import ecsched


def test_every_export_resolves_once():
    names = ecsched.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    assert [name for name in names if not hasattr(ecsched, name)] == []
