"""The package's exported names."""

import homoglab


def test_all_names_resolve_once():
    """Every name in `__all__` is defined and listed once, so a deleted
    function cannot linger there and break `from homoglab import *`."""
    names = homoglab.__all__
    assert sorted(set(names)) == sorted(names)
    assert [n for n in names if not hasattr(homoglab, n)] == []
