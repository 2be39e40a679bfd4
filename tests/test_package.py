"""Package root: the public names it exports."""

import biramsey


def test_all_names_exist_once():
    # a name left in __all__ after its object is gone breaks star imports
    names = biramsey.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(biramsey, name)] == []
