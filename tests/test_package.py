"""Package surface: the public names exported from phasefree."""

import phasefree


def test_every_export_resolves_once():
    """A name left in __all__ after its definition is deleted fails here."""
    missing = [name for name in phasefree.__all__ if not hasattr(phasefree, name)]
    assert missing == []
    assert len(set(phasefree.__all__)) == len(phasefree.__all__)
