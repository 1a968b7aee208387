"""The package namespace."""

import steingrad


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone fails here
    missing = [name for name in steingrad.__all__ if not hasattr(steingrad, name)]
    assert missing == []
