import protofed as pf


def test_every_exported_name_resolves():
    missing = [name for name in pf.__all__ if not hasattr(pf, name)]
    assert not missing
    assert len(set(pf.__all__)) == len(pf.__all__)
