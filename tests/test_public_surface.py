import menon_subsets


def test_every_exported_name_exists_once():
    names = menon_subsets.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(menon_subsets, name)] == []
