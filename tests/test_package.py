import milnor_frames


def test_public_names_resolve_and_are_listed_once_in_order():
    names = milnor_frames.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(milnor_frames, name)] == []
