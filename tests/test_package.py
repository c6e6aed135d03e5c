import isowrist


def test_all_names_exist_sorted_and_unique():
    names = isowrist.__all__
    assert [name for name in names if not hasattr(isowrist, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
