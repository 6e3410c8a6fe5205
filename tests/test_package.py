import laneemden


def test_all_names_resolve():
    assert len(set(laneemden.__all__)) == len(laneemden.__all__)
    assert [name for name in laneemden.__all__ if not hasattr(laneemden, name)] == []
