import realhurwitz


def test_all_lists_each_exported_name_once_in_order():
    names = realhurwitz.__all__
    assert names == sorted(set(names))
    # a listed name that does not resolve makes the star import raise
    exec("from realhurwitz import *", {})
