import graphcoupling


def test_star_import_binds_every_exported_name():
    # A stale entry in __all__ makes the star import itself raise.
    namespace = {}
    exec("from graphcoupling import *", namespace)
    assert [name for name in graphcoupling.__all__ if name not in namespace] == []
    assert len(set(graphcoupling.__all__)) == len(graphcoupling.__all__)
