import macert


def test_public_names_resolve_once():
    # a name left in __all__ after its code is gone breaks `from macert import *`
    assert len(set(macert.__all__)) == len(macert.__all__)
    namespace = {}
    exec("from macert import *", namespace)
    assert all(name in namespace for name in macert.__all__)
