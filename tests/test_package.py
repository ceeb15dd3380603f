"""The package's public surface."""

import lfmoments


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from lfmoments import *", namespace)  # a stale name raises here
    assert set(lfmoments.__all__) <= namespace.keys()
    assert len(set(lfmoments.__all__)) == len(lfmoments.__all__)
