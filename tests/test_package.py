"""Package surface: the star import and every exported name."""

import redcrawl


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from redcrawl import *", namespace)
    for name in redcrawl.__all__:
        assert name in namespace, name
