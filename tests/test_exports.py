"""Every name the package exports resolves, so a stale `__all__` entry
fails here rather than at a user's import."""
import culsim


def test_every_exported_name_resolves():
    missing = [name for name in culsim.__all__ if not hasattr(culsim, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace = {}
    exec("from culsim import *", namespace)
    assert set(culsim.__all__) <= set(namespace)
