"""The package's export list: every name it promises must resolve."""

import uws


def test_every_exported_name_resolves():
    missing = [name for name in uws.__all__ if not hasattr(uws, name)]
    assert missing == []
    assert len(set(uws.__all__)) == len(uws.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from uws import *", namespace)
    assert set(uws.__all__) <= set(namespace)


def test_the_batched_davis_kahan_study_is_exported():
    assert "davis_kahan_study" in uws.__all__
