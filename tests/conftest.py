"""Shared test set-up."""

import pytest

from sdcprobe.injector import PrefixCache


@pytest.fixture(autouse=True)
def empty_shared_prefix_cache():
    """Every test starts with an empty shared cache, so evaluation counts do
    not depend on which test ran before."""
    PrefixCache.clear_shared()
    yield
