"""Shared test set-up."""

import pytest

from sdcprobe.fault_model import sites_from_codes, site_codes
from sdcprobe.injector import PrefixCache


@pytest.fixture
def stacked_sites(monkeypatch):
    """Every site that enters a stacked evaluation, in order: the sites a
    test's campaigns and latency runs evaluate, counted once each."""
    sites = []
    evaluate_stack = PrefixCache.evaluate_stack

    def counting(cache, model, stack):
        sites.extend(sites_from_codes(site_codes(stack)))
        return evaluate_stack(cache, model, stack)

    monkeypatch.setattr(PrefixCache, "evaluate_stack", counting)
    return sites


@pytest.fixture(autouse=True)
def empty_shared_prefix_cache():
    """Every test starts with an empty shared cache, so evaluation counts do
    not depend on which test ran before."""
    PrefixCache.clear_shared()
    yield
