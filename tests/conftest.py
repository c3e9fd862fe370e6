"""Shared fixtures for the test suite.

Rule-sets and trained models are expensive to build, so the commonly used ones
are session-scoped.  Sizes are kept small (hundreds to a few thousand rules):
the goal of the tests is functional correctness; the benchmarks exercise the
larger scales.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import native
from repro.core.nuevomatch import NuevoMatch
from repro.rules import generate_classbench, generate_stanford_backbone

from _helpers import THREE_STAGE_CASES, fast_nm_config, three_stage_builds

# CI runners are noisy: hypothesis's default 200 ms per-example deadline turns
# scheduler hiccups into spurious failures (assertions still fail loudly).
settings.register_profile("repro", deadline=None, print_blob=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def acl_small():
    """A small ACL-like rule-set (500 rules)."""
    return generate_classbench("acl1", 500, seed=11)


@pytest.fixture(scope="session")
def acl_medium():
    """A medium ACL-like rule-set (3000 rules)."""
    return generate_classbench("acl2", 3000, seed=7)


@pytest.fixture(scope="session")
def fw_small():
    """A small firewall-like rule-set (500 rules, wildcard-heavy)."""
    return generate_classbench("fw1", 500, seed=5)


@pytest.fixture(scope="session")
def ipc_small():
    """A small IPC-like rule-set (500 rules)."""
    return generate_classbench("ipc1", 500, seed=3)


@pytest.fixture(scope="session")
def forwarding_small():
    """A small Stanford-backbone-like forwarding table (2000 rules)."""
    return generate_stanford_backbone(2000, seed=1)


@pytest.fixture(scope="session")
def nm_acl_medium(acl_medium):
    """NuevoMatch built over the medium ACL rule-set with a TupleMerge remainder."""
    return NuevoMatch.build(
        acl_medium, remainder_classifier="tm", config=fast_nm_config()
    )


@pytest.fixture(scope="session", params=sorted(THREE_STAGE_CASES))
def three_stage(request):
    """``(case, cold, warm)`` for each 3-stage case in ``_helpers``."""
    return (request.param, *three_stage_builds(request.param))


@pytest.fixture(params=["native", "numpy"])
def iset_kernel(request, monkeypatch):
    """Runs a test on both iSet lookup paths: the compiled kernel and the
    numpy body, forced through the loader as on a host with no compiler."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "_library", False)
    elif native.library() is None:
        pytest.skip("the native iSet kernel cannot be built on this host")
    assert native.kernel_name() == request.param
    return request.param


@pytest.fixture
def needs_native():
    """Skips a test of the compiled kernel where it cannot be built."""
    if native.library() is None:
        pytest.skip("the native iSet kernel cannot be built on this host")
