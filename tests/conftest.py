"""Shared model and design fixtures.

The designed trajectories are session-scoped because the quadrature
design diagonalizes along a 2001-point grid; the ring designs in
particular are the expensive ones and are reused by the protocol,
many-body, and acceptance tests.
"""

import os
import tracemalloc

import pytest

from faquad import model, protocol


@pytest.fixture(scope="session")
def two_level_spec():
    return model.two_level(U=22.3, delta_start=66.7, delta_end=0.0)


@pytest.fixture(scope="session")
def two_level_faquad(two_level_spec):
    return protocol.design_faquad(two_level_spec)


@pytest.fixture(scope="session")
def two_level_la(two_level_spec):
    return protocol.design_local_adiabatic(two_level_spec)


@pytest.fixture(scope="session")
def splitting_spec():
    return model.bose_hubbard3(U=33.45, delta_start=100.0, delta_end=0.0)


@pytest.fixture(scope="session")
def splitting_faquad(splitting_spec):
    return protocol.design_faquad(splitting_spec)


@pytest.fixture(scope="session")
def cotunneling_spec():
    return model.bose_hubbard3(U=22.3, delta_start=66.7, delta_end=-66.7)


@pytest.fixture(scope="session")
def cotunneling_faquad(cotunneling_spec):
    return protocol.design_faquad(cotunneling_spec)


@pytest.fixture(scope="session")
def ring_spec():
    return model.ring(u0=0.5, K=40)


@pytest.fixture(scope="session")
def ring_faquad_n3(ring_spec):
    return protocol.design_faquad(ring_spec, pair=(3, 4))


@pytest.fixture(scope="session")
def ring_faquad_n9(ring_spec):
    return protocol.design_faquad(ring_spec, pair=(9, 10))


@pytest.fixture
def two_cores(monkeypatch):
    """A process allowed two cores, so that work on the main thread that may
    go to helper threads (a ring stream of several chunks, the tree products
    of a few-level duration sweep) takes them on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def traced_peak(fn):
    """(fn(), peak): ``peak`` is the high-water mark in bytes of the memory
    that tracemalloc traces during the call, above what it traced when the
    call began. Tracing starts here if it is off and stops after."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak
