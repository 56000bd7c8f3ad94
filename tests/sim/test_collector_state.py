"""``Network.run`` leaves the cyclic collector as the caller had it.

The run pauses CPython's cyclic garbage collector
(:func:`repro.sim.collector.collector_paused`); it must restore the
caller's state however it exits: a normal return, an exception raised
by an event callback, or a sanitizer verdict.  A collector the caller
had disabled stays disabled.
"""

from __future__ import annotations

import gc

import pytest

from repro.analysis.verify.sanitizer import Sanitizer, SanitizerError
from repro.sched.fcfs import FCFS
from repro.sim import collector_paused
from tests.analysis.test_sanitizer import _one_node_network, _SwallowingFCFS


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def caller_state(request):
    """Run the test with the collector enabled, then disabled."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_normal_return(caller_state):
    network = _one_node_network(FCFS(), None)
    seen = []
    network.sim.schedule(0.5, lambda: seen.append(gc.isenabled()))
    network.run(1.0)
    assert seen == [False]  # paused during the run
    assert gc.isenabled() is caller_state
    assert network.sink("s").received == 3


def test_callback_raises(caller_state):
    network = _one_node_network(FCFS(), None)

    def fail() -> None:
        raise RuntimeError("callback failed")

    network.sim.schedule(0.5, fail)
    with pytest.raises(RuntimeError, match="callback failed"):
        network.run(1.0)
    assert gc.isenabled() is caller_state


def test_sanitizer_error(caller_state):
    network = _one_node_network(_SwallowingFCFS(), Sanitizer())
    with pytest.raises(SanitizerError):
        network.run(1.0)
    assert gc.isenabled() is caller_state


def test_pauses_nest(caller_state):
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() is caller_state
