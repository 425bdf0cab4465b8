"""A stateful test of the query service: hypothesis drives one service
through submits, held and released slots, cancels, slot deaths, backend
failures, failed backend rebuilds, a scripted clock and close, and
checks the service's books after every step.  The service runs under a
memory budget that makes its GROUP-BY spill, into a spill root of its
own, so every check also sees what the spill scopes left behind.

Every wait is bounded, so a request stranded in flight fails the test
instead of hanging it.
"""

import json
import os
import shutil
import tempfile
import threading

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.data.catalog import InMemorySource
from repro.errors import AdmissionError, BackendError
from repro.hyracks.backends import SequentialBackend
from repro.observability.clock import CLOCKS
from repro.service import QueryService, TenantQuota
from repro.service import service as service_module

from tests.service.conftest import (
    COUNT_QUERY,
    FILTER_QUERY,
    GROUP_QUERY,
    close_within,
    make_rows,
)

CLOCK = "stateful-scripted"
WAIT = 5.0  # seconds any one ticket may take once nothing holds a slot
FAULTS = 4  # slot deaths, backend failures and failed builds per run
BUDGET = 512  # bytes per query: the GROUP-BY spills, the rest fit

QUERIES = {
    "count": COUNT_QUERY,
    "filter": FILTER_QUERY,
    "group": GROUP_QUERY,  # spills under BUDGET
    "broken": "count(((",  # fails to parse
}


def terminates(ticket) -> bool:
    """Whether *ticket* ends, in any outcome, within ``WAIT`` seconds."""
    try:
        ticket.result(WAIT)
    except Exception:
        pass
    return ticket.done()


class ValveSource(InMemorySource):
    """An in-memory source whose scans wait while the valve is shut,
    so a step can hold a query running on its slot."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.valve = threading.Event()
        self.valve.set()

    def _units(self, name, partition):
        assert self.valve.wait(60.0), "the valve was never opened"
        return super()._units(name, partition)


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.backend_failures = 0  # run_units calls left to fail
        self.failed_builds = 0  # resolve_backend calls left to fail
        # Faults injected so far, capped so that most runs keep a slot.
        self.faults = 0
        CLOCKS[CLOCK] = lambda: lambda: self.now
        machine = self

        class FlakyBackend(SequentialBackend):
            def run_units(self, units, events):
                if machine.backend_failures:
                    machine.backend_failures -= 1
                    raise BackendError("injected backend failure")
                return super().run_units(units, events)

        def resolve(name=None, max_workers=None):
            if machine.failed_builds:
                machine.failed_builds -= 1
                raise RuntimeError("injected backend build failure")
            return FlakyBackend(max_workers=max_workers)

        self.real_resolve = service_module.resolve_backend
        service_module.resolve_backend = resolve
        # One backend-level failure wears a slot's backend out.
        self.real_threshold = service_module.BACKEND_FAILURE_THRESHOLD
        service_module.BACKEND_FAILURE_THRESHOLD = 1
        self.spill_root = tempfile.mkdtemp(prefix="repro-stateful-spill-")
        self.source = ValveSource(
            collections={
                "/s": [[json.dumps({"root": [{"results": make_rows(20)}]})]]
            }
        )
        self.service = QueryService(
            self.source,
            backend="sequential",
            max_concurrent_queries=2,
            max_queue_depth=4,
            default_quota=TenantQuota(max_concurrent=1, max_queued=2),
            max_query_retries=1,
            max_slot_restarts=2,
            clock=CLOCK,
            memory_budget_bytes=BUDGET,
            spill_dir=self.spill_root,
        )
        self.tickets = []
        self.group_tickets = []
        self.submitted = 0  # submissions tried, admitted or not
        self.closed = False

    def teardown(self):
        self.source.valve.set()
        try:
            if not self.closed:
                self.close_service()
        finally:
            service_module.resolve_backend = self.real_resolve
            service_module.BACKEND_FAILURE_THRESHOLD = self.real_threshold
            CLOCKS.pop(CLOCK, None)
            shutil.rmtree(self.spill_root, ignore_errors=True)

    # -- rules ----------------------------------------------------------------

    @precondition(lambda self: not self.closed)
    @rule(
        batch=st.lists(
            st.tuples(
                st.sampled_from(sorted(QUERIES)),
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from([None, 5.0, 60.0]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def submit(self, batch):
        self.submitted += len(batch)
        for query, tenant, deadline in batch:
            try:
                ticket = self.service.submit(
                    QUERIES[query], tenant=tenant, deadline_seconds=deadline
                )
            except AdmissionError:
                continue
            self.tickets.append(ticket)
            if query == "group":
                self.group_tickets.append(ticket)

    @precondition(lambda self: not self.closed)
    @rule()
    def hold(self):
        self.source.valve.clear()

    @rule()
    def release(self):
        self.source.valve.set()

    @rule(pick=st.integers(min_value=0, max_value=7))
    def cancel(self, pick):
        # Which submissions were admitted depends on thread timing, so
        # the draw must not: pick among the latest tickets by position.
        if self.tickets:
            self.tickets[-1 - pick % len(self.tickets)].cancel("by the test")

    @precondition(lambda self: not self.closed and self.faults < FAULTS)
    @rule(slot=st.sampled_from([0, 1]))
    def kill_slot(self, slot):
        self.faults += 1
        self.service.inject_slot_failure(slot)

    @precondition(lambda self: not self.closed and self.faults < FAULTS)
    @rule()
    def fail_backend(self):
        self.faults += 1
        self.backend_failures += 1

    @precondition(lambda self: not self.closed and self.faults < FAULTS)
    @rule()
    def fail_backend_build(self):
        self.faults += 1
        self.failed_builds += 1

    @rule(seconds=st.sampled_from([1.0, 4.0, 11.0]))
    def advance_clock(self, seconds):
        self.now += seconds

    # Not before a few submissions: nothing is submitted after it.
    @precondition(lambda self: not self.closed and self.submitted >= 4)
    @rule()
    def close(self):
        self.close_service()

    def close_service(self):
        self.source.valve.set()
        assert close_within(self.service, 3 * WAIT), "close() hung"
        self.closed = True
        try:
            self.service.submit(COUNT_QUERY)
        except AdmissionError as error:
            assert error.reason == "closed"
        else:
            raise AssertionError("a closed service admitted a query")
        stranded = [
            ticket.request_id
            for ticket in self.tickets
            if not terminates(ticket)
        ]
        assert not stranded, f"tickets never terminated: {stranded}"
        self.check_spill_scopes()
        assert not os.path.exists(self.service._flag_dir)
        alive = [
            slot.index
            for slot in self.service._slots
            if slot.thread is not None and slot.thread.is_alive()
        ]
        assert not alive, f"slot threads still alive: {alive}"

    # -- invariants -----------------------------------------------------------

    @invariant()
    def every_admitted_request_is_accounted_for(self):
        stats = self.service.stats()
        assert stats["submitted"] == (
            stats["completed"]
            + stats["cancelled"]
            + stats["failed"]
            + stats["queued"]
            + stats["running"]
        )
        assert stats["submitted"] == len(self.tickets)

    @invariant()
    def quiescent_books_balance(self):
        if self.closed or not self.source.valve.is_set():
            return
        # Nothing holds a slot: every ticket must end within WAIT.
        stranded = [
            ticket.request_id
            for ticket in self.tickets
            if not terminates(ticket)
        ]
        assert not stranded, f"tickets never terminated: {stranded}"
        stats = self.service.stats()
        assert (stats["queued"], stats["running"]) == (0, 0)
        self.check_spill_scopes()

    def check_spill_scopes(self):
        """Nothing in flight: no query's spill scope is left, and every
        GROUP-BY that answered spilled on the way."""
        left = [
            name
            for name in os.listdir(self.spill_root)
            if name.startswith("repro-spill-q")
        ]
        assert not left, f"spill scopes left behind: {left}"
        for ticket in self.group_tickets:
            try:
                response = ticket.result(0)
            except Exception:
                continue
            assert response.items == [3, 3, 3, 3, 3, 3, 2]
            assert response.stats.spill_events > 0


ServiceMachine.TestCase.settings = settings(
    derandomize=True,
    max_examples=200,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceMachine = ServiceMachine.TestCase
