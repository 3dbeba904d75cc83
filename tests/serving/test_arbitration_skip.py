"""Property test: reusing an unchanged allocation is invisible.

The serving pump asks its policy through two :class:`ArbitrationSite` call
sites (advisory placement slices and dispatch budgets), which return the
previous allocation when the inputs and the policy's ``served_version`` are
unchanged.  Against random sequences of problems drawn from a small pool, so
that repeats are common, every policy must give through the sites exactly
what a twin policy called directly gives, and end every step with the same
service state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.arbitration import (
    ArbitrationSite,
    EdfArbitration,
    FairShareArbitration,
    FifoArbitration,
    StrictPriorityArbitration,
    TenantShare,
)

ENDPOINTS = ("ep0", "ep1", "ep2")
WORKFLOWS = ("wf0", "wf1", "wf2", "wf3")

POLICIES = {
    "fifo": FifoArbitration,
    "priority": StrictPriorityArbitration,
    "edf": EdfArbitration,
    "fair_share": lambda: FairShareArbitration(vectorized=False),
    "fair_share_vectorized": lambda: FairShareArbitration(vectorized=True),
}


@st.composite
def problems(draw):
    count = draw(st.integers(min_value=1, max_value=len(WORKFLOWS)))
    tenants = [
        TenantShare(
            workflow_id=wid,
            weight=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
            priority=draw(st.integers(min_value=0, max_value=2)),
            arrival_index=index,
            deadline=draw(st.sampled_from([10.0, 20.0, float("inf")])),
        )
        for index, wid in enumerate(WORKFLOWS[:count])
    ]
    free = {ep: draw(st.integers(min_value=0, max_value=6)) for ep in ENDPOINTS}
    demands = {
        t.workflow_id: {
            ep: n
            for ep in ENDPOINTS
            if (n := draw(st.integers(min_value=0, max_value=5)))
        }
        for t in tenants
    }
    return free, demands, tenants


#: A pool of problems and a walk over it: (pool index, dispatch site?) steps.
sequences = st.tuples(
    st.lists(problems(), min_size=1, max_size=3),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), st.booleans()),
        min_size=1,
        max_size=30,
    ),
)


def granted(allocation) -> int:
    return sum(sum(slice_.values()) for slice_ in allocation.values())


def replay(kind, pool, steps):
    reference = POLICIES[kind]()
    policy = POLICIES[kind]()
    placement = ArbitrationSite(policy, record_service=False)
    dispatch = ArbitrationSite(policy)
    for index, is_dispatch in steps:
        free, demands, tenants = pool[index % len(pool)]
        site = dispatch if is_dispatch else placement
        skips = site.skips
        allocation = site.allocate(free, demands, tenants)
        expected = reference.allocate(
            free, demands, tenants, record_service=is_dispatch
        )
        assert allocation == expected
        assert getattr(policy, "_served", None) == getattr(reference, "_served", None)
        if is_dispatch and site.skips > skips and hasattr(policy, "_served"):
            # Reusing a budget that granted recorded service would skip a
            # deficit update.
            assert granted(allocation) == 0
    return placement, dispatch


@settings(max_examples=150, deadline=None)
@given(sequences, st.sampled_from(sorted(POLICIES)))
def test_site_reuse_matches_direct_calls(sequence, kind):
    pool, steps = sequence
    placement, dispatch = replay(kind, pool, steps)
    assert placement.calls + placement.skips + dispatch.calls + dispatch.skips == len(steps)


def test_repeats_are_skipped():
    free = {"ep0": 2, "ep1": 0}
    demands = {"wf0": {"ep1": 3}, "wf1": {"ep1": 1}}
    tenants = [TenantShare("wf0", arrival_index=0), TenantShare("wf1", arrival_index=1)]
    policy = FairShareArbitration(vectorized=True)
    site = ArbitrationSite(policy)
    for _ in range(4):
        assert site.allocate(free, demands, tenants) == {"wf0": {}, "wf1": {}}
    assert (site.calls, site.skips) == (1, 3)
    # A grant moves the service state, so the next identical question is
    # asked again.
    free = {"ep0": 2, "ep1": 2}
    site.allocate(free, demands, tenants)
    site.allocate(free, demands, tenants)
    assert (site.calls, site.skips) == (3, 3)


def test_stateless_policies_report_version_zero():
    for policy in (FifoArbitration(), StrictPriorityArbitration(), EdfArbitration()):
        policy.allocate({"ep0": 3}, {"wf0": {"ep0": 2}}, [TenantShare("wf0")])
        assert policy.served_version == 0
