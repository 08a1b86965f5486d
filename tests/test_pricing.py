"""Utilization-dependent pricing: multiplier shape, caps, snapshots."""
import pytest
from hypothesis import given, settings, strategies as st

from slicebed.model import ResidualState, load_request, load_scenario
from slicebed.pricing import (
    KLEINROCK,
    PriceSnapshot,
    PricingPolicy,
    congestion_multiplier,
    link_price,
    node_price,
)
from slicebed.embed_nl import solve_nl


@pytest.fixture(scope="module")
def demo():
    return load_scenario("scenarios/demo_3op.json")


def test_multiplier_known_points():
    assert congestion_multiplier(0.0, 10.0, 100.0) == 1.0
    assert congestion_multiplier(5.0, 10.0, 100.0) == pytest.approx(2.0)
    assert congestion_multiplier(7.5, 10.0, 100.0) == pytest.approx(4.0)
    # at and beyond full utilization the cap takes over
    assert congestion_multiplier(10.0, 10.0, 100.0) == 100.0
    assert congestion_multiplier(12.0, 10.0, 100.0) == 100.0


def test_multiplier_cap_binds_before_saturation():
    # with M=4 the raw 1/(1-u) exceeds M from u = 0.75 onwards
    assert congestion_multiplier(0.74, 1.0, 4.0) == pytest.approx(1 / 0.26)
    assert congestion_multiplier(0.75, 1.0, 4.0) == 4.0
    assert congestion_multiplier(0.9, 1.0, 4.0) == 4.0


def test_multiplier_continuous_at_cap_threshold():
    m = 100.0
    u_star = 1.0 - 1.0 / m
    below = congestion_multiplier(u_star - 1e-9, 1.0, m)
    at = congestion_multiplier(u_star, 1.0, m)
    assert at == m
    assert abs(below - m) < 1e-4


def test_multiplier_zero_capacity_is_neutral():
    assert congestion_multiplier(0.0, 0.0, 100.0) == 1.0


@settings(max_examples=120, deadline=None)
@given(u1=st.floats(0, 1), u2=st.floats(0, 1),
       cap=st.floats(1.0, 1000.0, exclude_min=True))
def test_multiplier_monotone_and_bounded(u1, u2, cap):
    lo, hi = sorted((u1, u2))
    a = congestion_multiplier(lo, 1.0, cap)
    b = congestion_multiplier(hi, 1.0, cap)
    assert 1.0 <= a <= cap and 1.0 <= b <= cap
    assert a <= b + 1e-12


def test_policy_validation():
    with pytest.raises(ValueError):
        PricingPolicy(mode="surge")
    with pytest.raises(ValueError):
        PricingPolicy(mode=KLEINROCK, cap=1.0)
    with pytest.raises(ValueError):
        PricingPolicy(apply_to="everything")
    p = PricingPolicy.from_config({"mode": "kleinrock", "cap": 10})
    assert p.mode == KLEINROCK and p.cap == 10.0


def test_static_mode_ignores_load(demo):
    state = ResidualState(demo.net)
    policy = PricingPolicy()
    before = {e: link_price(policy, demo.net, e, state) for e in demo.net.links}
    # push load onto every link directly through the ledger internals
    for e in demo.net.links:
        state.used_bw[e] = demo.net.links[e].capacity * 0.9
    after = {e: link_price(policy, demo.net, e, state) for e in demo.net.links}
    assert before == after
    assert all(before[e] == demo.net.links[e].unit_price for e in before)


def test_dynamic_mode_scales_with_load(demo):
    state = ResidualState(demo.net)
    policy = PricingPolicy(mode=KLEINROCK, cap=100.0)
    eid = next(iter(demo.net.links))
    base = link_price(policy, demo.net, eid, state)
    state.used_bw[eid] = demo.net.links[eid].capacity / 2
    assert link_price(policy, demo.net, eid, state) == pytest.approx(2 * base)

    vid = demo.net.function_nodes[0]
    nbase = node_price(policy, demo.net, vid, 0, state)
    state.used_node[(vid, 0)] = demo.net.nodes[vid].capacity[0] / 2
    assert node_price(policy, demo.net, vid, 0, state) == pytest.approx(2 * nbase)


def test_apply_to_restricts_scope(demo):
    state = ResidualState(demo.net)
    eid = next(iter(demo.net.links))
    vid = demo.net.function_nodes[0]
    state.used_bw[eid] = demo.net.links[eid].capacity / 2
    state.used_node[(vid, 0)] = demo.net.nodes[vid].capacity[0] / 2

    links_only = PricingPolicy(mode=KLEINROCK, apply_to="links")
    assert link_price(links_only, demo.net, eid, state) == \
        pytest.approx(2 * demo.net.links[eid].unit_price)
    assert node_price(links_only, demo.net, vid, 0, state) == \
        demo.net.nodes[vid].unit_price[0]

    nodes_only = PricingPolicy(mode=KLEINROCK, apply_to="nodes")
    assert link_price(nodes_only, demo.net, eid, state) == \
        demo.net.links[eid].unit_price
    assert node_price(nodes_only, demo.net, vid, 0, state) == \
        pytest.approx(2 * demo.net.nodes[vid].unit_price[0])


def test_snapshot_is_frozen_against_later_mutation(demo):
    state = ResidualState(demo.net)
    policy = PricingPolicy(mode=KLEINROCK)
    snap = PriceSnapshot(policy, demo.net, state)
    eid = next(iter(demo.net.links))
    before = snap.link[eid]
    state.used_bw[eid] = demo.net.links[eid].capacity * 0.99
    assert snap.link[eid] == before
    fresh = PriceSnapshot(policy, demo.net, state)
    assert fresh.link[eid] > before


def test_snapshot_covers_function_nodes_only(demo):
    state = ResidualState(demo.net)
    snap = PriceSnapshot(PricingPolicy(), demo.net, state)
    nodes_seen = {v for v, _ in snap.node}
    assert nodes_seen == set(demo.net.function_nodes)
    assert set(snap.link) == set(demo.net.links)


def test_placement_cost(demo):
    state = ResidualState(demo.net)
    snap = PriceSnapshot(PricingPolicy(), demo.net, state)
    vid = demo.net.function_nodes[0]
    demand = (2.0, 1.0)
    expected = (demo.net.nodes[vid].unit_price[0] * 2.0
                + demo.net.nodes[vid].unit_price[1] * 1.0)
    assert snap.placement_cost(demo.net, vid, demand) == pytest.approx(expected)


def test_pricing_rescales_cost_but_not_feasibility(demo):
    """With all prices doubled the same embedding stays optimal at 2x cost."""
    req = load_request("scenarios/demo_request.json", demo)
    state = ResidualState(demo.net)
    snap1 = PriceSnapshot(PricingPolicy(), demo.net, state)
    emb1 = solve_nl(demo.net, demo.trust, state, req, snap1)

    doubled = PriceSnapshot(PricingPolicy(), demo.net, state)
    doubled.link = {e: 2 * p for e, p in doubled.link.items()}
    doubled.node = {k: 2 * p for k, p in doubled.node.items()}
    emb2 = solve_nl(demo.net, demo.trust, state, req, doubled)
    assert emb2.total_cost == pytest.approx(2 * emb1.total_cost)
