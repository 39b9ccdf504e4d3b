"""Tests for proactive index diffusion (Algorithms 1-2, Theorem 1)."""

import numpy as np
import pytest

from repro.core.diffusion import (
    DiffusionEngine,
    binary_hop_decomposition,
    diffusion_message_count,
    line_diffusion_rounds,
)
from tests.core.helpers import Harness


# ----------------------------------------------------------------------
# closed-form analysis
# ----------------------------------------------------------------------
def test_message_count_paper_example():
    # §III-B: "if L = 2 and d = 3, the total number of messages is only 14"
    assert diffusion_message_count(2, 3) == 14


@pytest.mark.parametrize(
    "L,d", [(1, 1), (1, 5), (2, 1), (2, 5), (3, 3), (4, 2)]
)
def test_message_count_matches_sum(L, d):
    assert diffusion_message_count(L, d) == sum(L**j for j in range(1, d + 1))


def test_message_count_validation():
    with pytest.raises(ValueError):
        diffusion_message_count(0, 3)


def test_binary_hop_decomposition_paper_example():
    # Theorem 1's proof: (13)₁₀ = (1101)₂ → 13 = 2³ + 2² + 2⁰, h = 3.
    assert binary_hop_decomposition(13) == [8, 4, 1]


@pytest.mark.parametrize("distance", [1, 2, 3, 7, 16, 100, 255, 1024])
def test_binary_hop_decomposition_properties(distance):
    powers = binary_hop_decomposition(distance)
    assert sum(powers) == distance
    assert len(powers) <= int(np.floor(np.log2(distance))) + 1  # Theorem 1
    assert all(p & (p - 1) == 0 for p in powers)  # each term a power of 2


def test_line_diffusion_rounds_theorem1():
    # Fig. 2: r = 19 nodes on a line → every node reached within
    # ⌈log2 r⌉ hops of relay.
    rounds = line_diffusion_rounds(19)
    assert len(rounds) == 19
    assert max(rounds) <= int(np.ceil(np.log2(19)))
    assert rounds[0] == 0  # the origin itself
    assert rounds[1] == 1  # direct 2^0 link
    assert rounds[13] == 3  # 13 = 8+4+1


@pytest.mark.parametrize("r", [1, 2, 5, 16, 100, 1000])
def test_line_diffusion_log_bound(r):
    assert max(line_diffusion_rounds(r)) <= max(1, int(np.ceil(np.log2(max(r, 2)))))


# ----------------------------------------------------------------------
# live engine on an overlay
# ----------------------------------------------------------------------
def make_engine(h: Harness, L=2):
    return DiffusionEngine(h.ctx, h.tables, h.pilists, h.overlay.dims, L)


@pytest.mark.parametrize("method", ["hid", "sid"])
def test_diffusion_respects_message_budget(method):
    h = Harness(n=64, dims=2, seed=1)
    engine = make_engine(h, L=2)
    omega = diffusion_message_count(2, 2)
    for origin in h.overlay.node_ids()[:20]:
        result = engine.diffuse(origin, method)
        assert result.messages <= omega


@pytest.mark.parametrize("method", ["hid", "sid"])
def test_recipients_get_pilist_entries(method):
    h = Harness(n=64, dims=2, seed=2)
    engine = make_engine(h)
    # pick an interior origin so backward chains exist
    origin = next(
        n.node_id
        for n in h.overlay.nodes.values()
        if np.all(n.zone.lo > 0.2)
    )
    result = engine.diffuse(origin, method)
    assert result.messages > 0
    landed = [i for i, p in h.pilists.items() if origin in p]
    assert landed
    assert set(landed) <= result.recipients


@pytest.mark.parametrize("method", ["hid", "sid"])
def test_recipients_are_negative_direction_nodes(method):
    from repro.can.zone import is_negative_direction_of

    h = Harness(n=64, dims=2, seed=3)
    engine = make_engine(h)
    origin = next(
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.4)
    )
    result = engine.diffuse(origin, method)
    origin_zone = h.overlay.nodes[origin].zone
    for r in result.recipients:
        if r == origin:
            continue
        assert is_negative_direction_of(h.overlay.nodes[r].zone, origin_zone)


def test_hid_spreads_wider_than_sid():
    """Fig. 3's claim: hopping diffusion covers more distinct nodes than
    spreading, because relays re-select from their own tables."""
    h = Harness(n=256, dims=2, seed=4)
    engine = make_engine(h)
    rng = np.random.default_rng(5)
    interior = [
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.5)
    ]
    hid_cover, sid_cover = set(), set()
    for origin in interior:
        for _ in range(10):
            hid_cover |= engine.diffuse(origin, "hid").recipients
            sid_cover |= engine.diffuse(origin, "sid").recipients
    assert len(hid_cover) > len(sid_cover)


def test_hid_relay_depth_is_logarithmic():
    h = Harness(n=256, dims=2, seed=6)
    engine = make_engine(h)
    max_depth = 0
    for origin in h.overlay.node_ids():
        result = engine.diffuse(origin, "hid")
        max_depth = max(max_depth, result.max_depth)
    # depth ≤ d·L with the TTL discipline (L=2, d=2 → 4)
    assert max_depth <= 2 * 2


def test_dead_ninodes_skipped():
    h = Harness(n=32, dims=2, seed=7)
    engine = make_engine(h)
    origin = next(
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.4)
    )
    # kill everything except the origin: no recipients, no crash
    for other in h.overlay.node_ids():
        if other != origin:
            h.kill(other)
    result = engine.diffuse(origin, "hid")
    assert result.messages == 0
    assert result.recipients <= {origin}


def test_unknown_method_rejected():
    h = Harness(n=8, dims=2, seed=8)
    engine = make_engine(h)
    with pytest.raises(ValueError):
        engine.diffuse(0, "flooding")


def test_traffic_charged_per_message():
    h = Harness(n=64, dims=2, seed=9)
    engine = make_engine(h)
    origin = next(
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.4)
    )
    result = engine.diffuse(origin, "hid")
    assert h.traffic.by_kind["index-diffusion"] == result.messages


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("chain_len", [2, 3, 5, 17, 40])
def test_pick_ninodes_is_stream_compatible_with_reference(seed, chain_len):
    """Single NINode picks take one ``rng.integers`` draw instead of
    ``rng.choice(n, size=1, replace=False)``: both the scalar-filter and
    the vectorized pool branch must pick what the scalar reference picks
    and leave the generator exactly where it leaves it."""
    from repro.can.inscan import IndexPointerTable
    from repro.testing import ReferenceDiffusionEngine

    node, dead = 0, 3
    table = IndexPointerTable(node)
    table.links[(0, -1)] = list(range(1, chain_len + 2))
    picks = {}
    for cls in (DiffusionEngine, ReferenceDiffusionEngine):
        h = Harness(n=8, dims=2, seed=seed)
        h.kill(dead)
        engine = cls(h.ctx, {node: table}, h.pilists, h.overlay.dims, 2)
        got = [engine._pick_ninodes(node, 0, k, exclude=1) for k in (1, 1, 2, 1)]
        picks[cls] = (got, h.ctx.rng.random())
    assert picks[DiffusionEngine] == picks[ReferenceDiffusionEngine]
    assert all(dead not in p and 1 not in p for p in picks[DiffusionEngine][0])
