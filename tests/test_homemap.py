"""Unit tests for the pluggable directory home map.

The L1s and ``System`` route each block address through the home map,
and a point's results must not depend on the process that ran it
(sweep worker, in-process sweep, or a result-store reader), so the map
has to be process-stable (no salted hashing), well balanced (no home
becomes a hot spot by construction), and remap-stable (growing the
ring moves only the minimum share of addresses).
"""

import pickle

from repro.coherence.homemap import (
    ConsistentHashHomeMap,
    IdentityHomeMap,
    build_home_map,
)

BLOCK = 64


def _blocks(count, stride=BLOCK, base=0x1_0000):
    return [base + i * stride for i in range(count)]


def test_identity_map_homes_everything_to_first_node():
    hm = IdentityHomeMap(first_node=8)
    for addr in _blocks(100):
        assert hm.home_index(addr) == 0
        assert hm.node_id(addr) == 8
    assert hm.n_homes == 1


def test_build_home_map_dispatches_on_home_count():
    assert isinstance(build_home_map(1, 4), IdentityHomeMap)
    hm = build_home_map(4, 16)
    assert isinstance(hm, ConsistentHashHomeMap)
    assert hm.n_homes == 4
    assert hm.first_node == 16


def test_consistent_hash_node_ids_are_contiguous_after_cores():
    hm = ConsistentHashHomeMap(n_homes=4, first_node=64)
    seen = set()
    for addr in _blocks(4096):
        index = hm.home_index(addr)
        assert 0 <= index < 4
        assert hm.node_id(addr) == 64 + index
        seen.add(index)
    assert seen == {0, 1, 2, 3}


def test_consistent_hash_is_deterministic_across_instances():
    """Two independently built rings (as in two sweep worker processes)
    must place every block identically."""
    a = ConsistentHashHomeMap(n_homes=8, first_node=0)
    b = ConsistentHashHomeMap(n_homes=8, first_node=0)
    for addr in _blocks(2048, stride=BLOCK * 3):
        assert a.home_index(addr) == b.home_index(addr)


def test_consistent_hash_survives_pickling():
    hm = ConsistentHashHomeMap(n_homes=4, first_node=16)
    clone = pickle.loads(pickle.dumps(hm))
    for addr in _blocks(512):
        assert clone.home_index(addr) == hm.home_index(addr)


def test_distribution_balance():
    """Every home receives close to its fair share of the block space.

    With 64 vnodes per home the tests tolerate +/-40% of fair share --
    loose enough to be stable, tight enough to catch a broken ring
    (where one home would swallow nearly everything).
    """
    for n_homes in (2, 4, 8):
        hm = ConsistentHashHomeMap(n_homes=n_homes, first_node=0)
        counts = [0] * n_homes
        total = 8192
        for addr in _blocks(total):
            counts[hm.home_index(addr)] += 1
        fair = total / n_homes
        for home, count in enumerate(counts):
            assert 0.6 * fair <= count <= 1.4 * fair, (
                f"home {home} of {n_homes} got {count}/{total}")


def test_remap_stability():
    """Growing H -> H+1 moves only about 1/(H+1) of the addresses.

    A modulo map would move ~H/(H+1) of them; the consistent-hash ring
    must stay near the theoretical minimum.  We allow up to 2.5x the
    ideal fraction to keep the test robust to vnode placement noise.
    """
    addrs = _blocks(8192)
    for n_homes in (2, 4, 8):
        before = ConsistentHashHomeMap(n_homes=n_homes, first_node=0)
        after = ConsistentHashHomeMap(n_homes=n_homes + 1, first_node=0)
        moved = sum(1 for addr in addrs
                    if before.home_index(addr) != after.home_index(addr))
        ideal = len(addrs) / (n_homes + 1)
        assert moved <= 2.5 * ideal, (
            f"{moved} of {len(addrs)} moved going {n_homes}->{n_homes + 1}; "
            f"ideal ~{ideal:.0f}")
        # And it must actually move *something*: a ring that never
        # rebalances is just a broken hash.
        assert moved > 0


def test_remapped_addresses_only_move_to_the_new_home():
    """Consistent hashing's defining property: when a home joins, the
    only allowed transition is old-home -> new-home."""
    before = ConsistentHashHomeMap(n_homes=4, first_node=0)
    after = ConsistentHashHomeMap(n_homes=5, first_node=0)
    for addr in _blocks(4096):
        old, new = before.home_index(addr), after.home_index(addr)
        if old != new:
            assert new == 4, f"addr {addr:#x} moved {old}->{new}, not to 4"


def test_memoized_node_id_matches_the_ring_on_every_call():
    """``node_id`` memoizes per block; the memo must return the ring's
    answer on the first lookup and on every repeat."""
    hm = ConsistentHashHomeMap(n_homes=8, first_node=32)
    addrs = _blocks(3000, stride=BLOCK * 5)
    for _ in range(3):
        for addr in addrs:
            assert hm.node_id(addr) == 32 + hm.home_index(addr)


def test_memo_is_per_map():
    """Maps with different ``first_node`` keep separate memos: their
    node ids stay disjoint whichever map saw a block first."""
    low = ConsistentHashHomeMap(n_homes=4, first_node=8)
    high = ConsistentHashHomeMap(n_homes=4, first_node=16)
    addrs = _blocks(3000)
    for addr in addrs[::2]:
        low.node_id(addr)
    for addr in addrs:
        assert high.node_id(addr) != low.node_id(addr)
        assert high.node_id(addr) - low.node_id(addr) == 8
