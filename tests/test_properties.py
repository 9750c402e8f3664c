"""Property-based tests (hypothesis) on core data structures & invariants."""

from hypothesis import given, settings, strategies as st

from repro.coherence.cache import CacheArray, CacheState
from repro.cpu.storebuffer import StoreBuffer
from repro.isa import Assembler
from repro.isa.interpreter import ReferenceInterpreter
from repro.isa import semantics
from repro.sim.config import CacheConfig, ConsistencyModel, SpeculationMode
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram
from repro.system import run_system
from repro.workloads import randmix
from tests.conftest import small_config

# ------------------------------------------------------------------ engine

@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50))
def test_engine_dispatches_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule_fast(d, lambda d=d: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


# ----------------------------------------------------------------- numbers

@given(st.integers(min_value=-2**70, max_value=2**70))
def test_word_signed_roundtrip(value):
    word = semantics.to_word(value)
    assert 0 <= word < 2 ** 64
    assert semantics.to_word(semantics.to_signed(word)) == word


# --------------------------------------------------------------- histogram

@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=200),
       st.booleans())
def test_histogram_count_sum_mean(samples, log2):
    hist = Histogram("h", log2=log2)
    for s in samples:
        hist.add(s)
    assert hist.count == len(samples)
    assert hist.total == sum(samples)
    assert hist.mean == sum(samples) / len(samples)
    assert sum(c for _, c in hist.items()) == len(samples)


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=100))
def test_histogram_percentile_monotone(samples):
    hist = Histogram("h", log2=True)
    for s in samples:
        hist.add(s)
    p50, p90, p100 = (hist.percentile(f) for f in (0.5, 0.9, 1.0))
    assert p50 <= p90 <= p100


# ------------------------------------------------------------- store buffer

_sb_ops = st.lists(
    st.tuples(st.sampled_from(["enq", "pop", "squash", "commit"]),
              st.integers(min_value=0, max_value=7),   # addr index
              st.booleans()),                          # speculative
    max_size=60,
)


@given(_sb_ops)
def test_store_buffer_fifo_and_spec_suffix(ops):
    """Under any op sequence keeping spec entries a suffix, the buffer
    preserves FIFO order and never exceeds capacity."""
    sb = StoreBuffer(4)
    shadow = []
    seq = 0
    for op, idx, spec in ops:
        if op == "enq":
            # Keep the spec-suffix discipline the core guarantees.
            if shadow and shadow[-1][2] and not spec:
                continue
            ok = sb.enqueue(0x100 + 8 * idx, seq, spec, now=seq)
            if ok:
                shadow.append((0x100 + 8 * idx, seq, spec))
            assert ok == (len(shadow) <= 4 and shadow and shadow[-1][1] == seq)
            seq += 1
        elif op == "pop" and not sb.empty:
            head = sb.head()
            sb.pop_head(head)
            expect = shadow.pop(0)
            assert (head.addr, head.value) == expect[:2]
        elif op == "squash":
            squashed = sb.squash_speculative()
            expected = 0
            while shadow and shadow[-1][2]:
                shadow.pop()
                expected += 1
            assert squashed == expected
        elif op == "commit":
            sb.commit_speculative()
            shadow = [(a, v, False) for a, v, _ in shadow]
        assert len(sb) == len(shadow) <= 4
    # forwarding returns the youngest matching value
    for addr in {a for a, _, _ in shadow}:
        youngest = [v for a, v, _ in shadow if a == addr][-1]
        assert sb.forward_value(addr) == youngest


# -------------------------------------------------------------------- LRU

@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=100))
def test_cache_lru_never_overflows_and_evicts_lru(accesses):
    config = CacheConfig(size_bytes=512, assoc=2, block_bytes=64)  # 4 sets
    array = CacheArray(config)
    recency = {}
    clock = 0
    for idx in accesses:
        addr = idx * 64
        clock += 1
        if array.lookup(addr) is None:
            victim = array.victim_for(addr)
            if victim is not None:
                # Victim must be the least recently used in its set.
                same_set = [a for a in recency
                            if config.set_index(a) == config.set_index(addr)]
                assert victim.addr == min(same_set, key=recency.get)
                array.remove(victim.addr)
                del recency[victim.addr]
            array.insert(addr, CacheState.SHARED, [0] * 8)
        recency[addr] = clock
        occupancies = {}
        for block in array:
            s = config.set_index(block.addr)
            occupancies[s] = occupancies.get(s, 0) + 1
        assert all(v <= config.assoc for v in occupancies.values())


# --------------------------------------------------------------------- mesh

@given(st.integers(min_value=2, max_value=20),
       st.data())
def test_mesh_routes_are_minimal_and_deterministic(n_nodes, data):
    from repro.interconnect.mesh import Mesh
    mesh = Mesh(Simulator(), n_nodes, __import__("repro.sim.stats",
                fromlist=["StatsRegistry"]).StatsRegistry())
    src = data.draw(st.integers(0, n_nodes - 1))
    dst = data.draw(st.integers(0, n_nodes - 1))
    path = mesh.route(src, dst)
    (x0, y0), (x1, y1) = mesh.coordinates(src), mesh.coordinates(dst)
    manhattan = abs(x1 - x0) + abs(y1 - y0)
    assert len(path) == manhattan + 1        # minimal
    assert path == mesh.route(src, dst)      # deterministic
    assert path[0] == (x0, y0) and path[-1] == (x1, y1)
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        assert abs(ax - bx) + abs(ay - by) == 1  # unit hops


@given(st.integers(min_value=1, max_value=20), st.data())
def test_mesh_links_chain_along_the_route(n_nodes, data):
    """A link id is 4 * tile index + direction (east, west, south,
    north): each link leaves the tile the previous one enters, the
    chain walks ``route()`` from src to dst, and the ids depend only on
    the grid, so two meshes of one size agree."""
    from repro.interconnect.mesh import Mesh
    from repro.sim.stats import StatsRegistry
    mesh = Mesh(Simulator(), n_nodes, StatsRegistry())
    src = data.draw(st.integers(0, n_nodes - 1))
    dst = data.draw(st.integers(0, n_nodes - 1))
    links = mesh.links(src, dst)
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    tile = mesh.coordinates(src)
    walked = [tile]
    for link in links:
        index, direction = divmod(link, 4)
        assert (index % mesh.width, index // mesh.width) == tile
        tile = (tile[0] + steps[direction][0], tile[1] + steps[direction][1])
        assert mesh.link_target(link) == tile
        walked.append(tile)
    assert walked == mesh.route(src, dst)
    assert links == Mesh(Simulator(), n_nodes, StatsRegistry()).links(src, dst)


# ------------------------------------------- timing sim vs reference model

@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31), st.integers(2, 3),
       st.sampled_from(list(ConsistencyModel)),
       st.sampled_from(list(SpeculationMode)))
def test_private_random_mix_matches_reference(seed, n_threads, model, spec):
    """With zero shared data, the timing simulator's final memory and
    registers must equal the functional golden model's, under every
    consistency model and speculation mode."""
    workload = randmix.random_mix(
        n_threads, n_instructions=60, seed=seed,
        private_words=16, shared_words=0,
        pct_load=0.35, pct_store=0.35, pct_atomic=0.05, pct_fence=0.05,
    )
    config = (small_config(n_threads).with_consistency(model)
              .with_speculation(spec))
    result = run_system(config, workload.programs, check_invariants=True)

    ref = ReferenceInterpreter(workload.programs)
    ref.run()
    for tid in range(n_threads):
        for reg in (2, 3):  # value + checksum registers
            assert result.core_reg(tid, reg) == ref.threads[tid].read_reg(reg)
    for addr in ref.memory:
        assert result.read_word(addr) == ref.memory[addr]


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=2**31))
def test_shared_atomic_counters_always_sum(seed):
    """Atomic increments never get lost under contention + speculation."""
    import random
    rng = random.Random(seed)
    n_threads = rng.choice([2, 3, 4])
    increments = rng.randint(3, 12)
    asms = []
    for tid in range(n_threads):
        asm = Assembler(f"t{tid}")
        asm.li(1, 0x1000).li(2, 1)
        for _ in range(increments):
            asm.fetch_add(3, base=1, addend=2)
            asm.exec_(rng.randint(1, 6))
        asms.append(asm.build())
    spec = rng.choice(list(SpeculationMode))
    config = small_config(n_threads).with_speculation(spec)
    result = run_system(config, asms, check_invariants=True)
    assert result.read_word(0x1000) == n_threads * increments


@settings(deadline=None, max_examples=8)
@given(st.integers(min_value=0, max_value=2**31))
def test_shared_random_mix_runs_and_preserves_swmr(seed):
    """Racy mixes may be nondeterministic in values, but must always
    terminate, keep coherence invariants, and have atomic counters
    consistent across engines' possible outcomes."""
    workload = randmix.random_mix(
        3, n_instructions=80, seed=seed, private_words=8, shared_words=4,
        pct_load=0.3, pct_store=0.3, pct_atomic=0.1, pct_fence=0.1,
    )
    for spec in (SpeculationMode.NONE, SpeculationMode.ON_DEMAND):
        config = small_config(3).with_speculation(spec)
        run_system(config, workload.programs, check_invariants=True)


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=2**31),
       st.sampled_from(list(ConsistencyModel)),
       st.sampled_from(list(SpeculationMode)))
def test_recorded_executions_satisfy_consistency_axioms(seed, model, spec):
    """Every recorded racy execution -- any model, any speculation mode --
    satisfies read provenance, per-location coherence, and RMW
    atomicity (the repro.verification axioms)."""
    from repro.system import System
    from repro.verification import ExecutionRecorder, check_execution

    workload = randmix.random_mix(
        3, n_instructions=70, seed=seed, private_words=8, shared_words=4,
        pct_load=0.3, pct_store=0.3, pct_atomic=0.1, pct_fence=0.08,
    )
    config = small_config(3).with_consistency(model).with_speculation(spec)
    system = System(config, workload.programs)
    recorder = ExecutionRecorder.attach(system)
    system.run(check_invariants=True)
    report = check_execution(recorder)
    assert report["accesses_recorded"] > 0
