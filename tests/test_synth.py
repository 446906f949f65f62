import hashlib
import time
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from canids import synth
from canids.frames import LABELS, FrameTable, Label
from canids.ingest import write_log
from canids.synth import MAX_FRAMES, MODELS, AttackSpec, EcuSpec, TrafficProfile, generate_normal, inject

from conftest import rows_of

COLUMNS = ("timestamp", "arbitration_id", "dlc", "payload", "label")


def profile(ecus, duration=1.0, jitter=0.0, seed=7):
    return TrafficProfile(ecu_specs=tuple(ecus), duration=duration, jitter=jitter, seed=seed)


def of_kind(table, kind):
    return table[table.label == LABELS.index(kind)]


def same_columns(a: FrameTable, b: FrameTable) -> bool:
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS)


def simple_ecu(arb=0x100, period_ms=10.0, dlc=8):
    return EcuSpec(arb, period_ms, dlc, "const")


class TestGenerateNormal:
    def test_single_ecu_deterministic_schedule(self):
        frames = generate_normal(profile([simple_ecu()]))
        assert len(frames) == 100
        assert frames.timestamp.tolist() == pytest.approx([i * 0.01 for i in range(100)])
        assert not frames.label.any()

    def test_two_ecus_merged_sorted(self):
        frames = generate_normal(profile([simple_ecu(0x100, 10), simple_ecu(0x200, 20)]))
        assert len(frames) == 150
        assert np.all(np.diff(frames.timestamp) >= 0)

    def test_seed_determinism(self):
        p = profile([EcuSpec(0x1, 5, 8, "walk")], jitter=0.2)
        assert same_columns(generate_normal(p), generate_normal(p))

    def test_counter_and_walk_models(self):
        """Each model's bytes: a counter in byte 0 of counter and mixed, a walk in byte 0
        of walk and byte 1 of mixed, and (id + 37 i + 1) % 256 in every other byte i."""
        # no jitter, so an ECU's substream holds only its walk steps
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(0,)))
        walk, value = [], 127
        for _ in range(500):
            value = max(0, min(255, value + int(rng.integers(-5, 6))))
            walk.append(value)
        for model in MODELS:
            payload = generate_normal(profile([EcuSpec(0x1A3, 2, 5, model)])).payload
            expected = {i: [(0x1A3 + 37 * i + 1) % 256] * 500 for i in range(5)}
            if model in ("counter", "mixed"):
                expected[0] = [k % 256 for k in range(500)]  # wraps after 255
            if model in ("walk", "mixed"):
                expected[int(model == "mixed")] = walk
            assert {i: payload[:, i].tolist() for i in range(5)} == expected, model
            assert not payload[:, 5:].any()

    def test_invalid_profiles(self):
        """A profile checks itself when built, before any frame is generated."""
        with pytest.raises(ValueError, match="at least one ECU"):
            profile([])
        for jitter in (0.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="jitter must lie in"):
                profile([simple_ecu()], jitter=jitter)
        for duration in (0.0, -3.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="duration must be finite and > 0"):
                profile([simple_ecu()], duration=duration)


@pytest.fixture(scope="module")
def base_log():
    return generate_normal(profile([simple_ecu(0x100, 2), simple_ecu(0x200, 5)], duration=2.0))


class TestInject:
    def test_flooding_count_and_id(self, base_log):
        spec = AttackSpec(Label.FLOODING, start=0.5, duration=0.1, rate=1000, target_id=0x000)
        out = inject(base_log, spec)
        flood = of_kind(out, Label.FLOODING)
        assert len(flood) == 100
        assert not flood.arbitration_id.any() and not flood.payload.any()
        assert np.all(flood.dlc == 8)

    def test_replay_copies_payloads(self, base_log):
        src = base_log[(0.0 <= base_log.timestamp) & (base_log.timestamp < 0.1)]
        spec = AttackSpec(Label.REPLAY, start=1.0, duration=0.1, replay_span=(0.0, 0.1))
        out = inject(base_log, spec)
        rep = of_kind(out, Label.REPLAY)
        assert len(rep) == len(src)
        assert np.array_equal(rep.payload, src.payload)
        assert np.array_equal(rep.arbitration_id, src.arbitration_id)
        # inter-arrival gaps preserved
        assert np.diff(rep.timestamp) == pytest.approx(np.diff(src.timestamp))

    def test_replay_reads_no_rate(self, base_log):
        """Replay copies its span whatever its rate, which no frame count bounds, its
        target id or its mutations, none of which it reads."""
        src = base_log[(0.0 <= base_log.timestamp) & (base_log.timestamp < 0.1)]
        want = FrameTable(1.0 + (src.timestamp - src.timestamp[0]), src.arbitration_id, src.dlc,
                          src.payload, np.full(len(src), LABELS.index(Label.REPLAY), np.int8))
        for extra in ({"rate": 1e8}, {"rate": 1e308}, {"target_id": 1 << 29},
                      {"target_id": -1, "mutation": ((9, 0, 1), (0, 9, 8))}):
            spec = AttackSpec(Label.REPLAY, start=1.0, duration=0.5, replay_span=(0.0, 0.1), **extra)
            assert same_columns(of_kind(inject(base_log, spec), Label.REPLAY), want)

    def test_fuzzing_reads_no_target_id_or_mutation(self, base_log):
        """Fuzzing draws its ids, so out-of-range target ids and mutations, which it
        does not read, construct and inject the same frames."""
        want = inject(base_log, AttackSpec(Label.FUZZING, start=0.2, duration=0.5, rate=100), seed=3)
        for extra in ({"target_id": 1 << 29}, {"target_id": -1, "mutation": ((9, 0, 1), (0, 9, 8))}):
            spec = AttackSpec(Label.FUZZING, start=0.2, duration=0.5, rate=100, **extra)
            assert same_columns(inject(base_log, spec, seed=3), want)

    def test_fuzzing_deterministic_and_uniform_ids(self, base_log):
        spec = AttackSpec(Label.FUZZING, start=0.2, duration=1.0, rate=2000)
        out1 = inject(base_log, spec, seed=3)
        out2 = inject(base_log, spec, seed=3)
        assert same_columns(out1, out2)
        ids = of_kind(out1, Label.FUZZING).arbitration_id
        assert len(ids) == 2000
        # bin 11-bit IDs into 16 buckets; uniformity should not be rejected
        hist = np.bincount(ids >> 7, minlength=16)
        assert stats.chisquare(hist).pvalue > 0.01

    def test_spoofing_mutates_target(self, base_log):
        spec = AttackSpec(Label.SPOOFING, start=0.5, duration=0.5, rate=100,
                          target_id=0x100, mutation=((2, 200, 255),))
        out = inject(base_log, spec, seed=1)
        spoof = of_kind(out, Label.SPOOFING)
        assert len(spoof) == 50
        assert np.all(spoof.arbitration_id == 0x100)
        assert np.all(spoof.payload[:, 2] >= 200)
        # non-mutated bytes copy the victim's genuine payload
        assert np.all(spoof.payload[:, 0] == (0x100 + 1) % 256)

    def test_originals_preserved_and_sorted(self, base_log):
        spec = AttackSpec(Label.FUZZING, start=0.2, duration=0.5, rate=500)
        out = inject(base_log, spec, seed=9)
        assert Counter(rows_of(of_kind(out, Label.NORMAL))) == Counter(rows_of(base_log))
        assert np.all(np.diff(out.timestamp) >= 0)

    def test_flooding_raises_rate_inside_interval(self, base_log):
        spec = AttackSpec(Label.FLOODING, start=0.5, duration=0.5, rate=800)
        out = inject(base_log, spec)
        inside = np.count_nonzero((0.5 <= out.timestamp) & (out.timestamp < 1.0))
        base_inside = np.count_nonzero((0.5 <= base_log.timestamp) & (base_log.timestamp < 1.0))
        assert inside - base_inside == 400

    def test_errors(self, base_log):
        with pytest.raises(ValueError, match="no frames"):
            inject(base_log, AttackSpec(Label.REPLAY, start=1.0, duration=0.1,
                                        replay_span=(0.95, 0.95)))
        with pytest.raises(ValueError, match="outside"):
            inject(base_log, AttackSpec(Label.FLOODING, start=5.0, duration=1.0, rate=100))
        with pytest.raises(ValueError):
            inject(base_log[:0], AttackSpec(Label.FLOODING, start=0, duration=1, rate=10))
        with pytest.raises(ValueError, match="not sorted"):
            inject(base_log[::-1], AttackSpec(Label.FLOODING, start=0.5, duration=0.1))

    @pytest.mark.parametrize("spec", [
        AttackSpec(Label.FLOODING, start=0.0, duration=0.5, rate=1000),  # ties at every 10 ms
        AttackSpec(Label.FUZZING, start=0.2, duration=1.0, rate=2000),
        AttackSpec(Label.REPLAY, start=1.0, duration=0.1, replay_span=(0.0, 0.4)),
        AttackSpec(Label.SPOOFING, start=0.0, duration=1.9, rate=200, target_id=0x100,
                   mutation=((2, 200, 255),)),
        AttackSpec(Label.FLOODING, start=1.0, duration=0.0),  # injects nothing
    ])
    def test_merge_matches_stable_sort(self, base_log, spec):
        """The merge equals one stable sort of (log, injected frames) by timestamp,
        the order originals-before-injected on a tie."""
        out = inject(base_log, spec, seed=4)
        injected = of_kind(out, spec.kind)
        joined = FrameTable.concat([base_log, injected])
        assert same_columns(out, joined[np.argsort(joined.timestamp, kind="stable")])


@pytest.mark.parametrize("make", [
    lambda: EcuSpec(0x100, 10, 9, "const"),
    lambda: EcuSpec(0x100, 10, -1, "const"),
    lambda: EcuSpec(-1, 10, 8, "const"),
    lambda: EcuSpec(1 << 29, 10, 8, "const"),
    lambda: EcuSpec(0x100, float("nan"), 8, "const"),
    lambda: EcuSpec(0x100, 10, 8, "sine"),
    lambda: TrafficProfile((), 1.0),
    lambda: TrafficProfile((simple_ecu(),), 1.0, jitter=0.5),
    lambda: TrafficProfile((simple_ecu(),), 1.0, jitter=-0.1),
    lambda: TrafficProfile((simple_ecu(),), 0.0),
    lambda: TrafficProfile((simple_ecu(),), float("nan")),
    lambda: AttackSpec(Label.NORMAL, 0.0, 1.0),
    lambda: AttackSpec(Label.FLOODING, 0.0, -1.0),
    lambda: AttackSpec(Label.FLOODING, float("nan"), 1.0),
    lambda: AttackSpec(Label.FLOODING, 0.0, float("inf")),
    lambda: AttackSpec(Label.FLOODING, 0.0, 1.0, rate=float("inf")),
    lambda: AttackSpec(Label.FUZZING, 0.0, 1.0, rate=0),
    lambda: AttackSpec(Label.FLOODING, 0.0, 1.0, target_id=1 << 29),
    lambda: AttackSpec(Label.SPOOFING, 0.0, 1.0, target_id=-1, mutation=((0, 0, 1),)),
    lambda: AttackSpec(Label.SPOOFING, 0.0, 1.0),
    lambda: AttackSpec(Label.SPOOFING, 0.0, 1.0, mutation=((8, 0, 1),)),
    lambda: AttackSpec(Label.SPOOFING, 0.0, 1.0, mutation=((-1, 0, 1),)),
    lambda: AttackSpec(Label.SPOOFING, 0.0, 1.0, mutation=((0, 0, 256),)),
    lambda: AttackSpec(Label.SPOOFING, 0.0, 1.0, mutation=((0, -1, 5),)),
    lambda: AttackSpec(Label.SPOOFING, 0.0, 1.0, mutation=((0, 9, 8),)),
    lambda: EcuSpec(0x100, float("inf"), 8, "const"),
])
def test_out_of_range_specs_rejected_before_generation(make):
    """Each value would otherwise wrap silently in a uint8 column, index past a payload,
    or give an empty log or jittered frames out of their ECU's order."""
    with pytest.raises(ValueError):
        make()


def test_frame_count_bound():
    """A profile may ask for MAX_FRAMES frames over all its ECUs, and an attack for
    MAX_FRAMES at its rate; one more frame, or an infinite count, is refused."""
    seconds = MAX_FRAMES / 1000
    TrafficProfile((simple_ecu(period_ms=1.0), simple_ecu(0x200, 1.0)), seconds / 2)
    AttackSpec(Label.FLOODING, 0.0, 1.0, rate=MAX_FRAMES)
    for make, count in [
        (lambda: TrafficProfile((simple_ecu(period_ms=1.0), simple_ecu(0x200, 1.0)),
                                (seconds + 0.001) / 2), r"1e\+07"),
        (lambda: TrafficProfile((simple_ecu(period_ms=1.0),), 1e308), "inf"),
        (lambda: AttackSpec(Label.FUZZING, 0.0, 1.0, rate=MAX_FRAMES + 1), r"1e\+07"),
        (lambda: AttackSpec(Label.FLOODING, 0.0, 2.0, rate=1e308), "inf"),
    ]:
        with pytest.raises(ValueError, match=rf"asks for {count} frames, more than MAX_FRAMES = {MAX_FRAMES}$"):
            make()


def test_spoofing_copies_last_victim_payload_and_extends_dlc():
    ecu = EcuSpec(0x100, 10, 2, "counter")  # byte 1 is (0x100 + 37 + 1) % 256 = 38
    log = generate_normal(profile([ecu]))
    spec = AttackSpec(Label.SPOOFING, start=0.1, duration=0.1, rate=100, target_id=0x100,
                      mutation=((5, 1, 1),))
    spoof = of_kind(inject(log, spec), Label.SPOOFING)
    assert spoof.timestamp[0] == log.timestamp[10]  # a victim frame at the same time counts
    last = [max(k for k in range(len(log)) if log.timestamp[k] <= t) for t in spoof.timestamp]
    assert spoof.payload[:, 0].tolist() == last
    assert np.all(spoof.dlc == 6)
    assert np.all(spoof.payload[:, 1:] == [38, 0, 0, 0, 1, 0, 0])


# A profile with const, counter (334 frames, so it wraps), walk, mixed and zero-dlc
# ECUs under jitter, and every attack kind. Flooding starts at 0.0, where the jitter
# clamps several ECUs' first frames, so original and injected timestamps tie there.
GOLDEN_ECUS = (
    EcuSpec(0x100, 10, 8, "const"),
    EcuSpec(0x180, 3, 4, "counter"),
    EcuSpec(0x200, 13, 6, "walk"),
    EcuSpec(0x2A0, 5, 8, "mixed"),
    EcuSpec(0x050, 25, 0, "const"),
)
GOLDEN_ATTACKS = (
    AttackSpec(Label.FLOODING, start=0.0, duration=0.05, rate=1000),
    AttackSpec(Label.FUZZING, start=0.2, duration=0.1, rate=300),
    AttackSpec(Label.REPLAY, start=0.5, duration=0.1, replay_span=(0.1, 0.2)),
    AttackSpec(Label.SPOOFING, start=0.7, duration=0.2, rate=100, target_id=0x200,
               mutation=((1, 0, 9), (7, 200, 255))),
)
GOLDEN_SHA256 = "7fce3cde9ea97725525804c700c5c73a11b84e270707edc9ef8b9370d5d6222a"


def test_golden_log(tmp_path):
    """The generator's output, pinned: a change in RNG draw order, merge order or
    formatting changes the digest."""
    log = generate_normal(profile(GOLDEN_ECUS, jitter=0.2, seed=5))
    for i, spec in enumerate(GOLDEN_ATTACKS):
        log = inject(log, spec, seed=i + 1)
    at_zero = log.label[log.timestamp == 0.0].tolist()
    assert at_zero == [0, 0, 0, LABELS.index(Label.FLOODING)]  # originals first on a tie
    path = tmp_path / "golden.csv"
    write_log(log, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256


# The same draws without jitter, which makes each walk a pure stream of 32-bit
# half-words: a walk ECU with dlc 1 and 143 frames (odd, so a half stays buffered),
# a mixed ECU, a fuzzing attack of 201 frames (odd), and a spoofing attack whose
# 5:7:7 mutation draws nothing beside a 0:0:255 one.
GOLDEN_ECUS_NO_JITTER = (
    EcuSpec(0x210, 7, 1, "walk"),
    EcuSpec(0x2B0, 4, 3, "mixed"),
    EcuSpec(0x120, 9, 8, "counter"),
)
GOLDEN_ATTACKS_NO_JITTER = (
    AttackSpec(Label.FUZZING, start=0.1, duration=0.2, rate=1005),
    AttackSpec(Label.SPOOFING, start=0.4, duration=0.3, rate=150, target_id=0x210,
               mutation=((5, 7, 7), (0, 0, 255))),
)
GOLDEN_NO_JITTER_SHA256 = "91526852c0397f0e32b476175a24853bbdc779cc627ecf2dcc1e0e78341970c8"


def test_golden_log_without_jitter(tmp_path):
    log = generate_normal(profile(GOLDEN_ECUS_NO_JITTER, jitter=0.0, seed=11))
    assert [np.count_nonzero(log.arbitration_id == e.arbitration_id)
            for e in GOLDEN_ECUS_NO_JITTER] == [143, 250, 112]
    for i, spec in enumerate(GOLDEN_ATTACKS_NO_JITTER):
        log = inject(log, spec, seed=i + 1)
    assert np.bincount(log.label).tolist() == [505, 0, 201, 0, 45]
    path = tmp_path / "golden.csv"
    write_log(log, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_NO_JITTER_SHA256


# The oracle: synthesis's draws written frame by frame, one numpy scalar call
# per value.

def scalar_walk(rng, n, jitter):
    u, walk, value = np.zeros(n), np.empty(n, np.uint8), 127
    for i in range(n):
        if jitter > 0:
            u[i] = rng.uniform(-jitter, jitter)
        value = walk[i] = max(0, min(255, value + int(rng.integers(-5, 6))))
    return u, walk


def scalar_fuzzing(rng, count):
    arb, dlc = np.empty(count, np.int64), np.empty(count, np.uint8)
    payload = np.zeros((count, 8), np.uint8)
    for i in range(count):
        arb[i] = rng.integers(0, synth.STANDARD_ID_SPACE)
        dlc[i] = n = rng.integers(0, 9)
        payload[i, :n] = rng.integers(0, 256, size=n)
    return arb, dlc, payload


def scalar_spoofing(rng, payload, mutation):
    for row in payload:
        for index, lo, hi in mutation:
            row[index] = rng.integers(lo, hi + 1)


def old_ecu_frames(spec, prof, idx):
    """`synth._ecu_frames` with the walk drawn frame by frame."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=prof.seed, spawn_key=(idx,)))
    period = spec.period_ms / 1000.0
    k = np.arange(int(prof.duration / period) + 2)
    k = k[: np.searchsorted(k * period, prof.duration)]
    n, dlc = len(k), spec.dlc
    payload = np.zeros((n, 8), np.uint8)
    payload[:, :dlc] = (spec.arbitration_id + 37 * np.arange(dlc) + 1) % 256
    if spec.model in ("counter", "mixed") and dlc:
        payload[:, 0] = k & 0xFF
    walk = {"walk": 0, "mixed": 1}.get(spec.model, dlc)
    if walk >= dlc:
        u = rng.uniform(-prof.jitter, prof.jitter, size=n) if prof.jitter > 0 else None
    else:
        u, payload[:, walk] = scalar_walk(rng, n, prof.jitter)
    ts = k * period
    if prof.jitter > 0:
        ts = np.maximum(ts + u * period, 0.0)
    return FrameTable(ts, np.full(n, spec.arbitration_id, np.int64),
                      np.full(n, dlc, np.uint8), payload, np.zeros(n, np.int8))


def twins(seed, buffered):
    """Two generators in one state: fresh, or with the high half of a word buffered."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    for rng in pair:
        if buffered:
            rng.integers(0, 2**32)
    assert pair[0].bit_generator.state["has_uint32"] == buffered
    return pair


def same_generator(a, b):
    """Equal states, and equal draws after them. numpy leaves a stale `uinteger`
    once it has used it, so that is compared only while it is buffered."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    assert sa["state"] == sb["state"] and sa["has_uint32"] == sb["has_uint32"]
    if sa["has_uint32"]:
        assert sa["uinteger"] == sb["uinteger"]
    follow = [(rng.integers(-5, 6, size=3), rng.uniform(-1, 1), rng.integers(0, 9)) for rng in (a, b)]
    return all(np.array_equal(x, y) for x, y in zip(*follow))


def equal_arrays(got, want):
    return all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


SEEDS = range(30)
SMALL_CHUNK = 7  # splits the array draws into blocks of a few frames


@pytest.fixture(params=["whole", "blocks"])
def chunk(request, monkeypatch):
    if request.param == "blocks":
        monkeypatch.setattr(synth, "CHUNK", SMALL_CHUNK)


@pytest.mark.parametrize("jitter", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("model", ["walk", "mixed"])
def test_ecu_frames_match_the_scalar_walk(model, jitter, chunk):
    """Every column of a walk or mixed ECU, dlc 1 to 8, odd and even frame counts."""
    parities = set()
    for seed in SEEDS:
        spec = EcuSpec(0x123, (7, 9, 10, 11)[seed % 4], 1 + seed % 8, model)
        prof = profile([simple_ecu(), spec], jitter=jitter, seed=seed)
        got, want = synth._ecu_frames(spec, prof, 1), old_ecu_frames(spec, prof, 1)
        parities.add(len(want) % 2)
        assert equal_arrays([getattr(got, c) for c in COLUMNS], [getattr(want, c) for c in COLUMNS])
    assert parities == {0, 1}


@pytest.mark.parametrize("jitter", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 600])
@pytest.mark.parametrize("buffered", [0, 1])
def test_walk_draws_match_the_scalar_loop(n, jitter, buffered, chunk):
    for seed in SEEDS:
        a, b = twins(seed, buffered)
        assert equal_arrays(synth._walk(a, n, jitter), scalar_walk(b, n, jitter))
        assert same_generator(a, b)


@pytest.mark.parametrize("count", [0, 1, 2, 7, 600, 5000])
@pytest.mark.parametrize("buffered", [0, 1])
def test_fuzzing_draws_match_the_scalar_loop(count, buffered, chunk):
    for seed in SEEDS if count <= 600 else SEEDS[:3]:
        a, b = twins(seed, buffered)
        assert equal_arrays(synth._fuzzing(a, count), scalar_fuzzing(b, count))
        assert same_generator(a, b)


MUTATIONS = [
    ((5, 7, 7), (0, 0, 255)),            # zero width beside the full byte
    ((2, 200, 255),),
    ((1, 0, 9), (7, 200, 255)),
    ((3, 4, 4),),                        # draws nothing at all
    ((0, 0, 2), (0, 100, 100), (0, 10, 12)),  # one byte three times: the last draw stays
    ((4, 0, 254), (6, 1, 3), (2, 0, 255), (1, 17, 17), (7, 0, 100)),
]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("rows", [0, 1, 2, 7, 600])
@pytest.mark.parametrize("buffered", [0, 1])
def test_spoofing_draws_match_the_scalar_loop(mutation, rows, buffered, chunk):
    for seed in SEEDS:
        a, b = twins(seed, buffered)
        got = np.random.default_rng(seed + 100).integers(0, 256, size=(rows, 8), dtype=np.uint8)
        want = got.copy()
        synth._spoofing(a, got, mutation)
        scalar_spoofing(b, want, mutation)
        assert equal_arrays([got], [want])
        assert same_generator(a, b)


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def zero_word_ahead(seed, ahead, buffered=0):
    """A generator whose word number `ahead` (from 0) is 0: an LCG state with equal
    halves outputs 0 under XSL-RR, stepped back ahead + 1 steps with the
    generator's own increment."""
    rng = twins(seed, buffered)[0]
    state = rng.bit_generator.state
    value, inc = (0x0123456789ABCDEF << 64) | 0x0123456789ABCDEF, state["state"]["inc"]
    for _ in range(ahead + 1):
        value = (value - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    state["state"]["state"] = value
    rng.bit_generator.state = state
    return rng


def test_a_zero_word_forces_lemire_rejections():
    """The word 0 gives two zero halves, which every range whose size does not
    divide 2**32 rejects: integers(-5, 6) rejects both, then reads the next word."""
    words = zero_word_ahead(3, 0).bit_generator.random_raw(2).tolist()
    assert words[0] == 0 and zero_word_ahead(3, 2).bit_generator.random_raw(3)[2] == 0
    rng = zero_word_ahead(3, 0)
    assert rng.integers(-5, 6) == -5 + ((words[1] & 0xFFFFFFFF) * 11 >> 32)
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1 and state["uinteger"] == words[1] >> 32
    moved = zero_word_ahead(3, 0)
    moved.bit_generator.random_raw(2)
    assert state["state"] == moved.bit_generator.state["state"]


@pytest.mark.parametrize("ahead", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("buffered", [0, 1])
def test_rejected_draws_match_the_scalar_loop(ahead, buffered, chunk):
    """From a state whose word `ahead` is 0, the walk (either jitter), fuzzing and
    spoofing draws give the scalar loop's values and leave its state."""
    for seed in range(4):
        for jitter in (0.0, 0.2):
            a, b = zero_word_ahead(seed, ahead, buffered), zero_word_ahead(seed, ahead, buffered)
            assert equal_arrays(synth._walk(a, 9, jitter), scalar_walk(b, 9, jitter))
            assert same_generator(a, b)
        for count in (1, 2, 9):
            a, b = zero_word_ahead(seed, ahead, buffered), zero_word_ahead(seed, ahead, buffered)
            assert equal_arrays(synth._fuzzing(a, count), scalar_fuzzing(b, count))
            assert same_generator(a, b)
        a, b = zero_word_ahead(seed, ahead, buffered), zero_word_ahead(seed, ahead, buffered)
        got, want = np.zeros((5, 8), np.uint8), np.zeros((5, 8), np.uint8)
        synth._spoofing(a, got, ((1, 0, 9), (5, 7, 7), (2, 3, 8)))
        scalar_spoofing(b, want, ((1, 0, 9), (5, 7, 7), (2, 3, 8)))
        assert equal_arrays([got], [want])
        assert same_generator(a, b)


def test_a_large_fuzzing_attack_is_drawn_fast_and_in_blocks():
    """10**6 fuzzing frames took 0.65 s on a 2-CPU Xeon (AVX-512), where the
    scalar loop took about 16 s; the bound is 5 s. The draws come CHUNK frames at a
    time, so the tracemalloc peak of a 50,000-frame attack, 3.80 times the output
    table's bytes there, is the merge's: the bound is 4 times."""
    log = generate_normal(profile([simple_ecu()], duration=2.0))
    start = time.perf_counter()
    out = inject(log, AttackSpec(Label.FUZZING, start=0.5, duration=1.0, rate=10**6), seed=1)
    assert time.perf_counter() - start < 5.0
    assert np.count_nonzero(out.label == LABELS.index(Label.FUZZING)) == 10**6
    spec = AttackSpec(Label.FUZZING, start=0.5, duration=1.0, rate=50_000)
    tracemalloc.start()
    try:
        out = inject(log, spec, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * sum(getattr(out, f.name).nbytes for f in fields(out))
