import hashlib
from collections import Counter

import numpy as np
import pytest
from scipy import stats

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
        (lambda: AttackSpec(Label.REPLAY, 0.0, 2.0, rate=1e308), "inf"),
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
