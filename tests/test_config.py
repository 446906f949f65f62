import re

import pytest

from canids.config import ATTACK_OPTIONS, KEY_SPECS, ConfigError, PipelineConfig
from canids.frames import Label
from canids.synth import EcuSpec


def write_cfg(tmp_path, text):
    path = tmp_path / "pipeline.cfg"
    path.write_text(text)
    return path


def test_defaults():
    cfg = PipelineConfig()
    cfg.validate()
    assert cfg.window_size == 50
    assert cfg.sequence_length == 50
    assert cfg.threshold == 0.5
    assert cfg.entropy_sizes == list(range(10, 401, 10))
    assert cfg.sweep_window_sizes == [50, 75, 100, 125, 150]


def test_from_file_with_comments(tmp_path):
    path = write_cfg(tmp_path, """
# pipeline settings
window_size = 75
sequence_length=30   # inline comment
threshold = 0.4
entropy_sizes = 10,20,30
sweep_window_sizes = 50, 75,,100,
""")
    cfg = PipelineConfig.from_file(path)
    assert cfg.window_size == 75
    assert cfg.sequence_length == 30
    assert cfg.threshold == 0.4
    assert cfg.entropy_sizes == [10, 20, 30]
    assert cfg.sweep_window_sizes == [50, 75, 100]


def test_unknown_key_is_error(tmp_path):
    path = write_cfg(tmp_path, "window_sise = 50\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        PipelineConfig.from_file(path)


def test_bad_value_reports_line(tmp_path):
    path = write_cfg(tmp_path, "window_size = many\n")
    with pytest.raises(ConfigError, match=":1"):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize("text", [
    "window_size = 1\n",
    "threshold = 1.5\n",
    "train_ratio = 0.5\n",  # ratios no longer sum to 1
    "byte_mode = ternary\n",
    "encoder_epochs = 0\n",
    "detector_epochs = 0\n",
    "detector_batch = 0\n",
    "encoder_lr = 0\n",
    "detector_lr = -0.001\n",
    "grad_clip = -1\n",
    "encoder_patience = -1\n",
    "detector_patience = -1\n",
    "encoder_seed = -1\n",
    "detector_seed = -2\n",
    "synth_seed = -1\n",
    "train_ratio = nan\n",
    "entropy_sizes = 20,10\n",
    "entropy_sizes = 0,10\n",
    "entropy_sizes =\n",
    "entropy_sizes = 10 20\n",  # a space inside an entry, not a separator
    "sweep_window_sizes = 50 75\n",
    "sweep_window_sizes = 50,1\n",
    "sweep_sequence_lengths = 0\n",
    "sweep_window_sizes =\n",
    "sweep_sequence_lengths =\n",
])
def test_validation_failures(tmp_path, text):
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(write_cfg(tmp_path, text))


@pytest.mark.parametrize("key", [k for k, (caster, _, bound) in KEY_SPECS.items()
                                 if caster is float and bound])
def test_a_bounded_key_refuses_nan_naming_its_bound(key):
    bound = re.escape(KEY_SPECS[key][2][1])
    with pytest.raises(ConfigError, match=rf"^{key} must be {bound}, got nan$"):
        PipelineConfig.from_file(None, [f"{key}=nan"])


def test_split_ratios_must_sum_to_1():
    with pytest.raises(ConfigError, match=r"^split ratios must sum to 1, got \(0\.5, 0\.2, 0\.2\)$"):
        PipelineConfig.from_file(None, ["train_ratio=0.5"])


def test_overrides_are_read_after_the_file_and_validated_once(tmp_path):
    path = write_cfg(tmp_path, "window_size = 1\nthreshold = 0.4\n")
    cfg = PipelineConfig.from_file(path, ["window_size=60", " window_size = 75 ", "work_dir=a#b"])
    assert (cfg.window_size, cfg.threshold, cfg.work_dir) == (75, 0.4, "a#b")
    with pytest.raises(ConfigError, match="window_size must be >= 2"):
        PipelineConfig.from_file(path, ["window_size=50", "window_size=1"])
    assert PipelineConfig.from_file(None, ["sequence_length=7"]).sequence_length == 7


def test_ecu_and_attack_parsing(tmp_path):
    path = write_cfg(tmp_path, """
ecu1 = 0x100 10 8 counter
ecu2 = 0x200 20 4 const
attack1 = flooding 1.0 0.5 rate=2000 target=0x000
attack2 = replay 3.0 0.5 span=0.0:0.5
attack3 = spoofing 5.0 1.0 rate=100 target=0x200 mutate=1:0x80:0xFF
""")
    cfg = PipelineConfig.from_file(path)
    profile = cfg.traffic_profile()
    assert len(profile.ecu_specs) == 2
    assert profile.ecu_specs == (EcuSpec(0x100, 10.0, 8, "counter"),
                                 EcuSpec(0x200, 20.0, 4, "const"))
    attacks = cfg.attack_specs()
    assert [a.kind for a in attacks] == [Label.FLOODING, Label.REPLAY, Label.SPOOFING]
    assert attacks[0].rate == 2000
    assert attacks[1].replay_span == (0.0, 0.5)
    assert attacks[2].mutation == ((1, 0x80, 0xFF),)


@pytest.mark.parametrize("line", [
    "ecu1 = 0x100 10 8",
    "ecu1 = 0x100 10 8 sine",
    "attack1 = flooding 1.0",
    "attack1 = normal 1.0 0.5",
    "attack1 = flooding 1.0 0.5 power=9",
    "ecu1 = 0x100 ten 8 const",
    "ecu1 = 0x100 10 9 const",
    "ecu1 = 0x100 10 -1 const",
    "ecu1 = 0x20000000 10 8 const",
    "ecu1 = 0x100 0 8 const",
    "attack1 = flooding one 0.5",
    "attack1 = flooding 1.0 0.5 target=0x20000000",
    "attack1 = flooding 1.0 0.5 rate=0",
    "attack1 = spoofing 0.2 0.1 target=0x100 mutate=1:2",
    "attack1 = spoofing 0.2 0.1 target=0x100 mutate=8:0:1",
    "attack1 = spoofing 0.2 0.1 target=0x100 mutate=-1:0:1",
    "attack1 = spoofing 0.2 0.1 target=0x100 mutate=1:0:256",
    "attack1 = spoofing 0.2 0.1 target=0x100 mutate=1:9:8",
    "attack1 = spoofing 0.2 0.1 target=0x100",
    "attack1 = spoofing 0.2 0.1 target=0x100 mutate=1:2:3:4",
    "attack1 = replay 1.0 0.5 span=1",
    "attack1 = replay 1.0 0.5 span=1:2:3",
])
def test_spec_parse_errors(tmp_path, line):
    with pytest.raises(ConfigError, match=r"pipeline\.cfg:1: "):
        PipelineConfig.from_file(write_cfg(tmp_path, line + "\n"))


@pytest.mark.parametrize("option, form", [("mutate=1:2", "mutate needs IDX:LO:HI"),
                                          ("mutate=1:2:3:4", "mutate needs IDX:LO:HI"),
                                          ("mutate=1:9:9,4:5", "mutate needs IDX:LO:HI"),
                                          ("span=1", "span needs FROM:TO"),
                                          ("span=1:2:3", "span needs FROM:TO")])
def test_attack_option_field_count_error(tmp_path, option, form):
    bad = option.split("=")[1]
    with pytest.raises(ConfigError) as e:
        PipelineConfig.from_file(write_cfg(tmp_path, f"attack1 = spoofing 0.2 0.1 {option}\n"))
    assert str(e.value).endswith(f"pipeline.cfg:1: bad value for 'attack1': {form}, got '{bad}'")


@pytest.mark.parametrize("spec, message", [
    ("flooding 1.0 0.5 power=9", "unknown attack option 'power'"),
    ("flooding 1.0 0.5 rate", "bad attack option 'rate'"),
    ("flooding 1.0", "attack spec needs 'kind start duration ...', got 'flooding 1.0'"),
    ("flood 1.0 0.5", "unknown label 'flood'"),
    ("normal 1.0 0.5", "attack kind cannot be Normal"),
    ("normal 1.0 0.5 rate=5 span=1:2", "attack kind cannot be Normal"),
    ("replay 1.0 0.5 span=1:2:3 rate=5", "span needs FROM:TO, got '1:2:3'"),
    ("replay 1 0.2 span=0.1:0.2,0.3:0.4", "span needs FROM:TO, got '0.1:0.2,0.3:0.4'"),
    ("replay 1 0.2 span=0.1,0.2:0.3", "span needs FROM:TO, got '0.1,0.2:0.3'"),
    ("replay 1.0 0.5 rate=5 span=1:2:3", "replay takes no 'rate' option"),
])
def test_attack_spec_messages(spec, message):
    with pytest.raises(ConfigError) as e:
        PipelineConfig().set("attack1", spec)
    assert str(e.value) == f"bad value for 'attack1': {message}"


def test_each_kind_takes_the_options_inject_reads():
    """7 of the 16 (kind, option) pairs parse, to the value given; the other 9 are refused."""
    values = {"rate": "50", "target": "0x100", "span": "0.1:0.3", "mutate": "0:1:2"}
    parsed = {"rate": 50.0, "target_id": 0x100, "replay_span": (0.1, 0.3), "mutation": ((0, 1, 2),)}
    accepted = set()
    for kind in ("flooding", "fuzzing", "replay", "spoofing"):
        for option, (name, _, _) in ATTACK_OPTIONS.items():
            cfg = PipelineConfig()
            needed = " mutate=0:1:2" if kind == "spoofing" else ""
            try:
                cfg.set("attack1", f"{kind} 0.5 0.2{needed} {option}={values[option]}")
            except ConfigError as e:
                assert str(e).endswith(f"{kind} takes no {option!r} option")
            else:
                assert getattr(cfg.attacks[1], name) == parsed[name]
                accepted.add((kind, option))
    assert accepted == {("flooding", "rate"), ("flooding", "target"), ("fuzzing", "rate"),
                        ("replay", "span"), ("spoofing", "rate"), ("spoofing", "target"),
                        ("spoofing", "mutate")}


def test_set_overrides():
    cfg = PipelineConfig()
    cfg.set("window_size", "100")
    assert cfg.window_size == 100
    with pytest.raises(ConfigError):
        cfg.set("nonsense", "1")


def test_validation_boundaries_accepted(tmp_path):
    cfg = PipelineConfig.from_file(write_cfg(
        tmp_path, "grad_clip = 0\nencoder_patience = 0\ndetector_patience = 0\n"
                  "encoder_epochs = 1\ndetector_epochs = 1\ndetector_batch = 1\n"))
    assert cfg.grad_clip == 0.0 and cfg.detector_batch == 1


@pytest.mark.parametrize("text, message", [
    ("", "profile needs at least one ECU spec"),
    ("ecu1 = 0x100 10 8 const\nsynth_jitter = 0.7\n", "jitter must lie in [0, 0.5)"),
    ("ecu1 = 0x100 10 8 const\nsynth_duration = -3\n", "duration must be finite and > 0"),
    ("ecu1 = 0x100 10 8 const\nsynth_duration = nan\n", "duration must be finite and > 0"),
])
def test_traffic_profile_errors_are_config_errors(tmp_path, text, message):
    cfg = PipelineConfig.from_file(write_cfg(tmp_path, text))
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.traffic_profile()
