"""Flat key=value pipeline configuration with typo-safe parsing."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .frames import Label
from .synth import AttackSpec, ByteSpec, EcuSpec, TrafficProfile


class ConfigError(ValueError):
    pass


def _parse_int_list(s: str):
    return [int(v) for v in s.replace(" ", "").split(",") if v]


# key -> (caster, default)
KEY_SPECS = {
    "input_log": (str, ""),
    "work_dir": (str, "work"),
    "window_size": (int, 50),
    "sequence_length": (int, 50),
    "byte_mode": (str, "binarized"),
    "train_ratio": (float, 0.6),
    "val_ratio": (float, 0.2),
    "test_ratio": (float, 0.2),
    "threshold": (float, 0.5),
    "grad_clip": (float, 5.0),
    "encoder_epochs": (int, 100),
    "encoder_lr": (float, 1e-3),
    "encoder_patience": (int, 20),
    "encoder_seed": (int, 0),
    "detector_epochs": (int, 100),
    "detector_lr": (float, 1e-3),
    "detector_batch": (int, 32),
    "detector_patience": (int, 20),
    "detector_seed": (int, 0),
    "entropy_sizes": (_parse_int_list, list(range(10, 401, 10))),
    "sweep_window_sizes": (_parse_int_list, [50, 75, 100, 125, 150]),
    "sweep_sequence_lengths": (_parse_int_list, [30, 50, 100, 120, 150]),
    "synth_output": (str, "synthetic.csv"),
    "synth_duration": (float, 60.0),
    "synth_jitter": (float, 0.1),
    "synth_seed": (int, 0),
}

_ECU_RE = re.compile(r"^ecu(\d+)$")
_ATTACK_RE = re.compile(r"^attack(\d+)$")


@dataclass
class PipelineConfig:
    values: dict = field(default_factory=dict)
    ecus: dict = field(default_factory=dict)     # ordinal -> EcuSpec
    attacks: dict = field(default_factory=dict)  # ordinal -> AttackSpec

    def __post_init__(self):
        for key, (_, default) in KEY_SPECS.items():
            self.values.setdefault(key, default)

    def __getattr__(self, name):
        values = object.__getattribute__(self, "values")
        if name in values:
            return values[name]
        raise AttributeError(name)

    def set(self, key: str, raw: str) -> None:
        key = key.strip()
        ecu, attack = _ECU_RE.match(key), _ATTACK_RE.match(key)
        if not (ecu or attack or key in KEY_SPECS):
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if ecu:
                self.ecus[int(ecu.group(1))] = _parse_ecu(raw)
            elif attack:
                self.attacks[int(attack.group(1))] = _parse_attack(raw)
            else:
                caster, _ = KEY_SPECS[key]
                self.values[key] = caster(raw.strip()) if isinstance(raw, str) else raw
        except ValueError as e:  # a failed cast, a spec parser's ConfigError, a spec out of range
            raise ConfigError(f"bad value for {key!r}: {e}") from None

    def validate(self) -> None:
        if self.window_size < 2:
            raise ConfigError(f"window_size must be >= 2, got {self.window_size}")
        if self.sequence_length < 1:
            raise ConfigError(f"sequence_length must be >= 1, got {self.sequence_length}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        ratios = (self.train_ratio, self.val_ratio, self.test_ratio)
        if any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must be positive and sum to 1, got {ratios}")
        if self.byte_mode not in ("binarized", "normalized"):
            raise ConfigError(f"byte_mode must be binarized or normalized, got {self.byte_mode!r}")
        for key, low in (("encoder_epochs", 1), ("detector_epochs", 1), ("detector_batch", 1),
                         ("grad_clip", 0), ("encoder_patience", 0), ("detector_patience", 0)):
            if not self.values[key] >= low:
                raise ConfigError(f"{key} must be >= {low}, got {self.values[key]}")
        for key in ("encoder_lr", "detector_lr"):
            if not self.values[key] > 0:
                raise ConfigError(f"{key} must be > 0, got {self.values[key]}")

    def ratios(self):
        return (self.train_ratio, self.val_ratio, self.test_ratio)

    def traffic_profile(self) -> TrafficProfile:
        if not self.ecus:
            raise ConfigError("no ecuN keys configured for synthesis")
        specs = tuple(self.ecus[k] for k in sorted(self.ecus))
        return TrafficProfile(ecu_specs=specs, duration=self.synth_duration,
                              jitter=self.synth_jitter, seed=self.synth_seed)

    def attack_specs(self):
        return [self.attacks[k] for k in sorted(self.attacks)]

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        cfg = cls()
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            try:
                cfg.set(key, raw)
            except ConfigError as e:
                raise ConfigError(f"{path}:{line_no}: {e}") from None
        cfg.validate()
        return cfg


def _int_auto(s: str) -> int:
    s = s.strip()
    return int(s, 16) if s.lower().startswith("0x") else int(s)


def _parse_ecu(raw: str) -> EcuSpec:
    """ECU spec: "<id> <period_ms> <dlc> <byte model>" with model in
    const | counter | walk | mixed."""
    parts = raw.split()
    if len(parts) != 4:
        raise ConfigError(f"ecu spec needs 'id period_ms dlc model', got {raw!r}")
    arb = _int_auto(parts[0])
    period = float(parts[1])
    dlc = int(parts[2])
    model = parts[3]
    if model not in ("const", "counter", "walk", "mixed"):
        raise ConfigError(f"unknown ecu byte model {model!r}")
    byte_specs = []
    for i in range(dlc):
        base = (arb + 37 * i + 1) % 256
        if i == 0 and model in ("counter", "mixed"):  # mixed: a counter, then a walk
            byte_specs.append(ByteSpec("counter", 0, 1))
        elif (i, model) in ((0, "walk"), (1, "mixed")):
            byte_specs.append(ByteSpec("walk", 0, 255, 5))
        else:
            byte_specs.append(ByteSpec("const", base))
    return EcuSpec(arbitration_id=arb, period_ms=period, dlc=dlc, bytes=tuple(byte_specs))


def _parse_attack(raw: str) -> AttackSpec:
    """Attack spec: "<kind> <start> <duration> [rate=R] [target=0xID]
    [span=FROM:TO] [mutate=IDX:LO:HI[,IDX:LO:HI]]"."""
    parts = raw.split()
    if len(parts) < 3:
        raise ConfigError(f"attack spec needs 'kind start duration ...', got {raw!r}")
    try:
        kind = Label.from_string(parts[0])
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if kind is Label.NORMAL:
        raise ConfigError("attack kind cannot be Normal")
    kwargs = {"kind": kind, "start": float(parts[1]), "duration": float(parts[2])}
    for extra in parts[3:]:
        if "=" not in extra:
            raise ConfigError(f"bad attack option {extra!r}")
        opt, val = extra.split("=", 1)
        form = {"span": "FROM:TO", "mutate": "IDX:LO:HI"}.get(opt)
        if form and any(f.count(":") != form.count(":") for f in val.split(",")):
            raise ConfigError(f"{opt} needs {form}, got {val!r}")
        if opt == "rate":
            kwargs["rate"] = float(val)
        elif opt == "target":
            kwargs["target_id"] = _int_auto(val)
        elif opt == "span":
            lo, hi = val.split(":")
            kwargs["replay_span"] = (float(lo), float(hi))
        elif opt == "mutate":
            muts = []
            for m in val.split(","):
                idx, lo, hi = m.split(":")
                muts.append((int(idx), _int_auto(lo), _int_auto(hi)))
            kwargs["mutation"] = tuple(muts)
        else:
            raise ConfigError(f"unknown attack option {opt!r}")
    return AttackSpec(**kwargs)
