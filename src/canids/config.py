"""Flat key=value pipeline configuration with typo-safe parsing."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .frames import Label
from .synth import ATTACK_FIELDS, AttackSpec, EcuSpec, TrafficProfile


class ConfigError(ValueError):
    pass


def _parse_int_list(s: str):
    return [int(v) for v in s.split(",") if v.strip()]  # "10 20" is one bad entry


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _entries_at_least(low):
    return (lambda v: bool(v) and min(v) >= low), f"non-empty, each entry >= {low}"


_POSITIVE = (lambda v: v > 0), "> 0"

# key -> (caster, default, bound): a bound is (test, meaning), and `validate` refuses a
# value, NaN included, unless test(value) holds; None leaves the key unchecked.
KEY_SPECS = {
    "input_log": (str, "", None),
    "work_dir": (str, "work", None),
    "window_size": (int, 50, _at_least(2)),
    "sequence_length": (int, 50, _at_least(1)),
    "byte_mode": (str, "binarized", ((lambda v: v in ("binarized", "normalized")), "binarized or normalized")),
    "train_ratio": (float, 0.6, _POSITIVE),
    "val_ratio": (float, 0.2, _POSITIVE),
    "test_ratio": (float, 0.2, _POSITIVE),
    "threshold": (float, 0.5, ((lambda v: 0.0 < v < 1.0), "in (0, 1)")),
    "grad_clip": (float, 5.0, _at_least(0)),
    "encoder_epochs": (int, 100, _at_least(1)),
    "encoder_lr": (float, 1e-3, _POSITIVE),
    "encoder_patience": (int, 20, _at_least(0)),
    "encoder_seed": (int, 0, _at_least(0)),
    "detector_epochs": (int, 100, _at_least(1)),
    "detector_lr": (float, 1e-3, _POSITIVE),
    "detector_batch": (int, 32, _at_least(1)),
    "detector_patience": (int, 20, _at_least(0)),
    "detector_seed": (int, 0, _at_least(0)),
    "entropy_sizes": (_parse_int_list, list(range(10, 401, 10)),
                      ((lambda v: bool(v) and min(v) >= 1 and all(a < b for a, b in zip(v, v[1:]))),
                       "non-empty, >= 1, strictly increasing")),
    "sweep_window_sizes": (_parse_int_list, [50, 75, 100, 125, 150], _entries_at_least(2)),
    "sweep_sequence_lengths": (_parse_int_list, [30, 50, 100, 120, 150], _entries_at_least(1)),
    "synth_output": (str, "synthetic.csv", None),
    "synth_duration": (float, 60.0, None),
    "synth_jitter": (float, 0.1, None),
    "synth_seed": (int, 0, _at_least(0)),
}

_SPEC_KEY = re.compile(r"(ecu|attack)(\d+)")  # the ecuN and attackN keys, matched whole


@dataclass
class PipelineConfig:
    values: dict = field(default_factory=dict)
    ecus: dict = field(default_factory=dict)     # ordinal -> EcuSpec
    attacks: dict = field(default_factory=dict)  # ordinal -> AttackSpec

    def __post_init__(self):
        for key, (_, default, _) in KEY_SPECS.items():
            self.values.setdefault(key, default)

    def __getattr__(self, name):
        values = object.__getattribute__(self, "values")
        if name in values:
            return values[name]
        raise AttributeError(name)

    def set(self, key: str, raw: str) -> None:
        key = key.strip()
        spec = _SPEC_KEY.fullmatch(key)
        if not (spec or key in KEY_SPECS):
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if spec:
                specs, parse = (self.ecus, _parse_ecu) if spec[1] == "ecu" else (self.attacks, _parse_attack)
                specs[int(spec[2])] = parse(raw)
            else:
                self.values[key] = KEY_SPECS[key][0](raw.strip())
        except ValueError as e:  # a failed cast, a spec parser's ConfigError, a spec out of range
            raise ConfigError(f"bad value for {key!r}: {e}") from None

    def validate(self) -> None:
        for key, (_, _, bound) in KEY_SPECS.items():
            if bound and not bound[0](self.values[key]):
                raise ConfigError(f"{key} must be {bound[1]}, got {self.values[key]!r}")
        if abs(sum(self.ratios()) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {self.ratios()}")

    def ratios(self):
        return (self.train_ratio, self.val_ratio, self.test_ratio)

    def traffic_profile(self) -> TrafficProfile:
        try:
            return TrafficProfile(ecu_specs=tuple(self.ecus[k] for k in sorted(self.ecus)),
                                  duration=self.synth_duration, jitter=self.synth_jitter,
                                  seed=self.synth_seed)
        except ValueError as e:
            raise ConfigError(f"synthesis profile: {e}") from None

    def attack_specs(self):
        return [self.attacks[k] for k in sorted(self.attacks)]

    @classmethod
    def from_file(cls, path, overrides=()) -> "PipelineConfig":
        """Read the file at `path` (None: none), then each of `overrides` as one more
        `key=value` line, taken whole: no `#` comment. A later line wins; the merged
        config is validated once. Errors name `path:line`, or `--set` for an override."""
        try:
            text = "" if path is None else Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        lines = [(f"{path}:{n}", s) for n, line in enumerate(text.splitlines(), start=1)
                 if (s := line.split("#", 1)[0].strip())]
        cfg = cls()
        for where, line in lines + [("--set", item) for item in overrides]:
            key, eq, raw = line.partition("=")
            try:
                if not eq:
                    raise ConfigError(f"expected key=value, got {line!r}")
                cfg.set(key, raw)
            except ConfigError as e:
                raise ConfigError(f"{where}: {e}") from None
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
    return EcuSpec(_int_auto(parts[0]), float(parts[1]), int(parts[2]), parts[3])


def _mutations(text: str):
    return tuple((int(idx), _int_auto(lo), _int_auto(hi))
                 for idx, lo, hi in (entry.split(":") for entry in text.split(",")))


# option -> (AttackSpec field, form of the value or None, parser of the value); only
# mutate's value is a comma-separated list of entries of its form
ATTACK_OPTIONS = {
    "rate": ("rate", None, float),
    "target": ("target_id", None, _int_auto),
    "span": ("replay_span", "FROM:TO", lambda text: tuple(map(float, text.split(":")))),
    "mutate": ("mutation", "IDX:LO:HI", _mutations),
}


def _parse_attack(raw: str) -> AttackSpec:
    """Attack spec: "<kind> <start> <duration> [option=value ...]", each option of
    ATTACK_OPTIONS that synth.ATTACK_FIELDS gives the kind."""
    parts = raw.split()
    if len(parts) < 3:
        raise ConfigError(f"attack spec needs 'kind start duration ...', got {raw!r}")
    kind = Label.from_string(parts[0])
    kwargs = {"kind": kind, "start": float(parts[1]), "duration": float(parts[2])}
    for extra in parts[3:]:
        opt, eq, val = extra.partition("=")
        if not eq:
            raise ConfigError(f"bad attack option {extra!r}")
        if opt not in ATTACK_OPTIONS:
            raise ConfigError(f"unknown attack option {opt!r}")
        name, form, parse = ATTACK_OPTIONS[opt]
        entries = val.split(",") if opt == "mutate" else [val]
        if form and any(f.count(":") != form.count(":") or "," in f for f in entries):
            raise ConfigError(f"{opt} needs {form}, got {val!r}")
        if name not in ATTACK_FIELDS.get(kind, (name,)):  # Normal is AttackSpec's to refuse
            raise ConfigError(f"{kind.value.lower()} takes no {opt!r} option")
        kwargs[name] = parse(val)
    return AttackSpec(**kwargs)
