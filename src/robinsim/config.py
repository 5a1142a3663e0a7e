"""Flat key=value experiment configuration files.

Lines are ``key = value``; blank lines and ``#`` comments are ignored. Keys
mirror the experiment fields, and a key left out takes the default of the
field it sets (``ExperimentConfig``, ``WorkloadSpec`` or ``DeviceParams``)::

    # input source: exactly one of the two
    trace = traces/app.jsonl        # optional: trace_format = jsonl|binary
    workload = float64walk          # float64walk|narrowint32|partialvalid|irregular
    records = 10000
    addresses = 64                  # workload address-pool size
    base_addr = 0                   # first block's address, 64-byte aligned
    # workload tuning (kind-specific, all optional):
    #   walk_scale = 6.1e-5, walk_jitter = 4.0, width = 12, update_rate = 0.6,
    #   valid_words_min = 1, valid_words_max = 8, pinned_top_bits = 3

    schemes = per-word,interleaved,robin
    pw = 0.999                      # or the device keys below (both is an error);
    # device_t_write, device_i_write, device_i_c0, device_polarization and
    # device_magnetic_moment are required, device_mu_b, device_delta and
    # device_e_charge optional
    include_ecc = true
    monte_carlo = false
    trials = 1000
    seed = 0
    warmup = 0
    out = results
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from pathlib import Path

from .reliability import DeviceParams
from .report import ConfigError, ExperimentConfig
from .workloads import WorkloadSpec

# config key -> DeviceParams field; euler is a constant, not a setting
_DEVICE_KEYS = {
    f"device_{item.name}": item.name for item in fields(DeviceParams) if item.name != "euler"
}
_DEVICE_REQUIRED = {item.name for item in fields(DeviceParams) if item.default is MISSING}


def _as_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _as_int(key: str, value: str) -> int:
    try:
        return int(value, 0)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc


def _as_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc


# workload key -> parser; WorkloadSpec's defaults fill the absent keys
_WORKLOAD_KEYS = {
    "records": _as_int,
    "addresses": _as_int,
    "base_addr": _as_int,
    "walk_scale": _as_float,
    "walk_jitter": _as_float,
    "width": _as_int,
    "update_rate": _as_float,
    "valid_words_min": _as_int,
    "valid_words_max": _as_int,
    "pinned_top_bits": _as_int,
}

# experiment key -> parser, in parse order; ExperimentConfig's defaults fill the absent keys
_SCALAR_KEYS = {
    "pw": _as_float,
    "include_ecc": _as_bool,
    "monte_carlo": _as_bool,
    "trials": _as_int,
    "seed": _as_int,
    "warmup": _as_int,
}

_KNOWN_KEYS = (
    {"trace", "trace_format", "workload", "schemes", "out"}
    | set(_SCALAR_KEYS)
    | set(_DEVICE_KEYS)
    | set(_WORKLOAD_KEYS)
)


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{origin}:{lineno}: key {key!r} has an empty value")
        values[key] = value
    return values


def _build_workload(kind: str, values: dict[str, str]) -> WorkloadSpec:
    if "records" not in values:
        raise ConfigError("workload input requires a records count")
    kwargs = {
        key: parse(key, values[key]) for key, parse in _WORKLOAD_KEYS.items() if key in values
    }
    if "valid_words_min" in kwargs or "valid_words_max" in kwargs:
        lo, hi = WorkloadSpec.valid_words
        kwargs["valid_words"] = (kwargs.pop("valid_words_min", lo), kwargs.pop("valid_words_max", hi))
    try:
        return WorkloadSpec(kind=kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_values(values: dict[str, str], out_override: str | None = None) -> ExperimentConfig:
    kwargs = {}
    device_values = {field: values[key] for key, field in _DEVICE_KEYS.items() if key in values}
    if device_values:
        missing = _DEVICE_REQUIRED - set(device_values)
        if missing:
            raise ConfigError(f"device parameters incomplete; missing {sorted(missing)}")
        try:
            kwargs["device"] = DeviceParams(**{k: _as_float(k, v) for k, v in device_values.items()})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    if "workload" in values:
        kwargs["workload"] = _build_workload(values["workload"], values)
    elif any(key in values for key in _WORKLOAD_KEYS):
        present = sorted(key for key in _WORKLOAD_KEYS if key in values)
        raise ConfigError(f"workload keys {present} given without a workload kind")

    if "schemes" in values:
        kwargs["schemes"] = tuple(name.strip() for name in values["schemes"].split(",") if name.strip())
    kwargs.update(
        (key, parse(key, values[key])) for key, parse in _SCALAR_KEYS.items() if key in values
    )
    out = values.get("out") if out_override is None else out_override
    if out is not None:
        if not out:
            # it would resolve to the current directory
            raise ConfigError("the output directory (out or --out) is empty")
        kwargs["out_dir"] = out
    cfg = ExperimentConfig(
        trace_path=values.get("trace"), trace_format=values.get("trace_format"), **kwargs
    )
    cfg.validate()
    return cfg


def load_config(path: str | Path, out_override: str | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_values(parse_config_text(text, origin=str(path)), out_override)
