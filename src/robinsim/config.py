"""Flat key=value experiment configuration files.

Lines are ``key = value``; blank lines and ``#`` comments are ignored. Keys
mirror the experiment fields::

    # input source: exactly one of the two
    trace = traces/app.jsonl        # optional: trace_format = jsonl|binary
    workload = float64walk          # float64walk|narrowint32|partialvalid|irregular
    records = 10000
    addresses = 64                  # workload address-pool size
    # workload tuning (kind-specific, all optional):
    #   walk_scale, walk_jitter, width, update_rate,
    #   valid_words_min, valid_words_max, pinned_top_bits

    schemes = per-word,interleaved,robin
    pw = 0.999                      # or device_* keys (both is an error):
    # device_t_write, device_i_write, device_i_c0, device_polarization,
    # device_magnetic_moment, device_mu_b, device_delta, device_e_charge
    include_ecc = true
    monte_carlo = false
    trials = 1000
    seed = 1
    warmup = 0
    out = results
"""

from __future__ import annotations

from pathlib import Path

from .reliability import DeviceParams
from .report import ConfigError, ExperimentConfig
from .workloads import KINDS as WORKLOAD_KINDS
from .workloads import WorkloadSpec

_DEVICE_KEYS = {
    "device_t_write": "t_write",
    "device_i_write": "i_write",
    "device_i_c0": "i_c0",
    "device_polarization": "polarization",
    "device_magnetic_moment": "magnetic_moment",
    "device_mu_b": "mu_b",
    "device_delta": "delta",
    "device_e_charge": "e_charge",
}


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

# experiment key -> (parser, value when absent), in parse order
_SCALAR_KEYS = {
    "pw": (_as_float, None),
    "include_ecc": (_as_bool, True),
    "monte_carlo": (_as_bool, False),
    "trials": (_as_int, 1000),
    "seed": (_as_int, 0),
    "warmup": (_as_int, 0),
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
    if kind not in WORKLOAD_KINDS:
        raise ConfigError(f"workload: unknown kind {kind!r}; expected one of {WORKLOAD_KINDS}")
    if "records" not in values:
        raise ConfigError("workload input requires a records count")
    kwargs = {
        key: parse(key, values[key]) for key, parse in _WORKLOAD_KEYS.items() if key in values
    }
    kwargs["valid_words"] = (kwargs.pop("valid_words_min", 1), kwargs.pop("valid_words_max", 8))
    try:
        return WorkloadSpec(kind=kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_values(values: dict[str, str], out_override: str | None = None) -> ExperimentConfig:
    device = None
    device_values = {field: values[key] for key, field in _DEVICE_KEYS.items() if key in values}
    if device_values:
        required = {"t_write", "i_write", "i_c0", "polarization", "magnetic_moment"}
        missing = required - set(device_values)
        if missing:
            raise ConfigError(f"device parameters incomplete; missing {sorted(missing)}")
        try:
            device = DeviceParams(**{k: _as_float(k, v) for k, v in device_values.items()})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    workload = None
    if "workload" in values:
        workload = _build_workload(values["workload"], values)
    elif any(key in values for key in _WORKLOAD_KEYS):
        present = sorted(key for key in _WORKLOAD_KEYS if key in values)
        raise ConfigError(f"workload keys {present} given without a workload kind")

    schemes = tuple(
        name.strip() for name in values.get("schemes", "per-word,interleaved,robin").split(",")
        if name.strip()
    )

    scalars = {
        key: parse(key, values[key]) if key in values else default
        for key, (parse, default) in _SCALAR_KEYS.items()
    }
    cfg = ExperimentConfig(
        trace_path=values.get("trace"),
        trace_format=values.get("trace_format"),
        workload=workload,
        schemes=schemes,
        device=device,
        out_dir=out_override or values.get("out", "results"),
        **scalars,
    )
    cfg.validate()
    return cfg


def load_config(path: str | Path, out_override: str | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_values(parse_config_text(text, origin=str(path)), out_override)
