"""Flat key=value experiment configuration files.

Lines are ``key = value``; blank lines and ``#`` comments are ignored. Every
int, float and bool field of ``ExperimentConfig``, ``WorkloadSpec`` and
``DeviceParams`` is a key of the same name, ``device_`` before a device
field's; its field's annotation picks its parser. The other keys name the
input, the schemes, the output directory and the two ends of ``valid_words``.
A key left out takes the default of the field it sets::

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

import re
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable

from .reliability import DeviceParams
from .report import ConfigError, ExperimentConfig
from .workloads import WorkloadSpec


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


# field annotation -> parser; with ``from __future__ import annotations`` in
# their modules, the annotations are these strings
_PARSERS = {"int": _as_int, "float": _as_float, "float | None": _as_float, "bool": _as_bool}


def _field_parsers(cls: type) -> dict[str, Callable]:
    """Field name -> parser for each int, float and bool field of ``cls``, in field order."""
    return {item.name: _PARSERS[item.type] for item in fields(cls) if item.type in _PARSERS}


# config key -> the DeviceParams field it sets; a value is parsed and named by its key
_DEVICE_FIELDS = {f"device_{item.name}": item for item in fields(DeviceParams)}
_DEVICE_KEYS = {key: _PARSERS[item.type] for key, item in _DEVICE_FIELDS.items()}
_DEVICE_REQUIRED = {key for key, item in _DEVICE_FIELDS.items() if item.default is MISSING}
# the field names in a DeviceParams range error, each to be replaced by its key
_DEVICE_FIELD_NAMES = re.compile(rf"\b({'|'.join(item.name for item in _DEVICE_FIELDS.values())})\b")
# WorkloadSpec.valid_words is set by its two ends
_WORKLOAD_KEYS = {**_field_parsers(WorkloadSpec), "valid_words_min": _as_int, "valid_words_max": _as_int}
_SCALAR_KEYS = _field_parsers(ExperimentConfig)

_KNOWN_KEYS = (
    {"trace", "trace_format", "workload", "schemes", "out"}
    | set(_SCALAR_KEYS)
    | set(_DEVICE_KEYS)
    | set(_WORKLOAD_KEYS)
)


def _parsed(keys: dict[str, Callable], values: dict[str, str]) -> dict[str, object]:
    """Each of ``keys`` that ``values`` gives, parsed, in key order."""
    return {key: parse(key, values[key]) for key, parse in keys.items() if key in values}


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
    kwargs = _parsed(_WORKLOAD_KEYS, values)
    if "valid_words_min" in kwargs or "valid_words_max" in kwargs:
        lo, hi = WorkloadSpec.valid_words
        kwargs["valid_words"] = (kwargs.pop("valid_words_min", lo), kwargs.pop("valid_words_max", hi))
    try:
        return WorkloadSpec(kind=kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_values(values: dict[str, str], out_override: str | None = None) -> ExperimentConfig:
    kwargs = {}
    if any(key in values for key in _DEVICE_KEYS):
        missing = _DEVICE_REQUIRED - set(values)
        if missing:
            raise ConfigError(f"device parameters incomplete; missing {sorted(missing)}")
        device = _parsed(_DEVICE_KEYS, values)
        try:
            kwargs["device"] = DeviceParams(**{_DEVICE_FIELDS[key].name: value for key, value in device.items()})
        except ValueError as exc:
            raise ConfigError(_DEVICE_FIELD_NAMES.sub(r"device_\1", str(exc))) from exc

    if "workload" in values:
        kwargs["workload"] = _build_workload(values["workload"], values)
    elif any(key in values for key in _WORKLOAD_KEYS):
        present = sorted(key for key in _WORKLOAD_KEYS if key in values)
        raise ConfigError(f"workload keys {present} given without a workload kind")

    if "schemes" in values:
        kwargs["schemes"] = tuple(name.strip() for name in values["schemes"].split(",") if name.strip())
    kwargs.update(_parsed(_SCALAR_KEYS, values))
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
