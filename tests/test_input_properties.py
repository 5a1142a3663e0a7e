"""Property tests of the input contract: hostile configs and trace files end in a
documented error (exit 1 or 2 with one stderr line), never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinsim.cli import main
from robinsim.config import _KNOWN_KEYS
from robinsim.trace import (
    FORMATS,
    TRACE_MAGIC,
    TRACE_VERSION,
    TraceFormatError,
    WriteRecord,
    load_trace,
    save_trace,
)

HOSTILE_VALUES = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "-1", "0", "1", "-64", "0x40", "0xFFFFFFFFFFFFFFC0", "1e300",
         "-1e300", "1e-320", str(10**23), "true", "no", "junk", "", "jsonl", "binary", "xml",
         "irregular", "narrowint32", "float64walk", "partialvalid", "robin", "per-word,robin",
         "0.999", "0.5"]
    ),
    st.integers(-(2**70), 2**70).map(str),
    st.integers(-(2**70), 2**70).map(hex),
    st.floats().map(repr),
    st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#"), max_size=8),
)
# records and trials stay small, so every run finishes quickly
SMALL_COUNTS = st.one_of(
    st.integers(-3, 64).map(str), st.sampled_from(["0x40", "nan", "inf", "-1", "junk", "1e3"])
)
DEVICE = {
    "device_t_write": "2", "device_i_write": "1.5", "device_i_c0": "1", "device_polarization": "0.5",
    "device_magnetic_moment": "0.75",
}
# mostly valid starting points, so the hostile values reach the code behind the parser
BASES = [
    {"workload": "irregular", "records": "20", "pw": "0.999"},
    {"workload": "narrowint32", "records": "16", **DEVICE},
    {"trace": None, "pw": "0.99"},
    {},
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    records = [WriteRecord(64 * (i % 5), bytes([i]) * 64) for i in range(30)]
    save_trace(root / "valid.jsonl", records)
    save_trace(root / "valid.trace", records)
    (root / "corrupt.trace").write_bytes(TRACE_MAGIC + bytes([TRACE_VERSION]) + bytes(100))
    (root / "corrupt.jsonl").write_text('{"addr": "0x0", "data": 5}\n')
    traces = {
        "valid": root / "valid.jsonl",
        "valid-binary": root / "valid.trace",
        "corrupt": root / "corrupt.trace",
        "corrupt-jsonl": root / "corrupt.jsonl",
        "missing": root / "missing.jsonl",
    }
    return root, traces


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_config_exits_with_documented_code(inputs, data):
    root, traces = inputs
    values = dict(data.draw(st.sampled_from(BASES)))
    keys = data.draw(st.lists(st.sampled_from(sorted(_KNOWN_KEYS)), max_size=5, unique=True))
    for key in keys + ["trace"] * ("trace" in values and "trace" not in keys):
        if key == "trace":
            values[key] = data.draw(st.sampled_from(sorted(traces)))
        elif key in ("records", "trials"):
            values[key] = data.draw(SMALL_COUNTS)
        else:
            values[key] = data.draw(HOSTILE_VALUES)
    if "trace" in values:
        values["trace"] = traces[values["trace"]]
    config = root / "hostile.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))

    code, err = run_cli(["run", "--config", str(config), "--out", str(root / "out")])

    assert code in (0, 1, 2)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("config error:" if code == 1 else "i/o error:"), err


def load_all(root, payload: bytes):
    for fmt in FORMATS:
        path = root / f"random.{fmt}"
        path.write_bytes(payload)
        try:
            list(load_trace(path, fmt))
        except TraceFormatError:
            pass


@settings(max_examples=200, deadline=None)
@given(
    payload=st.one_of(
        st.binary(max_size=400),
        st.binary(max_size=400).map(lambda b: TRACE_MAGIC + bytes([TRACE_VERSION]) + b),
    )
)
def test_random_bytes_raise_only_trace_format_errors(inputs, payload):
    load_all(inputs[0], payload)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=4)
    ),
    max_leaves=12,
)
HEX = st.text("0123456789abcdefABCDEF xX", min_size=120, max_size=132)
RECORDS = st.one_of(
    JSON,
    st.fixed_dictionaries(
        {"addr": st.one_of(JSON, st.integers(-64, 2**66).map(hex)), "data": st.one_of(JSON, HEX)}
    ),
)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(RECORDS, min_size=1, max_size=3))
def test_random_json_records_raise_only_trace_format_errors(inputs, records):
    load_all(inputs[0], "".join(json.dumps(record) + "\n" for record in records).encode())
