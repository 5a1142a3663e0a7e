import re

import numpy as np
import pytest

from robinsim import cli, mapping, secded
from robinsim.cli import main
from robinsim.trace import load_trace


def write_config(tmp_path, text):
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    return str(path)


def test_verify_partition_robin(capsys):
    assert main(["verify-partition", "--scheme", "robin"]) == 0
    out = capsys.readouterr().out
    assert "bijective 8x64 partition: yes" in out
    assert "robin" in out


def test_verify_partition_all_schemes():
    for scheme in ("per-word", "interleaved", "robin"):
        assert main(["verify-partition", "--scheme", scheme]) == 0


def test_verify_partition_exits_3_on_a_miscounted_lane_table(monkeypatch, capsys):
    # bit 0 of byte 0 counted in two codewords of the table scheme_counts counts with
    table = mapping._lane_table((mapping.ROBIN,), False).copy()
    counts = table.view(np.uint8).reshape(64, 256, 8)
    counts[0, 1::2, (int(np.argmax(counts[0, 1])) + 1) % 8] += 1
    monkeypatch.setattr(mapping, "_lane_table", lambda schemes, check: table)
    assert not mapping.verify_partition(mapping.ROBIN).bijective
    assert main(["verify-partition", "--scheme", "robin"]) == 3
    out = capsys.readouterr().out
    assert "bijective 8x64 partition: NO" in out and "65" in out


def test_codec_selftest(capsys):
    assert main(["codec-selftest"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_codec_selftest_draws_words_over_all_64_bits(monkeypatch):
    words = []
    encode_words = secded.encode_words
    monkeypatch.setattr(secded, "encode_words", lambda w: words.append(w) or encode_words(w))
    assert main(["codec-selftest"]) == 0
    drawn = words[0]
    assert drawn.shape == (1000,)
    # each of the 64 bits, the top one too, is set in some dataword and clear in another
    bits = np.unpackbits(drawn.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    assert bits.any(axis=0).all() and not bits.all(axis=0).any()


@pytest.mark.parametrize(
    "syndrome,bit",
    [(secded.COLUMNS[5], 6), (0b11, 0), (0, 5)],
    ids=["column-moved-to-another-bit", "even-syndrome-mapped-to-a-bit", "zero-syndrome-mapped-to-a-bit"],
)
def test_codec_selftest_fails_on_a_broken_syndrome_table(monkeypatch, capsys, syndrome, bit):
    table = secded._SYNDROME_BIT.copy()
    table[syndrome] = bit
    monkeypatch.setattr(secded, "_SYNDROME_BIT", table)
    assert main(["codec-selftest"]) == 3
    out = capsys.readouterr().out
    assert "1000 datawords x (72 single + 2556 double) flips" in out
    assert int(re.search(r"(\d+) failures", out).group(1)) > 0


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-partition", "--scheme", "robin", "--bogus"])
    assert excinfo.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


def test_run_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_conflicting_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "workload = irregular\nrecords = 10\n")  # no pw source
    assert main(["run", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_missing_trace_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, f"trace = {tmp_path}/ghost.jsonl\npw = 0.999\n")
    assert main(["run", "--config", cfg]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_run_corrupt_trace_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"WRNG\x01")
    cfg = write_config(tmp_path, f"trace = {bad}\npw = 0.999\n")
    assert main(["run", "--config", cfg]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_gen_then_run_workflow(tmp_path, capsys):
    trace_path = tmp_path / "workload.jsonl"
    assert main(["gen", "--kind", "narrowint32", "--n", "200", "--seed", "3",
                 "--out", str(trace_path)]) == 0
    records = list(load_trace(trace_path))
    assert len(records) == 200

    out_dir = tmp_path / "results"
    cfg = write_config(
        tmp_path,
        f"trace = {trace_path}\npw = 0.999\nseed = 3\nout = {out_dir}\n",
    )
    assert main(["run", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "writes analyzed: 200" in stdout
    for name in ("histogram.csv", "codeword_stats.csv", "error_rates.csv",
                 "histogram.svg", "variation.svg", "error_increase.svg"):
        assert (out_dir / name).exists()


def test_gen_binary_roundtrip(tmp_path):
    trace_path = tmp_path / "workload.trace"
    assert main(["gen", "--kind", "float64walk", "--n", "50", "--seed", "1",
                 "--out", str(trace_path)]) == 0
    assert len(list(load_trace(trace_path))) == 50


def test_run_out_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "workload = irregular\nrecords = 50\npw = 0.999\nout = ignored\n",
    )
    out_dir = tmp_path / "override"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "error_rates.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_run_tiny_pw_writes_no_nan(tmp_path, capsys):
    # 1 - 1e-300 rounds to exactly 1; the rates must still be numbers
    out_dir = tmp_path / "results"
    cfg = write_config(tmp_path, f"workload = irregular\nrecords = 50\npw = 1e-300\nout = {out_dir}\n")
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    text = (out_dir / "error_rates.csv").read_text()
    assert "nan" not in text.lower()


def test_run_non_finite_device_parameter_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "workload = irregular\nrecords = 10\ndevice_t_write = nan\ndevice_i_write = 1.5\n"
        "device_i_c0 = 1.0\ndevice_polarization = 0.5\ndevice_magnetic_moment = 0.75\n",
    )
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_run_undecodable_jsonl_trace_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff{}\n")
    cfg = write_config(tmp_path, f"trace = {bad}\npw = 0.999\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:") and "record 0" in err[0]


def test_run_undecodable_config_exits_1(tmp_path, capsys):
    path = tmp_path / "experiment.cfg"
    path.write_bytes(b"workload = irregular\nrecords = 10\npw = 0.999\n# \xff\n")
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_run_negative_seed_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "workload = irregular\nrecords = 10\npw = 0.999\nseed = -1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "seed" in err[0]
    assert not (tmp_path / "out").exists()


def test_gen_negative_seed_exits_1(tmp_path, capsys):
    out = tmp_path / "x.bin"
    assert main(["gen", "--kind", "irregular", "--n", "5", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "seed" in err[0]
    assert not out.exists()


def test_run_seed_past_64_bits_exits_1(tmp_path, capsys):
    # seeds 2**64 apart would otherwise give identical streams
    cfg = write_config(tmp_path, f"workload = irregular\nrecords = 10\npw = 0.999\nseed = {2**64}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "seed" in err[0]
    assert not (tmp_path / "out").exists()
    cfg = write_config(tmp_path, f"workload = irregular\nrecords = 10\npw = 0.999\nseed = {2**64 - 1}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_gen_seed_past_64_bits_exits_1(tmp_path, capsys):
    out = tmp_path / "x.bin"
    argv = ["gen", "--kind", "irregular", "--n", "5", "--out", str(out), "--seed"]
    assert main(argv + [str(3 + 2**64)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "seed" in err[0]
    assert not out.exists()
    assert main(argv + [str(2**64 - 1)]) == 0


DEVICE = (
    "device_i_write = 1.5\ndevice_i_c0 = 1.0\ndevice_polarization = 0.5\n"
    "device_magnetic_moment = 0.75\n"
)
DATA_LIST = '{"addr": "0x0", "data": [' + ", ".join(["0"] * 128) + "]}\n"


@pytest.mark.parametrize(
    "config,trace_text,code,named",
    [
        ("trace = {trace}\ntrace_format = xml\npw = 0.999\n", "", 1, "trace_format"),
        ("workload = irregular\nrecords = 10\ntrace_format = jsonl\npw = 0.999\n", None, 1, "trace_format"),
        ("workload = irregular\nrecords = 10\nbase_addr = 0xFFFFFFFFFFFFFFC0\npw = 0.999\n", None, 1,
         "base_addr"),
        ("workload = irregular\nrecords = 500\nbase_addr = -64\npw = 0.999\n", None, 1, "base_addr"),
        ("workload = irregular\nrecords = 10\naddresses = 100000000000000000000000\npw = 0.999\n",
         None, 1, "addresses"),
        ("workload = irregular\nrecords = 10\ndevice_t_write = 1\ndevice_mu_b = -1e300\n" + DEVICE,
         None, 1, "mu_b"),
        ("workload = narrowint32\nrecords = 100\npw = 0.999\nwarmup = 100000000000000000000\n",
         None, 1, "warmup"),
        ("workload = irregular\nrecords = 10\npw = 1.0\nmonte_carlo = true\n"
         "trials = 9223372036854775808\n", None, 1, "trials"),
        ("trace = {trace}\npw = 0.999\n", DATA_LIST, 2, "record 0"),
        ("trace = {trace}\npw = 0.999\n", '{"addr": "0x0", "data": 5}\n', 2, "record 0"),
        ("trace = {trace}\npw = 0.999\n", "[" * 100_000 + "]" * 100_000 + "\n", 2, "record 0"),
        ("trace =\npw = 0.999\n", None, 1, "'trace'"),
        ("workload = irregular\nrecords = 10\npw = 0.999\nwarmup = -1\n", None, 1, "warmup"),
        ("workload = irregular\nrecords = 10\naddresses = 0\npw = 0.999\n", None, 1, "addresses"),
        ("workload = irregular\nrecords = 10\ndevice_t_write = 1e300\ndevice_mu_b = 1e300\n" + DEVICE,
         None, 1, "exponent"),
        # a device value is named by its key, not by the DeviceParams field it sets
        ("workload = irregular\nrecords = 10\ndevice_t_write = x\n" + DEVICE, None, 1,
         "device_t_write: expected a number, got 'x'"),
        # and so is a range error of the DeviceParams field it sets
        ("workload = irregular\nrecords = 10\ndevice_t_write = nan\n" + DEVICE, None, 1,
         "device_t_write must be finite"),
        ("workload = irregular\nrecords = 10\ndevice_t_write = 1\n" + DEVICE.replace("= 0.5", "= 1.5"),
         None, 1, "device_polarization must lie in (0, 1)"),
        ("workload = irregular\nrecords = 10\ndevice_t_write = 1\n" + DEVICE.replace("= 1.5", "= 0.5"),
         None, 1, "device_i_write=0.5 below critical current device_i_c0=1.0"),
        ("workload = float64walk\nrecords = 10\npw = 0.999\nwalk_scale = 1\n", None, 1, "walk_scale"),
        ("workload = float64walk\nrecords = 10\npw = 0.999\nwalk_jitter = inf\n", None, 1, "walk_jitter"),
        ("workload = float64walk\nrecords = 10\npw = 0.999\nwalk_jitter = -1\n", None, 1, "walk_jitter"),
    ],
    ids=[
        "unknown-trace-format",
        "trace-format-without-trace",
        "base-addr-past-64-bits",
        "negative-base-addr",
        "huge-address-pool",
        "negative-bohr-magneton",
        "huge-warmup",
        "trials-past-32-bits",
        "jsonl-data-list",
        "jsonl-data-number",
        "jsonl-deep-nesting",
        "empty-trace",
        "negative-warmup",
        "empty-address-pool",
        "device-exponent-overflow",
        "device-value-not-a-number",
        "device-t-write-not-finite",
        "device-polarization-outside-unit-interval",
        "device-write-current-below-critical",
        "walk-scale-outside-unit-interval",
        "walk-jitter-infinite",
        "walk-jitter-negative",
    ],
)
def test_run_hostile_input_ends_in_one_line(tmp_path, capsys, config, trace_text, code, named):
    trace_path = tmp_path / "trace.jsonl"
    if trace_text is not None:
        trace_path.write_text(trace_text)
    cfg = write_config(tmp_path, config.format(trace=trace_path))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:" if code == 1 else "i/o error:")
    assert named in err[0], err


def test_run_out_below_a_regular_file_is_an_io_error(tmp_path, capsys):
    # the output directory cannot be created, so the writer fails before any file is written
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    cfg = write_config(tmp_path, "workload = irregular\nrecords = 10\npw = 0.999\n")
    assert main(["run", "--config", cfg, "--out", str(blocker / "sub")]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:") and "Not a directory" in err[0], err
    assert "wrote" not in captured.out
    assert blocker.read_text() == "not a directory\n"


def test_run_empty_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    # with no --out, an empty out would resolve to the current directory
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "workload = irregular\nrecords = 10\npw = 0.999\nout =\n")
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert ":4:" in err[0] and "'out'" in err[0]
    assert [p.name for p in tmp_path.iterdir()] == ["experiment.cfg"]


def test_run_empty_out_flag_is_a_config_error(tmp_path, capsys, monkeypatch):
    # an empty --out would otherwise fall back to the config's out
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "workload = irregular\nrecords = 10\npw = 0.999\nout = fromcfg\n")
    assert main(["run", "--config", cfg, "--out", ""]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "--out" in err[0]
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["experiment.cfg"]


@pytest.mark.parametrize(
    "error,code,prefix",
    [(ValueError, 1, "config error:"), (OSError, 2, "i/o error:")],
    ids=["ValueError", "OSError"],
)
@pytest.mark.parametrize(
    "argv,module,name",
    [
        (["run", "--config", "{cfg}", "--out", "{tmp}/out"], cli, "run_experiment"),
        (["gen", "--kind", "irregular", "--n", "5", "--seed", "1", "--out", "{tmp}/x.trace"],
         cli, "save_trace"),
        (["verify-partition", "--scheme", "robin"], cli, "verify_partition"),
        (["codec-selftest"], secded, "encode_words"),
    ],
    ids=["run", "gen", "verify-partition", "codec-selftest"],
)
def test_every_subcommand_maps_errors_to_one_line(
    tmp_path, capsys, monkeypatch, argv, module, name, error, code, prefix
):
    # the call each subcommand makes fails; main's one exit-code map must catch it
    def reject(*args, **kwargs):
        raise error("rejected")

    monkeypatch.setattr(module, name, reject)
    cfg = write_config(tmp_path, "workload = irregular\nrecords = 10\npw = 0.999\n")
    assert main([arg.format(cfg=cfg, tmp=tmp_path) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{prefix} rejected"]
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["experiment.cfg"]


def test_gen_huge_address_pool_exits_1(tmp_path, capsys):
    out = tmp_path / "x.bin"
    argv = ["gen", "--kind", "irregular", "--n", "5", "--seed", "1", "--out", str(out),
            "--addresses", str(10**23)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not out.exists()
