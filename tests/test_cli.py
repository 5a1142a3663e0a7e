import pytest

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


def test_codec_selftest(capsys):
    assert main(["codec-selftest"]) == 0
    assert "0 failures" in capsys.readouterr().out


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
