"""What the benchmark measures and why.

BENCHMARK.json holds only names, units, bounds and one-line reasons; this
module is the fuller record: which layers each workload loads and which it
bypasses, and which end-to-end metric each per-layer metric is expected to
move. ``selftest.py`` checks that the two agree.

Layers are robinsim's modules: workloads, trace, bits, mapping, secded,
reliability, injection and report. The batch counting kernel is private to
``report`` today, so it shows up as ``report.run_experiment`` self time.

The model is unvalidated against the paper's SPEC CPU2006 magnitudes: the
repository holds no reference traces, so no accuracy error is reported. The
CSV digests only show that two versions of the program compute the same
statistics.
"""

from __future__ import annotations

SCHEMES = ("per-word", "interleaved", "robin")

WORKLOADS = {
    "synth-analytic": {
        "why": (
            "robinsim run's workload path (analytic, ECC on, 64-address pool) on all four"
            " generators; generation is about half of it. Model unvalidated vs the paper's"
            " SPEC traces"
        ),
        "loads": ("workloads", "trace.replay", "bits", "secded", "reliability", "report"),
        "bypasses": ("trace.load", "injection", "per-write API"),
    },
    "trace-replay": {
        "why": (
            "a pre-generated 4096-address trace run as binary and as JSONL: generation is"
            " bypassed; load, shadow-store replay and batch counting dominate"
        ),
        "loads": ("trace.load", "trace.replay", "bits", "secded", "reliability", "report"),
        "bypasses": ("workloads", "injection", "per-write API"),
    },
    "monte-carlo": {
        "why": (
            "1000-trial Monte Carlo on 3 schemes plus a sampled inject_write/decoder"
            " cross-check: injection is over 90% of it and it alone runs the codec's decode"
            " path"
        ),
        "loads": ("injection", "secded decode", "workloads", "report"),
        "bypasses": ("trace.load", "per-write API"),
    },
    "perwrite-api": {
        "why": (
            "transition_vector, trace_error_rate and codeword_stats one write at a time;"
            " run_experiment never calls them, so single-write costs show here"
        ),
        "loads": ("mapping", "secded", "reliability", "trace.codeword_stats"),
        "bypasses": ("workloads", "trace.load", "report", "injection"),
    },
}

# (name, unit, better, bound): host-time metrics a user of robinsim sees,
# measured with tracing off. Seconds are reference seconds (see run.py). On
# monte-carlo writes_per_s is records per second of the whole Monte Carlo run,
# i.e. mc_trials_per_s / (1000 trials x 3 schemes).
END_TO_END = (
    ("writes_per_s", "1/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# (name, unit, better, the end-to-end metric and workload it should move).
# Times are self times in seconds per operation and counts are per operation;
# a count of work done is better lower. A layer that a workload bypasses
# reads 0 there.
PER_LAYER = (
    ("workloads.gen_s", "s", "lower", "writes_per_s on synth-analytic; no change on trace-replay"),
    ("workloads.records_per_s", "1/s", "higher", "writes_per_s on synth-analytic; no change on trace-replay"),
    ("trace.load_binary_s", "s", "lower", "writes_per_s on trace-replay"),
    ("trace.load_jsonl_s", "s", "lower", "writes_per_s on trace-replay"),
    ("trace.replay_s", "s", "lower", "writes_per_s on trace-replay, then synth-analytic"),
    ("trace.shadow_blocks", "count", "lower", "peak_rss_mb on trace-replay"),
    ("bits.unpack_s", "s", "lower", "writes_per_s on trace-replay, then synth-analytic; not monte-carlo"),
    ("secded.encode_words_s", "s", "lower", "writes_per_s on trace-replay, then synth-analytic"),
    ("secded.words_encoded", "count", "lower", "writes_per_s on trace-replay, then synth-analytic"),
    ("reliability.closed_form_s", "s", "lower", "writes_per_s on trace-replay, then synth-analytic"),
    ("reliability.closed_form_evals", "count", "lower", "writes_per_s on trace-replay, then synth-analytic"),
    ("report.run_experiment_self_s", "s", "lower", "writes_per_s on trace-replay, then synth-analytic"),
    ("report.emit_s", "s", "lower", "guard only; about 1 ms per emitted bundle"),
    ("injection.mc_block_s", "s", "lower", "mc_trials_per_s (writes_per_s) on monte-carlo only"),
    ("injection.mc_record_trials", "count", "lower", "mc_trials_per_s on monte-carlo only"),
    ("injection.inject_write_s", "s", "lower", "mc_trials_per_s on monte-carlo"),
    ("injection.crosscheck_s", "s", "lower", "mc_trials_per_s on monte-carlo"),
    ("injection.crosscheck_agree_ratio", "ratio", "higher", "correctness of the decoder on monte-carlo"),
    ("mapping.transition_vector_s", "s", "lower", "writes_per_s on perwrite-api only"),
    ("reliability.trace_error_rate_s", "s", "lower", "writes_per_s on perwrite-api only"),
    ("trace.codeword_stats_s", "s", "lower", "writes_per_s on perwrite-api only"),
    ("mc_trials_per_s", "1/s", "higher", "records x trials x schemes per second on monte-carlo, untraced"),
    ("bench.untraced_s", "s", "lower", "time in an operation outside every layer span"),
    ("tracing_overhead_pct", "%", "lower", "traced minus untraced operation time, as a share of untraced"),
    ("host.calibration_s", "s", "lower", "none: the host's speed, in raw seconds per calibration loop"),
    ("host.raw_writes_per_s", "1/s", "higher", "writes_per_s before rescaling to reference seconds"),
)
