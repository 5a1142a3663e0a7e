"""Reliability toolkit for ECC-protected STT-MRAM caches.

Compares three static bit-to-codeword layouts for 512-bit blocks under
SEC-DED(72, 64): per-word, interleaved, and the rotated "robin" layout, using
closed-form write-failure probabilities, Monte Carlo fault injection, and
trace-driven transition statistics.
"""

from .injection import InjectionConfig, WriteOutcome, inject_write, mix_seed, monte_carlo_block
from .mapping import (
    INTERLEAVED,
    InvalidSchemeError,
    MappingScheme,
    PER_WORD,
    ROBIN,
    transition_vector,
    verify_partition,
)
from .reliability import (
    DeviceParams,
    TraceAccumulator,
    normalized_increase,
    p_write_from_device,
    trace_error_rate,
)
from .report import ExperimentConfig, ReportBundle, emit_csv, emit_svg, run_experiment
from .trace import ShadowStore, WriteRecord, codeword_stats, load_trace, old_new_pairs, save_trace
from .workloads import WorkloadSpec, gen_workload

__version__ = "0.1.0"
