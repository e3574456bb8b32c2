"""Experiment drivers regenerating every table and figure of the paper."""

from repro.experiments.common import ExperimentScale, format_table, load_benchmark_dataset, resolve_devices
from repro.experiments.fig1_latency_memory import (
    PAPER_POINT_SWEEP,
    Fig1Row,
    run_device_comparison,
    run_point_sweep,
)
from repro.experiments.fig2_reuse import REUSE_CONFIGURATIONS, ReuseResult, run_fig2
from repro.experiments.fig3_breakdown import PAPER_BREAKDOWN_REFERENCE, run_fig3
from repro.experiments.fig6_frontier import FrontierPoint, frontier_from_table, run_fig6
from repro.experiments.fig7_tradeoff import PAPER_RATIOS, TradeoffPoint, run_fig7
from repro.experiments.fig8_predictor import PredictorExperimentResult, run_fig8
from repro.experiments.fig9_ablation import AblationRun, default_ablation_config, run_fig9a, run_fig9b
from repro.experiments.fig10_architectures import ArchitectureReport, run_fig10
from repro.experiments.table2_comparison import (
    AccuracyRecord,
    Table2Row,
    run_table2,
    train_accuracy_models,
)

__all__ = [
    "ExperimentScale",
    "format_table",
    "load_benchmark_dataset",
    "resolve_devices",
    "PAPER_POINT_SWEEP",
    "Fig1Row",
    "run_device_comparison",
    "run_point_sweep",
    "REUSE_CONFIGURATIONS",
    "ReuseResult",
    "run_fig2",
    "PAPER_BREAKDOWN_REFERENCE",
    "run_fig3",
    "FrontierPoint",
    "frontier_from_table",
    "run_fig6",
    "PAPER_RATIOS",
    "TradeoffPoint",
    "run_fig7",
    "PredictorExperimentResult",
    "run_fig8",
    "AblationRun",
    "default_ablation_config",
    "run_fig9a",
    "run_fig9b",
    "ArchitectureReport",
    "run_fig10",
    "AccuracyRecord",
    "Table2Row",
    "run_table2",
    "train_accuracy_models",
]
