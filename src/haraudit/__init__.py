"""haraudit: quantify which windows of a windowed time-series benchmark no
model can classify, characterize their confusion structure, and emit a
trinary clean/minor/major patch mask.

The package is organized around a small pipeline:

1. ``recordings``/``windowing``/``splits`` ingest canonical sensor CSVs,
   slice labelled sliding windows (a ``WindowTable``), and plan grouped folds.
2. ``predictions`` reads per-window class-probability logs (from real
   models or the built-in ``baseline``/``synth`` pair) into a columnar
   ``PredictionTable``, picks each model's config and merges its runs into a
   correctness matrix.
3. ``ifc`` measures the intersect of false classifications plus each model's
   single contribution and the ensemble's common ground.
4. ``confusion`` fuses the flagged windows' probabilities (a ``FusedTable``)
   into confusion tables and chord-diagram data; ``mask`` categorizes them.

See the demos/ directory for narrative walkthroughs and the ``haraudit``
command line for the file-based pipeline.
"""

from .baseline import (
    BaselineModel,
    TrainConfig,
    extract_feature_matrix,
    loss_and_gradients,
    predict_proba,
    train_baseline,
)
from .confusion import (
    ClassConfusionRow,
    FusedTable,
    chord_edges,
    confusion_table,
    fuse_probabilities,
)
from .ifc import (
    CorrectnessMatrix,
    IfcSummary,
    RunLengthHistogram,
    Segment,
    common_ground,
    compute_ifc,
    run_lengths,
    single_contributions,
)
from .mask import CLEAN, MAJOR, MINOR, MaskSequence, build_mask
from .pipeline import AuditResult, audit_records, baseline_prediction_records
from .predictions import (
    PredictionTable,
    best_hyperparams,
    filter_to_configs,
    merge_runs,
    model_metrics,
    read_columns,
    read_records,
    write_columns,
    write_records,
)
from .recordings import (
    CanonicalFormatError,
    SensorRecording,
    corpus_num_classes,
    parse_canonical,
    write_canonical,
)
from .splits import Fold, FoldPlan, group_k_fold, plan_folds, read_plan, write_plan
from .synth import (
    Injection,
    InjectionSpan,
    ScenarioSpec,
    default_scenario,
    generate,
    generate_corpus,
    load_scenario,
    save_scenario,
)
from .windowing import (
    ChannelStats,
    WindowConfig,
    WindowedDataset,
    WindowTable,
    fit_normalizer,
    read_windows,
    slice_corpus,
    write_windows,
)

__version__ = "0.1.0"
