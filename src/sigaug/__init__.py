"""Signed-graph augmentation toolkit.

Loads signed trust networks, measures their triangle balance, trains a
two-track signed graph convolutional encoder from scratch, augments training
edges through balance-checked candidate selection, schedules training by edge
difficulty, and benchmarks link sign prediction against unaugmented and
random-perturbation baselines.
"""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    EdgeColumns,
    EdgeSample,
    SignedGraph,
    DatasetSplit,
    build_graph,
    density,
    graph_from_samples,
    load_edge_list,
    record_density,
    split_train_test,
)
from .balance import (  # noqa: F401
    BalanceReport,
    TriangleStats,
    balance_report,
    enumerate_triangles,
    global_balance_degree,
    split_totals,
)
from .encoder import (  # noqa: F401
    EncoderConfig,
    EncoderState,
    forward,
    init_state,
    mlg_loss,
    train_encoder,
)
from .augment import (  # noqa: F401
    AugmentConfig,
    AugmentationLog,
    CandidateSets,
    augment,
    generate_candidates,
    select_beneficial,
)
from .curriculum import (  # noqa: F401
    CurriculumSchedule,
    PacingConfig,
    pacing,
    score_and_sort,
    subset_at_epoch,
    train_with_curriculum,
)
from .evalbench import (  # noqa: F401
    ExperimentReport,
    GapConstants,
    GapDiagnostic,
    MetricsSet,
    auc_rank,
    bound_value,
    compute_metrics,
    plan_experiment,
    predict_test_signs,
    random_perturbation,
    run_experiment,
    run_plan,
)
