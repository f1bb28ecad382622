"""Knowledge-graph engine and class-incremental-learning harness."""

from .store import (
    EmptyGraph,
    Fact,
    KnowledgeGraph,
    LoadStats,
    MalformedLine,
    NameTable,
    load_graph,
    normalize_name,
    normalize_relation,
)
from .taskgraph import (
    AllocationReport,
    ClassAssignment,
    ClassGrant,
    RelationPath,
    TaskSubgraph,
    UnknownClass,
    export_subgraph,
    extend_subgraph,
    import_subgraph,
    render_export,
)
from .triplet_text import (
    INSTRUCTION_PROMPT,
    EmptyAssignment,
    ParsedTriplet,
    parse_triplets,
    render_clause,
    render_training_text,
)
from .encoders import HashingEncoder, encoder_from_config, fnv1a_64
from .inference import (
    BatchInference,
    Candidates,
    EmptyCandidates,
    PieceTable,
    Prediction,
    VoteTally,
    augment_text,
    classify,
    encode_candidates,
    infer,
    infer_batch,
    prediction_record,
    vote_head,
)
from .simulate import (
    BASELINE_TEMPLATE,
    GeneratorConfig,
    NoAssignment,
    TextGenerator,
    baseline_config,
    build_confusables,
    load_filler_templates,
)
from .harness import (
    SIMULATION_CAVEAT,
    BenchReport,
    MetricsReport,
    OrderResult,
    SessionResult,
    TaskSchedule,
    bench,
    compute_hacc,
    compute_pd,
    run_experiment,
    run_paired_comparison,
)
from .config import ConfigError, load_run_config, validate_run_config

__version__ = "0.1.0"
