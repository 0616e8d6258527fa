"""Synchronized abstraction of block-structured process models and event
logs: discover a tree from a log, aggregate activities over its behavioral
profile, and rewrite the log so that rediscovery reproduces the abstracted
tree."""

from .trees import (
    ClassReport,
    ClassViolationError,
    ProcessTree,
    TreeSyntaxError,
    activities,
    canonical,
    check_class,
    isomorphic,
    leaf,
    node,
    normal_form,
    parse_tree,
    render_tree,
    require_class,
    size,
    tau,
    tree_to_dot,
)
from .logs import (
    DFG,
    Event,
    EventLog,
    dfg_of_log,
    format_compact,
    log_from_sequences,
    read_compact,
    read_compact_file,
    read_csv_log,
    write_csv_log,
)
from .semantics import (
    LogSizeError,
    NtlResult,
    minimal_log,
    ntl,
)
from .profiles import (
    CHOICE,
    INVERSE,
    PARALLEL,
    STRICT,
    BehavioralProfile,
    behavioral_profile,
    order_relations_graph,
)
from .model_abstraction import (
    Abstraction,
    AggSpec,
    InapplicableError,
    applicable,
    derive_ordering_relation,
    derive_profile,
    dump_agg_spec,
    expand_spec,
    load_agg_spec,
    ma_bpa,
    make_spec,
    modular_decomposition,
    plan,
    relation_weights,
    w_minmax,
)
from .miner import (
    DiscoveryAudit,
    FORBIDDEN_FALLTHROUGHS,
    RestrictionCheck,
    audit_restrictions,
    check_restricted,
    discover,
)
from .event_abstraction import (
    MatchingError,
    delete_choice_activities,
    ea1,
    ea2,
    ea_bpa,
    even_split_sizes,
    kendall_distance,
)
from .pipeline import (
    GenParams,
    GenerationError,
    Instance,
    RoundtripReport,
    VerificationSummary,
    generate_instance,
    roundtrip,
    verify,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
