"""Synchronized abstraction of block-structured process models and event
logs: discover a tree from a log, aggregate activities over its behavioral
profile, and rewrite the log so that rediscovery reproduces the abstracted
tree.

``import bpa`` loads no submodule: each exported name is read from its
module on every access (PEP 562), so it is always the module's current
value."""

import importlib

#: the exported names of each submodule
_EXPORTS = {
    "trees": "ClassReport ClassViolationError ProcessTree TreeSyntaxError activities canonical "
    "check_class isomorphic leaf node normal_form parse_tree render_tree require_class size tau "
    "tree_to_dot",
    "logs": "DFG Event EventLog dfg_of_log format_compact log_from_sequences read_compact "
    "read_compact_file read_csv_log write_csv_log",
    "semantics": "LogSizeError NtlResult minimal_log ntl",
    "profiles": "CHOICE INVERSE PARALLEL STRICT BehavioralProfile behavioral_profile "
    "order_relations_graph",
    "model_abstraction": "Abstraction AggSpec InapplicableError applicable "
    "derive_ordering_relation derive_profile dump_agg_spec expand_spec load_agg_spec ma_bpa "
    "make_spec modular_decomposition plan relation_weights w_minmax",
    "miner": "DiscoveryAudit FORBIDDEN_FALLTHROUGHS RestrictionCheck audit_restrictions "
    "check_restricted discover",
    "event_abstraction": "MatchingError delete_choice_activities ea1 ea2 ea_bpa "
    "even_split_sizes kendall_distance",
    "pipeline": "GenParams GenerationError Instance RoundtripReport VerificationSummary "
    "generate_instance roundtrip verify",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
