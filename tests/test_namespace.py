"""The ``bpa`` package namespace: every exported name resolves lazily to
its module's own object."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import bpa

#: ``bpa.__all__`` as it stood when the package imported every module eagerly
EXPORTS = {
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
MODULE_OF = {name: module for module, names in EXPORTS.items() for name in names.split()}


def test_all_keeps_the_82_names_it_had():
    assert len(MODULE_OF) == 74
    assert bpa.__all__ == sorted([*MODULE_OF, *EXPORTS])
    assert len(bpa.__all__) == 82


def test_every_export_is_its_modules_own_object():
    for name in bpa.__all__:
        module = importlib.import_module(f"bpa.{MODULE_OF.get(name, name)}")
        want = module if name in EXPORTS else getattr(module, name)
        assert getattr(bpa, name) is want, name


def test_star_import_binds_every_export():
    scope: dict = {}
    exec("from bpa import *", scope)
    assert sorted(n for n in scope if n != "__builtins__") == bpa.__all__
    assert all(scope[name] is getattr(bpa, name) for name in bpa.__all__)


def test_a_name_read_while_patched_follows_its_module_after(monkeypatch):
    # nothing is cached in the package: undoing a patch of the module
    # attribute undoes it for `bpa` too
    import bpa.miner

    discover = bpa.miner.discover
    monkeypatch.setattr(bpa.miner, "discover", lambda log: None)
    assert bpa.discover is bpa.miner.discover
    monkeypatch.undo()
    assert bpa.discover is bpa.miner.discover is discover


def test_unknown_names_stay_unknown():
    assert not hasattr(bpa, "no_such_name")
    assert bpa.__version__ == "0.1.0"
    assert set(bpa.__all__) <= set(dir(bpa))


def test_import_bpa_loads_no_submodule():
    script = (
        "import sys, bpa\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'bpa'))\n"
        "bpa.plan\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'bpa'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bpa.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['bpa']",
        "['bpa', 'bpa.model_abstraction', 'bpa.profiles', 'bpa.trees']",
    ]
