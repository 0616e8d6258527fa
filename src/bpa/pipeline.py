"""End-to-end round trip and randomized verification.

``roundtrip`` runs the full chain on one log: discover a model with the
restriction audit (informational — the chain continues either way), plan
its abstraction, abstract the log in sync (``synchronize``: the gate, then
both stages), rediscover from it, and compare the rediscovered tree with
the abstracted model up to isomorphism.  The report keeps audit and plan.

``check_instances`` runs the chain on instances from any source, each with
its restriction audit and plan, and checks two more invariants: the
abstracted model realizes the derived abstract profile exactly, and its
minimal log has the predicted trace count and lengths.  Any failed check
fails the instance.  ``verify`` feeds it randomly generated instances.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Iterable
from itertools import islice
from types import SimpleNamespace
from typing import NamedTuple

from .event_abstraction import MatchingError, synchronize
from .logs import EventLog
from .miner import RestrictionCheck, check_restricted, discover
from .model_abstraction import (
    AggSpec,
    Abstraction,
    InapplicableError,
    dump_agg_spec,
    group_violations,
    grouping_threshold,
    plan,
    relation_codes,
)
from .profiles import behavioral_profile
from .semantics import LogSizeError, minimal_log, ntl
from .trees import (
    ProcessTree,
    activities,
    isomorphic,
    leaf,
    node,
    normal_form,
    render_tree,
    tau,
)


class RoundtripReport(NamedTuple):
    """Everything a round trip produced from its audit and plan; later
    stages are None when an earlier gate stopped the chain."""

    check: RestrictionCheck
    abstraction: Abstraction
    abstract_log: EventLog | None = None
    rediscovered: ProcessTree | None = None
    isomorphic: bool | None = None
    failures: tuple[str, ...] = ()


def roundtrip(log: EventLog, spec: AggSpec) -> RoundtripReport:
    check = check_restricted(log)
    return _roundtrip(log, check, plan(check.tree, spec))


def _roundtrip(log: EventLog, check: RestrictionCheck, abstraction: Abstraction) -> RoundtripReport:
    """The chain after the restriction audit and the plan of its tree."""
    try:
        abstracted_log = synchronize(log, abstraction)
    except InapplicableError:
        failure = "aggregation not applicable to the discovered model"
        return RoundtripReport(check, abstraction, failures=(failure,))
    except MatchingError as exc:
        return RoundtripReport(check, abstraction, failures=(f"trace matching failed: {exc}",))

    rediscovered = discover(abstracted_log)
    iso = isomorphic(rediscovered, abstraction.tree)
    failures = () if iso else ("rediscovered model is not isomorphic to the abstracted model",)
    return RoundtripReport(check, abstraction, abstracted_log, rediscovered, iso, failures)


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

class GenerationError(RuntimeError):
    pass


SELF_LOOP_PROB = 0.25  # chance that a generated leaf is a self-loop loop(a, tau)
MAX_ATTEMPTS = 200  # trees sampled per instance before the generator gives up
SHRINK_BUDGET = 60  # the most candidates the shrinker tries per failure
MAX_BASE_TRACES = 400  # the most traces a generated tree's minimal log may have


class GenParams(NamedTuple):
    """Knobs for random instance generation.

    With ``allow_unrestricted`` the generator skips the restriction and
    applicability gates and may produce sequence nodes with plain activity
    children as well as aggregations that violate the union bound; the
    verifier's negative control is ``NEGATIVE_CONTROL``.
    """

    seed: int = 0
    max_depth: int = 4
    max_children: int = 3
    activity_budget: int = 12
    agg_group_count: int = 2
    agg_group_size: int = 2
    allow_unrestricted: bool = False


# a lone group of two never clears the union bound: every instance stops at the gate
NEGATIVE_CONTROL = GenParams(allow_unrestricted=True, agg_group_count=1, agg_group_size=2)


class Instance(NamedTuple):
    """A model, its log and an aggregation, with the restriction audit of
    the log and the plan of the audited tree; ``_instance`` makes it."""

    model: ProcessTree
    log: EventLog
    spec: AggSpec
    seed: int
    check: RestrictionCheck
    abstraction: Abstraction


def _instance(model: ProcessTree, log: EventLog, spec: AggSpec, seed: int) -> Instance:
    check = check_restricted(log)
    return Instance(model, log, spec, seed, check, plan(check.tree, spec))


def generate_instance(params: GenParams) -> Instance:
    rng = random.Random(params.seed)
    count, size = params.agg_group_count, params.agg_group_size
    # the gate's rules on the groups alone refuse some shapes whatever the tree
    shape = {f"X{i + 1}": frozenset(f"a{i}.{j}" for j in range(size)) for i in range(count)}
    doomed = [] if params.allow_unrestricted else group_violations(shape)
    if doomed:
        rule, _, msg = doomed[0]
        raise GenerationError(
            f"no viable instance: every {count}x{size} grouping fails [{rule}] {msg}"
        )
    for _ in range(MAX_ATTEMPTS):
        tree = _random_tree(rng, params)
        # a tree too small for the grouping is refused before its log is built
        if tree is None or len(activities(tree)) < count * size:
            continue
        try:
            ntl(tree, trace_cap=MAX_BASE_TRACES)
        except LogSizeError:
            continue
        spec = _random_spec(tree, rng, count, size, params.allow_unrestricted)
        if spec is None:
            continue
        log = EventLog()
        for trace, n in minimal_log(tree, trace_cap=MAX_BASE_TRACES).variants():
            log.add(trace, n * rng.randint(1, 10))
        inst = _instance(tree, log, spec, params.seed)
        if params.allow_unrestricted or inst.check.restricted and inst.abstraction.report.in_class:
            return inst
    raise GenerationError(
        f"no viable instance after {MAX_ATTEMPTS} attempts (seed {params.seed})"
    )


def _random_tree(rng: random.Random, params: GenParams) -> ProcessTree | None:
    names = [f"a{i}" for i in range(params.activity_budget)]
    rng.shuffle(names)

    def take_leaf() -> ProcessTree | None:
        if not names:
            return None
        name = names.pop()
        if rng.random() < SELF_LOOP_PROB:
            return node("loop", leaf(name), tau())
        return leaf(name)

    def build(depth: int, allow_leaf: bool) -> ProcessTree | None:
        if depth >= params.max_depth or len(names) < 2:
            return take_leaf() if allow_leaf else None
        if allow_leaf and rng.random() < 0.45:
            return take_leaf()
        op = rng.choice(("seq", "xor", "and"))
        composite_children = op == "seq" and not params.allow_unrestricted
        if composite_children and depth + 1 >= params.max_depth:
            op = rng.choice(("xor", "and"))
            composite_children = False
        kids = []
        for _ in range(rng.randint(2, params.max_children)):
            child = build(depth + 1, not composite_children)
            if child is None:
                break
            kids.append(child)
        if len(kids) < 2:
            return take_leaf() if allow_leaf else None
        return node(op, *kids)

    tree = build(0, False)
    return None if tree is None else normal_form(tree)


def _random_spec(
    tree: ProcessTree, rng: random.Random, count: int, size: int, unrestricted: bool
) -> AggSpec | None:
    """``count`` groups of ``size`` of the tree's activities (it has at
    least ``count * size``) at their ``w_minmax``.

    No two choice-related abstract activities may have members that co-occur
    in a trace.  Aggregations with such "false choices" are outside the class
    the round trip supports (stage one would have to drop events, leaving
    traces no reference trace can absorb), so the generator resamples them
    away, unless it makes the unrestricted negative control."""
    acts = sorted(activities(tree))
    codes = relation_codes(behavioral_profile(tree))
    for _ in range(10):
        chosen = rng.sample(acts, count * size)
        groups = {
            f"X{i + 1}": frozenset(chosen[i * size:(i + 1) * size])
            for i in range(count)
        }
        w_t = grouping_threshold(codes, groups, check_choices=not unrestricted)
        if w_t is not None:
            return AggSpec(agg=groups, w_t=w_t)
    return None


# ---------------------------------------------------------------------------
# Randomized verification
# ---------------------------------------------------------------------------

class FailureRecord(NamedTuple):
    seed: int
    model: str
    spec: str
    reason: str
    shrunk_model: str | None = None
    shrunk_spec: str | None = None


class VerificationSummary(SimpleNamespace):
    """The counts of one verification run and its failures; each summary
    holds its own list of failures."""

    def __init__(self, instances: int = 0, profile_checks: int = 0, count_checks: int = 0,
                 iso_checks: int = 0, failures: Iterable[FailureRecord] = ()) -> None:
        super().__init__(instances=instances, profile_checks=profile_checks,
                         count_checks=count_checks, iso_checks=iso_checks, failures=[*failures])

    @property
    def ok(self) -> bool:
        return not self.failures


def verify(n: int, seed: int = 0, base: GenParams = GenParams()) -> VerificationSummary:
    """Check ``n`` generated instances of shape ``base``: instance i uses
    seed ``seed + i``, and ``base.seed`` is not read."""
    if n < 0:
        raise ValueError(f"number of instances must be at least 0, not {n}")
    return check_instances(generate_instance(base._replace(seed=seed + i)) for i in range(n))


def check_instances(instances: Iterable[Instance]) -> VerificationSummary:
    """Round-trip each instance from its own audit and plan; shrink those out of sync."""
    summary = VerificationSummary()
    for instance in instances:
        report = _roundtrip(instance.log, instance.check, instance.abstraction)
        summary.instances += 1
        reasons = list(report.failures)
        if report.abstraction.tree is not None:
            if _profile_realized(report.abstraction):
                summary.profile_checks += 1
            else:
                reasons.append("abstracted model does not realize the derived profile")
            if _counts_match(report.abstraction.tree):
                summary.count_checks += 1
            else:
                reasons.append("minimal log does not match the predicted trace count and lengths")
        if report.isomorphic is True:
            summary.iso_checks += 1
        if reasons:
            summary.failures.append(_record_failure(instance, report, reasons))
    return summary


def render_summary(summary: VerificationSummary) -> str:
    """Each failure with its shrunk counterexample, then the counts."""
    lines = []
    for f in summary.failures:
        lines.append(f"FAIL seed={f.seed}: {f.reason}")
        for label, model, spec in ("", f.model, f.spec), ("shrunk ", f.shrunk_model, f.shrunk_spec):
            if model:
                spec = json.dumps(json.loads(spec))  # the spec file's JSON on one line
                lines += [f"  {label}model: {model}", f"  {label}agg:   {spec}"]
    lines.append(
        f"{summary.instances} instances: {summary.iso_checks} isomorphic, "
        f"{summary.profile_checks} profile checks, {summary.count_checks} count checks, "
        f"{len(summary.failures)} failures"
    )
    return "\n".join(lines)


def _profile_realized(abstraction: Abstraction) -> bool:
    """The abstracted model's own behavioral profile must equal the profile
    derived from the concrete one."""
    assert abstraction.tree is not None
    return behavioral_profile(abstraction.tree) == abstraction.profile


def _counts_match(abstract_model: ProcessTree) -> bool:
    """Trace count and length distribution of the minimal log must match
    the predicted values."""
    predicted = ntl(abstract_model)
    actual = minimal_log(abstract_model)
    lengths = Counter()
    for trace, n in actual.variants():
        lengths[len(trace)] += n
    return (
        actual.num_traces == predicted.tr
        and actual.num_events == predicted.size
        and lengths == Counter(predicted.lens)
    )


def _out_of_sync(report: RoundtripReport) -> bool:
    """Passed the restriction audit and the gate, then went out of sync: the one
    failure worth shrinking, since a gate refusal (the negative control) explains itself."""
    passed = report.check.restricted and report.abstraction.report.in_class
    return passed and report.isomorphic is not True


def _record_failure(
    instance: Instance, report: RoundtripReport, reasons: list[str]
) -> FailureRecord:
    shrunk = _shrink(instance) if _out_of_sync(report) else instance
    return FailureRecord(
        seed=instance.seed,
        model=render_tree(instance.model),
        spec=dump_agg_spec(instance.spec),
        reason="; ".join(reasons),
        shrunk_model=render_tree(shrunk.model) if shrunk is not instance else None,
        shrunk_spec=dump_agg_spec(shrunk.spec) if shrunk is not instance else None,
    )


def _shrink(instance: Instance) -> Instance:
    """Greedy reduction of a failing instance: drop subtrees, prune the
    aggregation accordingly, and keep any candidate on its minimal log that
    still goes out of sync the way ``check_instances`` sees it."""
    best = instance
    budget = SHRINK_BUDGET
    improved = True
    while improved:
        improved = False
        for model, spec in islice(_shrink_candidates(best), budget):
            budget -= 1
            try:
                candidate = _instance(model, minimal_log(model), spec, best.seed)
                report = _roundtrip(candidate.log, candidate.check, candidate.abstraction)
                still_failing = _out_of_sync(report)
            except (LogSizeError, ValueError):  # too large a log, or a class check
                still_failing = False
            if still_failing:
                best = candidate
                improved = True
                break
    return best


def _shrink_candidates(instance: Instance):
    for reduced in _tree_reductions(instance.model):
        reduced = normal_form(reduced)
        acts = activities(reduced)
        if len(acts) < 2:
            continue
        groups = {}
        for name, members in instance.spec.agg.items():
            kept = frozenset(members & acts)
            if len(kept) >= 2:
                groups[name] = kept
        if groups:
            yield reduced, AggSpec(agg=groups, w_t=instance.spec.w_t)


def _tree_reductions(tree: ProcessTree):
    if not tree.is_operator or tree.label == "loop":
        return
    kids = tree.children
    for i in range(len(kids)):
        if len(kids) > 2:
            yield ProcessTree(tree.label, kids[:i] + kids[i + 1:])
        yield kids[i]
    for i, kid in enumerate(kids):
        for smaller in _tree_reductions(kid):
            yield ProcessTree(tree.label, kids[:i] + (smaller,) + kids[i + 1:])
