#!/usr/bin/env python3
"""Randomized round-trip verification at scale.

Generates seeded restricted instances, runs the full
discover/abstract/re-discover chain on each, and reports failures together
with shrunk counterexamples.  Unlike the CLI's ``verify`` subcommand this
sweeps a small grid of generator settings, to show the synchronization
property is not an artifact of one tree or aggregation shape.
"""
import argparse
import textwrap
import time

from bpa.pipeline import NEGATIVE_CONTROL, GenParams, render_summary, verify

#: tree shapes, then aggregation shapes other than the default two groups of
#: two.  On these the applicability gate still passes some aggregations
#: whose round trip fails, so they report failures until the gate refuses them.
SWEEP = (
    GenParams(max_depth=3, activity_budget=8),
    GenParams(),
    GenParams(max_depth=5, activity_budget=16, max_children=4),
    GenParams(agg_group_count=1, agg_group_size=3),
    GenParams(agg_group_count=1, agg_group_size=4),
    GenParams(agg_group_count=3, agg_group_size=2),
    GenParams(agg_group_count=2, agg_group_size=3),
    GenParams(agg_group_count=3, agg_group_size=3, activity_budget=14),
)

#: each distinct tree shape of ``SWEEP`` once, with the negative control's grouping
CONTROL_SWEEP = tuple(dict.fromkeys(
    NEGATIVE_CONTROL._replace(
        max_depth=p.max_depth, max_children=p.max_children, activity_budget=p.activity_budget
    )
    for p in SWEEP
))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=100, help="instances per setting")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--negative-control",
        action="store_true",
        help="run each tree shape with one group of two instead; every instance must fail",
    )
    args = parser.parse_args(argv)

    all_ok = True
    for params in CONTROL_SWEEP if args.negative_control else SWEEP:
        start = time.perf_counter()
        summary = verify(args.n, seed=args.seed, base=params)
        elapsed = time.perf_counter() - start
        print(
            f"depth<={params.max_depth} budget={params.activity_budget} "
            f"children<={params.max_children} "
            f"groups={params.agg_group_count}x{params.agg_group_size} [{elapsed:.1f}s]:"
        )
        print(textwrap.indent(render_summary(summary), "  "))
        # an out-of-class instance that passes is one the checks missed
        expected = summary.instances if args.negative_control else 0
        all_ok = all_ok and len(summary.failures) == expected

    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
