"""Planted-virality recovery experiment.

Simulates cascades with known per-tweet virality on a seeded random
follower graph, re-estimates every tweet from its exposure ledger, and
summarizes relative estimation error per planted value. The defaults
match the package's synthetic-recovery acceptance setting.

Usage:
    python3 scripts/recovery_experiment.py --out recovery.csv
    python3 scripts/recovery_experiment.py --nodes 500 --edge-prob 0.4 \
        --r-values 0.1,0.3 --cascades-per-r 50 --master-seed 1
"""

from __future__ import annotations

import argparse
from pathlib import Path

from echospread.sim import (
    ActivitySpec,
    GraphSpec,
    SimConfig,
    recovery_experiment,
    write_recovery_csv,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--edge-prob", type=float, default=0.3)
    parser.add_argument("--activity-lo", type=float, default=0.2)
    parser.add_argument("--activity-hi", type=float, default=1.0)
    parser.add_argument("--r-values", default="0.05,0.1,0.2,0.4")
    parser.add_argument("--cascades-per-r", type=int, default=200)
    parser.add_argument("--master-seed", type=int, default=4)
    parser.add_argument("--seed-pool", choices=("top-decile", "uniform"), default="top-decile")
    parser.add_argument("--out", type=Path, default=None, help="optional CSV path")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = SimConfig(
        graph=GraphSpec(kind="directed-random", n=args.nodes, p=args.edge_prob),
        activity=ActivitySpec(kind="uniform", lo=args.activity_lo, hi=args.activity_hi),
        r_values=tuple(float(v) for v in args.r_values.split(",")),
        cascades_per_r=args.cascades_per_r,
        master_seed=args.master_seed,
        seed_pool=args.seed_pool,
    )
    rows, world = recovery_experiment(config)
    print(f"world: {len(world.users)} users, {world.follow.n_edges} follow edges")
    print(f"{'planted_r':>9} {'cascades':>8} {'unscorable':>10} "
          f"{'median_err':>10} {'p90_err':>8} {'mean_exposed':>12}")
    for row in rows:
        print(
            f"{row.planted_r:>9.3g} {row.cascades:>8d} {row.unscorable:>10d} "
            f"{row.median_rel_error:>10.4f} {row.p90_rel_error:>8.4f} "
            f"{row.mean_exposed:>12.1f}"
        )
    if args.out is not None:
        write_recovery_csv(rows, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
