"""Command-line entry points: `redcrawl run` and `redcrawl gen`.

Each `run` override flag keeps its text under the config key it sets,
and that key's file parser reads it, so a flag accepts exactly what a
`key = value` line accepts. An input error, such as a bad value or an
unreadable file, prints one `redcrawl: error:` line and exits 2.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .graph import SYNTHETIC_MODES, float_text, generate_synthetic, save_graph
from .harness import parse_config, run_experiment, set_config_value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redcrawl",
        description="Budgeted crawling of hidden colored networks with unreliable informants.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, help="key = value config file")
    run_p.add_argument("--strategy", dest="strategies",
                       help="override strategies (comma-separated: sr,rs,mrsr,mrn,redlearn)")
    run_p.add_argument("--scenario", help="override lying scenario (ls1 or ls2)")
    run_p.add_argument("--runs", help="override number of runs")
    run_p.add_argument("--budget-fraction", help="override monitor budget as a fraction of nodes")
    run_p.add_argument("--seed", dest="master_seed", help="override master seed")
    run_p.add_argument("--remove-red-red", action="store_const", const="true",
                       help="delete all edges between red nodes before crawling")
    run_p.add_argument("--out", dest="output_dir", help="override output directory")

    gen_p = sub.add_parser("gen", help="generate a synthetic world graph to files")
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--red-fraction", type=float, required=True)
    gen_p.add_argument("--mode", choices=SYNTHETIC_MODES, required=True)
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("--out", required=True, help="directory for edges.txt and nodes.csv")
    return parser


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    # Every other run flag is an override whose dest is the config key it sets.
    for key, text in vars(args).items():
        if key not in ("command", "verbose", "config") and text is not None:
            set_config_value(config, key, text)
    result = run_experiment(config)
    world = result["world"]
    reds = result["total_reds"]
    print(f"{world.name}: {world.n} nodes, {world.num_edges()} edges, {reds} red / {world.n - reds} blue")
    print(f"budget {result['budget']} monitors, {config.runs} run(s), scenario {config.scenario}")
    print(f"{'strategy':<10} {'tier':>6} {'mean%red':>9} {'std':>7}")
    for row in result["summary"]:
        print(f"{row.strategy:<10} {float_text(row.tier):>6} {row.mean_pct_red:>9.1f} {row.std_pct_red:>7.1f}")
    print(f"traces: {result['traces_csv']}")
    print(f"summary: {result['summary_csv']}")
    return 0


def _cmd_gen(args) -> int:
    g = generate_synthetic(args.n, args.red_fraction, args.mode, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    edge_path = out_dir / "edges.txt"
    node_path = out_dir / "nodes.csv"
    save_graph(g, edge_path, node_path)
    print(f"wrote {edge_path} and {node_path}: {g.n} nodes, {g.num_edges()} edges, {len(g.red_ids())} red")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return _cmd_run(args) if args.command == "run" else _cmd_gen(args)
    except (ValueError, OSError) as exc:
        print(f"redcrawl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
