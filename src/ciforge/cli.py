"""Command-line front end.

Subcommands: ``gen`` (write a synthetic dataset), ``test`` (run one
conditional-independence test on a CSV), ``bench`` (H0/H1 sweep with
ROC-AUC), ``relations`` (relation-file driver for user data), ``verify``
(exact oracle property battery).

Machine-readable JSON goes to stdout (and ``--out`` when given); one-line
human summaries go to stderr so pipelines stay clean.  Exit codes: 0 on
success, 1 when ``test`` decides H1 (scripting convenience), 2 on errors,
usage problems, or a failed ``verify``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .bench import BenchmarkConfig, run_benchmark, run_relations, write_scores_csv
from .classify import GbtConfig
from .core import (
    DEFAULT_SEED,
    read_dataset,
    read_relations,
    read_table,
    write_dataset,
)
from .datagen import PostNonlinearConfig, gen_discrete_joint, gen_postnonlinear, sample_discrete
from .errors import CiforgeError
from .oracle import run_verify
from .testkit import TestConfig, ci_test


def _config_kwargs(cls, given, where: str) -> dict:
    """Keyword arguments for the config class ``cls`` from a JSON object."""
    if not isinstance(given, dict):
        raise CiforgeError(f"{where} must hold a JSON object")
    unknown = sorted(set(given) - {f.name for f in fields(cls)})
    if unknown:
        raise CiforgeError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return dict(given)


def _tester_from(args) -> TestConfig:
    """The --config file's TestConfig, with --alpha and --seed put over it."""
    kwargs = {}
    if args.config is not None:
        kwargs = _config_kwargs(TestConfig, json.loads(Path(args.config).read_text()), "--config")
        if "gbt" in kwargs:
            kwargs["gbt"] = GbtConfig(**_config_kwargs(GbtConfig, kwargs["gbt"], "--config's 'gbt'"))
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return TestConfig(**kwargs)


def _emit(payload: dict, args, summary: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
    print(summary, file=sys.stderr)


def _add_tester_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON TestConfig file, the shape of a test report's config")
    p.add_argument("--alpha", type=float, help="significance level; H1 when gap > sqrt(2 ln(2/alpha) / n_s)")
    p.add_argument("--seed", type=int, help=f"master seed (default: the --config seed, else {DEFAULT_SEED})")
    p.add_argument("--out", help="also write the JSON report to this path")


def _cmd_gen(args) -> int:
    out = Path(args.data_out)
    sidecar = out.with_suffix(out.suffix + ".meta.json")
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    if args.kind == "pnl":
        cfg = PostNonlinearConfig(d_z=args.d_z, n=args.n, ci=args.ci, a_xy=args.a_xy, seed=args.seed)
        ds = gen_postnonlinear(cfg)
        manifest = {"kind": "pnl", **asdict(cfg)}
    else:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        joint = gen_discrete_joint(sizes, ci=args.ci, seed=args.seed)
        ds = sample_discrete(joint, args.n, seed=args.seed)
        manifest = {"kind": "discrete", "n": args.n, "sizes": list(sizes), "ci": args.ci, "seed": args.seed}
    write_dataset(ds, out, sidecar)
    manifest["csv"] = str(out)
    manifest["sidecar"] = str(sidecar)
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2))
    print(json.dumps(manifest, sort_keys=True, indent=2))
    print(f"wrote {ds.n_rows} rows to {out}", file=sys.stderr)
    return 0


def _sidecar_for(data_path: str, explicit: str | None):
    if explicit is not None:
        return explicit
    candidate = Path(data_path).with_suffix(Path(data_path).suffix + ".meta.json")
    return candidate if candidate.exists() else None


def _cmd_test(args) -> int:
    tester = _tester_from(args)
    ds = read_dataset(args.data, _sidecar_for(args.data, args.sidecar))
    report = ci_test(ds, tester)
    _emit(
        report.to_dict(),
        args,
        f"decision={report.decision} gap={report.gap:.4f} p={report.p_value:.4g} n_s={report.n_s}",
    )
    return 1 if report.decision == "H1" else 0


def _cmd_bench(args) -> int:
    cfg = BenchmarkConfig(
        n_h0=args.n_h0,
        n_h1=args.n_h1,
        n=args.n,
        d_z=args.d_z,
        a_xy=args.a_xy,
        tester=_tester_from(args),
        parallel=args.parallel,
    )
    report = run_benchmark(cfg)
    if args.scores_csv:
        write_scores_csv(report.rows, args.scores_csv)
    _emit(
        report.to_dict(),
        args,
        f"datasets={len(report.rows)} roc_auc={report.roc_auc}",
    )
    return 0


def _cmd_relations(args) -> int:
    tester = _tester_from(args)
    names, matrix, cols = read_table(args.data, _sidecar_for(args.data, args.sidecar))
    rels = read_relations(args.relations)
    report = run_relations(names, matrix, cols, rels, tester)
    if args.scores_csv:
        write_scores_csv(report.rows, args.scores_csv)
    _emit(
        report.to_dict(),
        args,
        f"relations={len(report.rows)} roc_auc={report.roc_auc}",
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(seed=args.seed)
    worst = {name: c["worst_slack"] for name, c in report["checks"].items()}
    _emit(report, args, f"all_pass={report['all_pass']} worst_slack={json.dumps(worst)}")
    return 0 if report["all_pass"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ciforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV (+sidecar+manifest)")
    p.add_argument("--kind", choices=["pnl", "discrete"], default="pnl")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d-z", type=int, default=5, dest="d_z")
    p.add_argument("--ci", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--a-xy", type=float, default=2.0, dest="a_xy")
    p.add_argument("--sizes", default="3,3,3", help="discrete alphabet sizes, e.g. 3,3,3")
    p.add_argument("--data-out", required=True, help="CSV output path")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed (default: %(default)s)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("test", help="run the CI test on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--sidecar", help="column-kind JSON (default: <data>.meta.json if present)")
    _add_tester_flags(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("bench", help="run an H0/H1 sweep and report ROC-AUC")
    p.add_argument("--n-h0", type=int, default=10, dest="n_h0")
    p.add_argument("--n-h1", type=int, default=10, dest="n_h1")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d-z", type=int, default=5, dest="d_z")
    p.add_argument("--a-xy", type=float, default=2.0, dest="a_xy")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--scores-csv", help="also write (dataset_id,label,p_value) CSV")
    _add_tester_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("relations", help="run the tester over a relation file")
    p.add_argument("--data", required=True, help="wide CSV of named columns")
    p.add_argument("--relations", required=True, help="CSV with X,Y,Z,label rows")
    p.add_argument("--sidecar")
    p.add_argument("--scores-csv")
    _add_tester_flags(p)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("verify", help="run the exact oracle property battery")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed (default: %(default)s)")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # exit 1 means "decided H1", so every failure is 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
