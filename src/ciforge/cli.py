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
import os
import sys
from dataclasses import fields
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
from .mimic import MimicConfig
from .nn import MlpConfig
from .oracle import run_verify
from .testkit import TestConfig, ci_test

SEED_ENV = "CIFORGE_SEED"


def _resolve_seed(args, file_cfg: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in file_cfg:
        return int(file_cfg["seed"])
    tester = file_cfg.get("tester")
    if isinstance(tester, dict) and "seed" in tester:
        return int(tester["seed"])
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise CiforgeError("--config must hold a JSON object")
    return cfg


# Config fields that are themselves config objects, built from nested JSON.
_NESTED = {
    TestConfig: {"mimic_config": MimicConfig, "gbt": GbtConfig},
    MimicConfig: {"mlp": MlpConfig},
}


def _config_kwargs(cls, given, where: str) -> dict:
    """Keyword arguments for the config class ``cls`` from a JSON object."""
    if not isinstance(given, dict):
        raise CiforgeError(f"'{where}' in --config must be an object")
    unknown = sorted(set(given) - {f.name for f in fields(cls)})
    if unknown:
        raise CiforgeError(f"unknown key(s) under '{where}' in --config: {', '.join(unknown)}")
    # Sequence fields (tvs, widths) are tuples; JSON only has lists.
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in given.items()}
    for key, sub in _NESTED.get(cls, {}).items():
        if key in kwargs:
            kwargs[key] = sub(**_config_kwargs(sub, kwargs[key], f"{where}.{key}"))
    return kwargs


def _tester_from(args, file_cfg: dict) -> TestConfig:
    kwargs = _config_kwargs(TestConfig, file_cfg.get("tester", {}), "tester")
    if getattr(args, "tau", None) is not None:
        kwargs["tau"] = args.tau
        kwargs.setdefault("alpha", None)
    if getattr(args, "alpha", None) is not None:
        kwargs["alpha"] = args.alpha
    kwargs["seed"] = _resolve_seed(args, file_cfg)
    return TestConfig(**kwargs)


def _emit(payload: dict, args, summary: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    out = getattr(args, "out", None)
    if out is not None:
        Path(out).write_text(text + "\n")
    print(summary, file=sys.stderr)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help=f"master seed (default: ${SEED_ENV} or {DEFAULT_SEED})")
    p.add_argument("--out", help="also write the JSON report to this path")


def _add_tester_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="significance level (sets the threshold)")
    p.add_argument("--tau", type=float, help="raw decision threshold (overrides alpha)")


def _cmd_gen(args) -> int:
    file_cfg = _load_config(args)
    seed = _resolve_seed(args, file_cfg)
    out = Path(args.data_out)
    sidecar = out.with_suffix(out.suffix + ".meta.json")
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    if args.kind == "pnl":
        cfg = PostNonlinearConfig(
            d_z=args.d_z, n=args.n, ci=args.ci, a_xy=args.a_xy, noise_var=args.noise_var, seed=seed
        )
        ds = gen_postnonlinear(cfg)
        manifest = {
            "kind": "pnl",
            "n": args.n,
            "d_z": args.d_z,
            "ci": args.ci,
            "a_xy": args.a_xy,
            "noise_var": args.noise_var,
            "seed": seed,
        }
    else:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        joint = gen_discrete_joint(sizes, ci=args.ci, seed=seed)
        ds = sample_discrete(joint, args.n, seed=seed)
        manifest = {"kind": "discrete", "n": args.n, "sizes": list(sizes), "ci": args.ci, "seed": seed}
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
    file_cfg = _load_config(args)
    tester = _tester_from(args, file_cfg)
    ds = read_dataset(args.data, _sidecar_for(args.data, args.sidecar))
    report = ci_test(ds, tester)
    _emit(
        report.to_dict(),
        args,
        f"decision={report.decision} gap={report.gap:.4f} p={report.p_value:.4g} n_s={report.n_s}",
    )
    return 1 if report.decision == "H1" else 0


def _cmd_bench(args) -> int:
    file_cfg = _load_config(args)
    tester = _tester_from(args, file_cfg)
    seed = _resolve_seed(args, file_cfg)
    cfg = BenchmarkConfig(
        n_h0=args.n_h0 if args.n_h0 is not None else int(file_cfg.get("n_h0", 10)),
        n_h1=args.n_h1 if args.n_h1 is not None else int(file_cfg.get("n_h1", 10)),
        n=args.n if args.n is not None else int(file_cfg.get("n", 1000)),
        d_z=args.d_z if args.d_z is not None else int(file_cfg.get("d_z", 5)),
        a_xy=float(file_cfg.get("a_xy", 2.0)),
        noise_var=float(file_cfg.get("noise_var", 0.25)),
        tester=tester,
        seed=seed,
        parallel=args.parallel,
    )
    report = run_benchmark(cfg)
    if args.scores_csv:
        write_scores_csv(report, args.scores_csv)
    _emit(
        report.to_dict(),
        args,
        f"datasets={len(report.rows)} roc_auc={report.roc_auc}",
    )
    return 0


def _cmd_relations(args) -> int:
    file_cfg = _load_config(args)
    tester = _tester_from(args, file_cfg)
    seed = _resolve_seed(args, file_cfg)
    names, matrix, cols = read_table(args.data, _sidecar_for(args.data, args.sidecar))
    rels = read_relations(args.relations)
    report = run_relations(names, matrix, cols, rels, tester, seed=seed)
    if args.scores_csv:
        write_scores_csv(report, args.scores_csv)
    _emit(
        report.to_dict(),
        args,
        f"relations={len(report.rows)} roc_auc={report.roc_auc}",
    )
    return 0


def _cmd_verify(args) -> int:
    file_cfg = _load_config(args)
    seed = _resolve_seed(args, file_cfg)
    report = run_verify(
        seed=seed,
        n_gap_joints=args.joints,
        n_ci=args.ci_joints,
        n_dep=args.ci_joints,
        n_pairs=args.pairs,
    )
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
    p.add_argument("--noise-var", type=float, default=0.25, dest="noise_var")
    p.add_argument("--sizes", default="3,3,3", help="discrete alphabet sizes, e.g. 3,3,3")
    p.add_argument("--data-out", required=True, help="CSV output path")
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("test", help="run the CI test on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--sidecar", help="column-kind JSON (default: <data>.meta.json if present)")
    _add_tester_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("bench", help="run an H0/H1 sweep and report ROC-AUC")
    p.add_argument("--n-h0", type=int, dest="n_h0")
    p.add_argument("--n-h1", type=int, dest="n_h1")
    p.add_argument("--n", type=int)
    p.add_argument("--d-z", type=int, dest="d_z")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--scores-csv", help="also write (dataset_id,label,p_value) CSV")
    _add_tester_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("relations", help="run the tester over a relation file")
    p.add_argument("--data", required=True, help="wide CSV of named columns")
    p.add_argument("--relations", required=True, help="CSV with X,Y,Z,label rows")
    p.add_argument("--sidecar")
    p.add_argument("--scores-csv")
    _add_tester_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("verify", help="run the exact oracle property battery")
    p.add_argument("--joints", type=int, default=500, help="random joints for the bound checks")
    p.add_argument("--ci-joints", type=int, default=100, dest="ci_joints")
    p.add_argument("--pairs", type=int, default=1000, help="random pmf pairs for identity checks")
    _add_common(p)
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
