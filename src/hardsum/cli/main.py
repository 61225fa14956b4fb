"""Command-line front end: ``hardsum gen | run | verify``.

gen     compute instance scalings, write the spec JSON (and basis binary
        for randomized modes); exit 2 with a minimal-gap hint if the
        requested accuracy/gap combination yields an empty chain.
run     build the instance, run an optimizer against the metered oracle,
        stream one JSON object per iteration (JSONL) plus a final summary
        object; deterministic given (config, seed).
verify  run the property-check battery; exit 1 if any check fails.

Flags --seed/--out/--budget override the config file (verify, which
charges no query, takes no --budget).  A multi-seed run
executes its seeds one after another in the order given, so its echo and its
per-seed files are deterministic.  Unusable input (a bad config or override,
a bad seed list, a gap too small for any chain, or a value the library
refuses) exits 2 with an ``error:`` line on stderr and writes nothing.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys

import numpy as np

from ..instances import (InstanceTooSmallError, ResistingOracle,
                         deterministic_params, randomized_params,
                         sample_randomized_instance, save_b_matrix)
from ..oracle import OracleLedger, quadratic_cosine_sum
from ..optim import (C_M, baseline_full_cubic, baseline_full_gd,
                     svrc_default_params, svrc_run)
from ..verify import estimate_smoothness, run_battery
from .config import RunConfig

__all__ = ["main", "cmd_gen", "cmd_run", "cmd_verify"]


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _make_spec(cfg: RunConfig):
    if cfg.mode == "deterministic":
        return deterministic_params(cfg.p, cfg.n, cfg.delta, cfg.L, cfg.eps,
                                    budget=cfg.budget)
    return randomized_params(cfg.mode, cfg.p, cfg.n, cfg.delta, cfg.L,
                             cfg.eps, ell_hat=cfg.ell_hat, d=cfg.d)


def cmd_gen(cfg: RunConfig, quiet: bool = False) -> int:
    out_dir = cfg.out or "."
    if cfg.mode == "synthetic":
        spec = None
        payload = {"mode": "synthetic", "n": cfg.n, "d": cfg.d or 8,
                   "seed": cfg.seed, "curvature": cfg.curvature,
                   "ripple": cfg.ripple}
    else:
        spec = _make_spec(cfg)
        payload = spec.to_dict() | {"seed": cfg.seed}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "instance.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files = [path]
    if spec is not None:
        if cfg.mode == "deterministic":
            _say(quiet, f"K+1 = {spec.K + 1}")
        else:
            inst = sample_randomized_instance(spec, seed=cfg.seed,
                                              haar_c=cfg.haar_c)
            files.append(os.path.join(out_dir, "b_matrix.bin"))
            save_b_matrix(files[-1], inst.B, spec.n, spec.K)
            _say(quiet, f"K = {spec.K}")
        _say(quiet, f"lambda = {spec.lam:.6g}  sigma = {spec.sigma:.6g}  "
                    f"d = {spec.d}")
        if spec.d_required is not None:
            _say(quiet, f"d_required (high-probability regime) = "
                        f"{spec.d_required:.6g}")
            if spec.d < spec.d_required:
                _say(quiet, "warning: d is below the high-probability "
                            "threshold; the instance is valid but the "
                            "probabilistic guarantee does not apply")
    _say(quiet, "wrote " + ", ".join(files))
    return 0


def _build_objective(cfg: RunConfig):
    """Instance plus the smoothness constant the optimizer should assume."""
    if cfg.mode == "synthetic":
        F = quadratic_cosine_sum(cfg.n, cfg.d or 8, seed=cfg.seed,
                                 curvature=cfg.curvature, ripple=cfg.ripple)
        L2 = cfg.L2
        if L2 is None:
            L2 = max(1.5 * estimate_smoothness(F, "individual", 60,
                                               seed=cfg.seed).constant, 1e-12)
        return F, None, L2
    spec = _make_spec(cfg)
    if cfg.mode == "deterministic":
        F = ResistingOracle(spec, seed=cfg.seed)
    else:
        F = sample_randomized_instance(spec, seed=cfg.seed,
                                       haar_c=cfg.haar_c)
    # the construction targets smoothness level L; use it unless overridden
    return F, spec, (cfg.L2 if cfg.L2 is not None else cfg.L)


def _row(idx: int, rec) -> dict:
    c = rec.counters
    return {
        "iter": idx, "epoch": rec.epoch, "step": rec.step, "f": rec.f,
        "grad_norm": rec.grad_norm, "mu": rec.mu, "h_norm": rec.h_norm,
        "q_val": c["value"], "q_grad": c["grad"], "q_hess": c["hess"],
    }


def _run_one(cfg: RunConfig, quiet: bool) -> str:
    """One seed's run: its JSONL text (rows, then the summary)."""
    F, spec, L2 = _build_objective(cfg)
    ledger = OracleLedger(n=F.n, eps=cfg.eps)
    if cfg.budget is not None:
        budget = cfg.budget
    elif spec is not None and cfg.mode == "deterministic":
        # the game length the adversary's dimension was sized for
        budget = spec.d - spec.K - 1
    else:
        budget = 50 * F.n

    if cfg.optimizer == "svrc":
        delta_hat = cfg.delta_hat if cfg.delta_hat is not None else cfg.delta
        params = svrc_default_params(F.n, F.d, delta_hat, L2, cfg.eps,
                                     seed=cfg.seed)
        overrides = {k: getattr(cfg, k) for k in ("M", "b_g", "b_h", "S", "T")
                     if getattr(cfg, k) is not None}
        if cfg.full_batch:
            overrides["full_batch"] = True
        if overrides:
            params = dataclasses.replace(params, **overrides)
        # the theory schedule grows like eps^(-3/2) with a huge constant;
        # announce the commitment up front so runaway runs are visible
        b_g, b_h = params.batch_sizes(F.n)
        raw_cost = params.S * (F.n + params.T * params.step_cost(F.n))
        _say(quiet, f"seed {cfg.seed}: svrc schedule S={params.S} "
                    f"T={params.T} b_g={b_g} b_h={b_h} "
                    f"M={params.M:g}; raw query cost {raw_cost}"
                    + (f" (budget {cfg.budget})" if cfg.budget else ""))
        _, trajectory = svrc_run(F, params, ledger=ledger, budget=cfg.budget)
    elif cfg.optimizer == "gd":
        trajectory = baseline_full_gd(F, cfg.step, budget, ledger=ledger,
                                      L2=L2)
    else:
        M = cfg.M if cfg.M is not None else C_M * L2
        trajectory = baseline_full_cubic(F, M, budget, ledger=ledger, L2=L2)

    lines = [json.dumps(_row(i, rec)) for i, rec in enumerate(trajectory)]
    summary = {
        "mode": cfg.mode, "optimizer": cfg.optimizer, "seed": cfg.seed,
        "n": F.n, "d": F.d, "eps": cfg.eps,
        "first_hit": ledger.first_hit,
        "first_hit_queries": ledger.first_hit_queries,
        "totals": ledger.counters(),
    }
    if trajectory:
        summary["final_f"] = trajectory[-1].f
        summary["final_grad_norm"] = trajectory[-1].grad_norm
    if isinstance(F, ResistingOracle):
        F.finalize()
        cert = F.certificate()
        summary["certificate"] = cert.to_dict()
        final_hit = None
        for t, g in enumerate(cert.grad_norms):
            if g <= cfg.eps:
                final_hit = t
                break
        # against the finalized objective, not the in-play responses
        summary["final_first_hit"] = final_hit
    lines.append(json.dumps({"summary": summary}))

    hit = summary.get("final_first_hit", ledger.first_hit)
    _say(quiet, f"seed {cfg.seed}: {len(trajectory)} iterations, "
                f"{ledger.total} queries "
                f"({ledger.adjusted_total} adjusted), first-hit: {hit}")
    return "\n".join(lines) + "\n"


def _seed_out_path(base: str, seed: int) -> str:
    root, ext = os.path.splitext(base)
    return f"{root}.seed{seed}{ext or '.jsonl'}"


def _parse_seeds(text: str | None) -> list[int] | None:
    if not text:
        return None
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError(
            f"--seeds must be comma-separated integers, got {text!r}") from None


def cmd_run(cfg: RunConfig, quiet: bool = False,
            seeds: list[int] | None = None) -> int:
    """Run ``seeds`` (default: the config's one seed) in the order given;
    nothing is written until every seed has run.  Several seeds write one
    ``<out>.seedN.jsonl`` each, one seed writes ``--out`` or stdout."""
    seeds = seeds or [cfg.seed]
    if len(seeds) > 1 and not cfg.out:
        print("error: multi-seed runs require --out", file=sys.stderr)
        return 2
    texts = [_run_one(dataclasses.replace(cfg, seed=s), quiet) for s in seeds]
    if not cfg.out:
        sys.stdout.write(texts[0])
        return 0
    for s, text in zip(seeds, texts):
        path = cfg.out if len(seeds) == 1 else _seed_out_path(cfg.out, s)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_verify(cfg: RunConfig, quiet: bool = False) -> int:
    checks = run_battery(num_points=cfg.num_points,
                         zero_chain_samples=cfg.zero_chain_samples,
                         pairs=cfg.pairs, trials=cfg.trials,
                         starts=cfg.starts, seed=cfg.seed)
    width = max(len(c.name) for c in checks)
    for c in checks:
        _say(quiet, f"{c.name:<{width}}  {c.status}")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump([c.to_dict() for c in checks], fh, indent=2)
            fh.write("\n")
    failed = [c for c in checks if c.status == "failed"]
    if failed:
        for c in failed:
            print(f"FAILED: {c.name}", file=sys.stderr)
            print(json.dumps(c.details, indent=2, default=str),
                  file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardsum",
        description="hard finite-sum instances, metered oracles, SVRC")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("gen", "generate an instance"),
                      ("run", "run an optimizer against the oracle"),
                      ("verify", "run the property-check battery")):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", help="INI config path")
        sp.add_argument("--seed", type=int, help="override [optimizer] seed")
        sp.add_argument("--out", help="output path (file for run/verify, "
                                      "directory for gen)")
        if name != "verify":
            sp.add_argument("--budget", type=int,
                            help="query budget override")
        sp.add_argument("--quiet", action="store_true")
        if name == "run":
            sp.add_argument("--seeds", help="comma-separated seed list; "
                            "runs them one after another in the order given")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        # the flags pass the same checks as the file's keys
        cfg = dataclasses.replace(cfg, **{
            k: getattr(args, k) for k in ("seed", "out", "budget")
            if getattr(args, k, None) is not None})
    except (OSError, ValueError, TypeError, configparser.Error) as err:
        print(f"error: bad config: {err}", file=sys.stderr)
        return 2

    if args.command == "run":
        try:
            seeds = _parse_seeds(args.seeds)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    try:
        if args.command == "gen":
            return cmd_gen(cfg, quiet=args.quiet)
        if args.command == "run":
            return cmd_run(cfg, quiet=args.quiet, seeds=seeds)
        return cmd_verify(cfg, quiet=args.quiet)
    except InstanceTooSmallError as err:
        print(f"error: {err}", file=sys.stderr)
        print(f"hint: increase the gap to at least {err.min_delta:.6g} "
              "(or relax eps)", file=sys.stderr)
        return 2
    except ValueError as err:    # a library refusal of the config's values
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
