"""Command-line interface and reproduction harness.

Subcommands:

* ``vertex``  -- print a DT or PT vertex series for given legs.
* ``check``   -- run one of the paper-scale verifications (nekrasov, dtpt,
  localcurve, global) with a scriptable exit status.
* ``cache``   -- list / clear / stats of the vertex cache.

Exit status: 0 when the requested identity verified, 1 when it failed, 2 on
usage errors.  All output is exact; no floats are ever printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .cache import VertexCache, clear as clear_cache
from .partitions import PlanePartition, SolidPartition
from .ptconfig import TooManyLegs
from .signsearch import MissingSign, SignAssignment, check_dtpt, check_nekrasov
from .toric import (
    PRESETS,
    GeometryError,
    NoConsistentSigns,
    check_affine_implies_toric,
    load_geometry,
    local_curve_full_check,
)
from .vertexcalc import dt_vertex_series, pt_vertex_series


@dataclass
class RunConfig:
    """Validated run parameters of one CLI invocation."""

    command: str
    flavor: str = "dt"
    legs: tuple = ()
    order: int = 0
    sign_policy: str = "canonical"
    signs_file: str = ""
    geometry: str = ""
    beta: tuple = ()
    d_max: int = 0
    nn_max: int = 0
    cache_dir: str = ""
    use_cache: bool = False
    as_json: bool = False


def parse_legs(text):
    """Split "[[1]],[],[],[]" into four plane partitions."""
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        cur += ch
    parts.append(cur)
    if len(parts) != 4:
        raise ValueError(f"expected four legs, got {len(parts)}: {text!r}")
    return tuple(PlanePartition.parse(p.strip() or "[]") for p in parts)


def _load_signs(cfg, legs, cache):
    if cfg.sign_policy == "canonical":
        return SignAssignment.canonical()
    if cfg.sign_policy == "file":
        try:
            with open(cfg.signs_file, "r", encoding="utf-8") as fh:
                return SignAssignment.from_json(json.load(fh))
        except OSError as exc:
            raise ValueError(
                f"cannot read signs file {cfg.signs_file!r}: {exc.strerror}"
            ) from exc
    if cfg.sign_policy == "solve":
        # the series mod q^order has roots through q^(order - 1) only
        if all(pp.is_empty() for pp in legs):
            if cfg.flavor == "pt":
                # the empty PT vertex is 1 and reads no sign
                return SignAssignment.canonical()
            rep = check_nekrasov(cfg.order - 1, cache=cache)
        else:
            lowest = SolidPartition(legs).renormalized_volume()
            rep = check_dtpt(*legs, cfg.order - lowest, cache=cache)
        if not rep.ok:
            raise NoConsistentSigns("sign solving failed for the requested vertex")
        witness = rep.witness
        # PT keys may be absent for empty legs; default the rest to +1
        return SignAssignment(witness.mapping, default=1)
    raise ValueError(f"unknown sign policy {cfg.sign_policy!r}")


def _series_json(series, extra):
    data = dict(extra)
    data.update(series.to_json())
    return data


def cmd_vertex(cfg, out):
    cache = VertexCache(cfg.cache_dir or None) if cfg.use_cache else None
    legs = cfg.legs
    signs = _load_signs(cfg, legs, cache)
    fn = dt_vertex_series if cfg.flavor == "dt" else pt_vertex_series
    try:
        series = fn(*legs, cfg.order, signs=signs, cache=cache)
    except MissingSign as exc:
        raise ValueError(f"signs file has no sign for {exc.args[0]!r}") from None
    lowest = series.lowest_order
    normalized = series.shift(-lowest) if series.coeffs else series
    witness = {} if cfg.sign_policy == "canonical" else dict(signs.items())
    if cfg.as_json:
        out.write(
            json.dumps(
                _series_json(
                    series,
                    {
                        "flavor": cfg.flavor,
                        "legs": [pp.render() for pp in legs],
                        "N": cfg.order,
                        "lowest_order": lowest,
                        "signs_witness": witness,
                    },
                ),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    else:
        out.write(f"{cfg.flavor.upper()} vertex, legs {','.join(pp.render() for pp in legs)}\n")
        out.write(f"lowest order: q^{lowest}\n")
        out.write(f"series: {series.render()}\n")
        out.write(f"normalized: {normalized.render()}\n")
        if witness:
            out.write("signs witness:\n")
            for k, v in sorted(witness.items()):
                out.write(f"  {'+' if v > 0 else '-'} {k}\n")
    return 0


def _emit_report(report, cfg, out):
    if cfg.as_json:
        out.write(report.render_json() + "\n")
    else:
        out.write(report.to_text() + "\n")
    if report.ok:
        return 0
    bad = next((o for o in report.orders if o.n_solutions == 0), None)
    if bad is not None:
        out.write(f"counterexample order: {bad.order} (no consistent signs)\n")
        if bad.residual:
            out.write(f"residual (canonical signs): {bad.residual}\n")
    return 1


def _geometry_text(value):
    """A --geometry value whose name is a preset, as it is; any other value
    names a file in the ``ToricGeometry.render()`` grammar, read here."""
    if "\n" in value or value.strip().partition(":")[0] in PRESETS:
        return value
    try:
        with open(value, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GeometryError(
            f"geometry {value!r} is neither a preset nor a readable file: {exc.strerror}"
        ) from None


def cmd_check(cfg, out):
    cache = VertexCache(cfg.cache_dir or None) if cfg.use_cache else None
    if cfg.command == "nekrasov":
        return _emit_report(check_nekrasov(cfg.order, cache=cache), cfg, out)
    if cfg.command == "dtpt":
        report = check_dtpt(*cfg.legs, cfg.order, cache=cache)
        return _emit_report(report, cfg, out)
    if cfg.command == "localcurve":
        rep = local_curve_full_check(
            cfg.d_max, cfg.order, nn_max=cfg.nn_max or None, cache=cache
        )
        if cfg.as_json:
            out.write(json.dumps(rep, indent=2, sort_keys=True) + "\n")
        else:
            out.write(f"check localcurve: {'PASS' if rep['ok'] else 'FAIL'}\n")
            for r in rep["rows"]:
                out.write(
                    f"  P(n={r['n']},d={r['d']}) [{r['kind']}]: "
                    f"fixed points={r['fixed_points']} solutions={r['solutions']} "
                    f"{'ok' if r['ok'] else 'FAIL'}\n"
                )
            out.write(f"  closed-form bracket match: {rep['bracket_match']}\n")
            out.write(f"  corollary series match: {rep['corollary_match']}\n")
        return 0 if rep["ok"] else 1
    if cfg.command == "global":
        g = load_geometry(_geometry_text(cfg.geometry))
        rep = check_affine_implies_toric(g, cfg.beta, cfg.order, cache=cache)
        if cfg.as_json:
            out.write(json.dumps(rep, indent=2, sort_keys=True) + "\n")
        else:
            out.write(
                f"check global {rep['geometry']} beta={rep['beta']} "
                f"N={rep['N']}: {'PASS' if rep['ok'] else 'FAIL'}\n"
            )
            out.write(f"  I_beta orders: {[c['order'] for c in rep['Ibeta']['coefficients']]}\n")
            out.write(f"  P_beta orders: {[c['order'] for c in rep['Pbeta']['coefficients']]}\n")
            if not rep["ok"] and rep.get("mismatch"):
                out.write(
                    f"counterexample order: {rep['mismatch']['order']}\n"
                    f"residual: {rep['mismatch']['residual']}\n"
                )
        return 0 if rep["ok"] else 1
    raise ValueError(f"unknown check {cfg.command!r}")


def cmd_cache(action, cfg, out):
    if action == "clear":
        clear_cache(cfg.cache_dir or None)
        out.write("cache cleared\n")
        return 0
    cache = VertexCache(cfg.cache_dir or None)
    if action == "list":
        for key in cache.keys():
            out.write(key + "\n")
        return 0
    if action == "stats":
        stats = cache.stats()
        if cfg.as_json:
            out.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
        else:
            for k in ("directory", "entries"):
                out.write(f"{k}: {stats[k]}\n")
        return 0
    raise ValueError(f"unknown cache action {action!r}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="dt4vertex",
        description="Exact equivariant DT/PT vertex computations on toric "
        "Calabi-Yau 4-folds.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("vertex", help="print a DT or PT vertex series")
    v.add_argument("--flavor", choices=("dt", "pt"), required=True)
    v.add_argument("--legs", required=True, help='e.g. "[[1]],[],[],[]"')
    v.add_argument("--order", type=int, required=True, help="truncation order N")
    v.add_argument("--sign-policy", choices=("canonical", "solve", "file"),
                   default="canonical")
    v.add_argument("--signs-file", default="")
    v.add_argument("--cache-dir", default="")
    v.add_argument("--use-cache", action="store_true")
    v.add_argument("--no-cache", action="store_true",
                   help="do not use the cache, even with --use-cache")
    v.add_argument("--json", action="store_true")
    v.add_argument("--output", default="", help="also write the report to a file")

    c = sub.add_parser("check", help="run a verification")
    csub = c.add_subparsers(dest="target", required=True)
    nk = csub.add_parser("nekrasov")
    nk.add_argument("--order", type=int, required=True)
    dp = csub.add_parser("dtpt")
    dp.add_argument("--legs", required=True)
    dp.add_argument("--order", type=int, required=True)
    lc = csub.add_parser("localcurve")
    lc.add_argument("--dmax", type=int, required=True)
    lc.add_argument("--order", type=int, required=True)
    lc.add_argument("--nnmax", type=int, default=0)
    gl = csub.add_parser("global")
    gl.add_argument("--geometry", required=True)
    gl.add_argument("--beta", required=True, help='e.g. "1" or "1,0"')
    gl.add_argument("--order", type=int, required=True)
    for sp in (nk, dp, lc, gl):
        sp.add_argument("--cache-dir", default="")
        sp.add_argument("--use-cache", action="store_true")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--output", default="", help="also write the report to a file")

    ca = sub.add_parser("cache", help="cache maintenance")
    ca.add_argument("action", choices=("list", "clear", "stats"))
    ca.add_argument("--cache-dir", default="")
    ca.add_argument("--json", action="store_true")
    return p


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    output_path = getattr(args, "output", "")
    if not output_path:
        return _dispatch(args, out)
    import io as _io

    buf = _io.StringIO()
    rc = _dispatch(args, buf)
    try:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        out.write(f"error: cannot write output file {output_path!r}: {exc.strerror}\n")
        return 2
    out.write(buf.getvalue())
    return rc


def _dispatch(args, out):
    try:
        if args.command == "vertex":
            cfg = RunConfig(
                command="vertex",
                flavor=args.flavor,
                legs=parse_legs(args.legs),
                order=args.order,
                sign_policy=args.sign_policy,
                signs_file=args.signs_file,
                cache_dir=args.cache_dir,
                use_cache=args.use_cache and not args.no_cache,
                as_json=args.json,
            )
            if cfg.order < 1:
                raise ValueError("order must be >= 1")
            if cfg.flavor == "pt":
                nonempty = sum(1 for pp in cfg.legs if not pp.is_empty())
                if nonempty > 2:
                    raise TooManyLegs(f"{nonempty} non-empty legs")
            return cmd_vertex(cfg, out)
        if args.command == "check":
            cfg = RunConfig(
                command=args.target,
                legs=parse_legs(args.legs) if args.target == "dtpt" else (),
                order=args.order,
                geometry=getattr(args, "geometry", ""),
                beta=tuple(
                    int(x) for x in getattr(args, "beta", "").split(",") if x.strip()
                ),
                d_max=getattr(args, "dmax", 0),
                nn_max=getattr(args, "nnmax", 0),
                cache_dir=args.cache_dir,
                use_cache=args.use_cache,
                as_json=args.json,
            )
            if args.target in ("global", "localcurve") and cfg.order < 1:
                raise ValueError("order must be >= 1")
            if any(b < 0 for b in cfg.beta):
                raise ValueError("beta components must be >= 0")
            if cfg.d_max < 0:
                raise ValueError("dmax must be >= 0")
            if cfg.nn_max < 0:
                raise ValueError("nnmax must be >= 0")
            if args.target == "localcurve" and max(cfg.d_max, cfg.nn_max) < 1:
                raise ValueError("dmax or nnmax must be >= 1")
            return cmd_check(cfg, out)
        if args.command == "cache":
            cfg = RunConfig(
                command="cache", cache_dir=args.cache_dir, as_json=args.json
            )
            return cmd_cache(args.action, cfg, out)
    except (TooManyLegs, GeometryError, NoConsistentSigns, ValueError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
