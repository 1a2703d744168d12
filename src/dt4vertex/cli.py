"""Command-line interface and reproduction harness.

Subcommands:

* ``vertex``  -- print a DT or PT vertex series for given legs.
* ``check``   -- run one of the paper-scale verifications (nekrasov, dtpt,
  localcurve, global) with a scriptable exit status.
* ``cache``   -- list / clear / stats of the vertex cache.

The argparse tree is built once per process and is the only dispatcher:
each leaf parser sets ``run`` to its command, ``main`` calls
``args.run(args, out)``, and the namespace is the only record of a run's
parameters.  Each command validates its own arguments before it
enumerates or solves anything.

Exit status: 0 when the requested identity verified, 1 when it failed, 2 on
usage errors.  A sign solve with no consistent solution is a failure: the
command prints one ``FAIL: <reason>`` line and exits 1.  All output is
exact; no floats are ever printed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

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


def parse_beta(text):
    """Read "1,0" as the components of a curve class, JSON integers
    separated by commas; an empty or non-integer component is a ValueError
    naming the flag."""
    try:
        beta = json.loads(f"[{text}]")
    except ValueError:
        beta = None
    if not beta or not all(type(b) is int for b in beta):
        raise ValueError(f"--beta {text!r}: expected comma-separated integers")
    return tuple(beta)


def _cache(args):
    return VertexCache(args.cache_dir or None) if args.use_cache else None


def _load_signs(args, legs, cache):
    if args.sign_policy == "canonical":
        return SignAssignment.canonical()
    if args.sign_policy == "file":
        try:
            with open(args.signs_file, "r", encoding="utf-8") as fh:
                return SignAssignment.from_json(json.load(fh))
        except OSError as exc:
            raise ValueError(
                f"cannot read signs file {args.signs_file!r}: {exc.strerror}"
            ) from exc
    # solve: the series mod q^order has roots through q^(order - 1) only
    if all(pp.is_empty() for pp in legs):
        if args.flavor == "pt":
            # the empty PT vertex is 1 and reads no sign
            return SignAssignment.canonical()
        rep = check_nekrasov(args.order - 1, cache=cache)
    else:
        lowest = SolidPartition(legs).renormalized_volume()
        rep = check_dtpt(*legs, args.order - lowest, cache=cache)
    if not rep.ok:
        raise NoConsistentSigns("sign solving failed for the requested vertex")
    # PT keys may be absent for empty legs; default the rest to +1
    return SignAssignment(rep.witness.mapping, default=1)


def cmd_vertex(args, out):
    legs = parse_legs(args.legs)
    if args.order < 1:
        raise ValueError("order must be >= 1")
    if args.flavor == "pt":
        nonempty = sum(1 for pp in legs if not pp.is_empty())
        if nonempty > 2:
            raise TooManyLegs(f"{nonempty} non-empty legs")
    cache = None if args.no_cache else _cache(args)
    signs = _load_signs(args, legs, cache)
    fn = dt_vertex_series if args.flavor == "dt" else pt_vertex_series
    try:
        series = fn(*legs, args.order, signs=signs, cache=cache)
    except MissingSign as exc:
        raise ValueError(f"signs file has no sign for {exc.args[0]!r}") from None
    lowest = series.lowest_order
    witness = {} if args.sign_policy == "canonical" else dict(signs.items())
    if args.json:
        # the document is a temporary of this call, freed before the write
        out.write(json.dumps(
            {"flavor": args.flavor, "legs": [pp.render() for pp in legs], "N": args.order,
             "lowest_order": lowest, "signs_witness": witness, **series.to_json()},
            indent=2, sort_keys=True) + "\n")
        return 0
    normalized = series.shift(-lowest) if series.coeffs else series
    out.write(f"{args.flavor.upper()} vertex, legs {','.join(pp.render() for pp in legs)}\n")
    out.write(f"lowest order: q^{lowest}\n")
    out.write(f"series: {series.render()}\n")
    out.write(f"normalized: {normalized.render()}\n")
    if witness:
        out.write("signs witness:\n")
        for k, v in sorted(witness.items()):
            out.write(f"  {'+' if v > 0 else '-'} {k}\n")
    return 0


def _emit_report(report, args, out):
    out.write((report.render_json() if args.json else report.to_text()) + "\n")
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


def cmd_nekrasov(args, out):
    return _emit_report(check_nekrasov(args.order, cache=_cache(args)), args, out)


def cmd_dtpt(args, out):
    legs = parse_legs(args.legs)
    return _emit_report(check_dtpt(*legs, args.order, cache=_cache(args)), args, out)


def cmd_localcurve(args, out):
    if args.order < 1:
        raise ValueError("order must be >= 1")
    if args.dmax < 0:
        raise ValueError("dmax must be >= 0")
    if args.nnmax < 0:
        raise ValueError("nnmax must be >= 0")
    if max(args.dmax, args.nnmax) < 1:
        raise ValueError("dmax or nnmax must be >= 1")
    rep = local_curve_full_check(
        args.dmax, args.order, nn_max=args.nnmax or None, cache=_cache(args)
    )
    if args.json:
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


def cmd_global(args, out):
    beta = parse_beta(args.beta)
    if args.order < 1:
        raise ValueError("order must be >= 1")
    if any(b < 0 for b in beta):
        raise ValueError("beta components must be >= 0")
    cache = _cache(args)
    g = load_geometry(_geometry_text(args.geometry))
    rep = check_affine_implies_toric(g, beta, args.order, cache=cache)
    if args.json:
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


def cmd_cache(args, out):
    if args.action == "clear":
        clear_cache(args.cache_dir or None)
        out.write("cache cleared\n")
        return 0
    cache = VertexCache(args.cache_dir or None)
    if args.action == "list":
        if args.json:
            out.write(json.dumps(cache.keys(), indent=2) + "\n")
        else:
            for key in cache.keys():
                out.write(key + "\n")
    elif args.json:
        out.write(json.dumps(cache.stats(), indent=2, sort_keys=True) + "\n")
    else:
        stats = cache.stats()
        for k in ("directory", "entries"):
            out.write(f"{k}: {stats[k]}\n")
    return 0


@functools.cache
def build_parser():
    """The argparse tree, built on first use and kept for the process."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--cache-dir", default="")
    shared.add_argument("--use-cache", action="store_true")
    shared.add_argument("--json", action="store_true")
    shared.add_argument("--output", default="", help="also write the report to a file")

    def leaf(subparsers, name, run, **kwargs):
        sp = subparsers.add_parser(name, parents=[shared], **kwargs)
        sp.set_defaults(run=run)
        return sp

    p = argparse.ArgumentParser(
        prog="dt4vertex",
        description="Exact equivariant DT/PT vertex computations on toric "
        "Calabi-Yau 4-folds.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = leaf(sub, "vertex", cmd_vertex, help="print a DT or PT vertex series")
    v.add_argument("--flavor", choices=("dt", "pt"), required=True)
    v.add_argument("--legs", required=True, help='e.g. "[[1]],[],[],[]"')
    v.add_argument("--order", type=int, required=True, help="truncation order N")
    v.add_argument("--sign-policy", choices=("canonical", "solve", "file"),
                   default="canonical")
    v.add_argument("--signs-file", default="")
    v.add_argument("--no-cache", action="store_true",
                   help="do not use the cache, even with --use-cache")

    c = sub.add_parser("check", help="run a verification")
    csub = c.add_subparsers(dest="target", required=True)
    leaf(csub, "nekrasov", cmd_nekrasov).add_argument("--order", type=int, required=True)
    dp = leaf(csub, "dtpt", cmd_dtpt)
    dp.add_argument("--legs", required=True)
    dp.add_argument("--order", type=int, required=True)
    lc = leaf(csub, "localcurve", cmd_localcurve)
    lc.add_argument("--dmax", type=int, required=True)
    lc.add_argument("--order", type=int, required=True)
    lc.add_argument("--nnmax", type=int, default=0)
    gl = leaf(csub, "global", cmd_global)
    gl.add_argument("--geometry", required=True)
    gl.add_argument("--beta", required=True, help='e.g. "1" or "1,0"')
    gl.add_argument("--order", type=int, required=True)

    ca = sub.add_parser("cache", help="cache maintenance")
    ca.set_defaults(run=cmd_cache, output="")
    ca.add_argument("action", choices=("list", "clear", "stats"))
    ca.add_argument("--cache-dir", default="")
    ca.add_argument("--json", action="store_true")
    return p


def main(argv=None, out=None):
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    dest = io.StringIO() if args.output else out
    try:
        rc = args.run(args, dest)
    except NoConsistentSigns as exc:
        dest.write(f"FAIL: {exc}\n")
        rc = 1
    except (TooManyLegs, GeometryError, ValueError) as exc:
        dest.write(f"error: {exc}\n")
        rc = 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dest.getvalue())
        except OSError as exc:
            out.write(f"error: cannot write output file {args.output!r}: {exc.strerror}\n")
            return 2
        out.write(dest.getvalue())
    return rc


if __name__ == "__main__":
    sys.exit(main())
