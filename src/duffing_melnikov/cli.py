"""Command-line surface: coefficient tables, verification, zero counts, flow oracle.

Subcommands
-----------
coeffs   closed-form Melnikov coefficient tables for one parameter set, with
         the vanishing residuals and a quadrature agreement column
verify   structural checks of the period integrals: system-matrix residuals
         on level grids, moment reductions, Picard-Fuchs transport against
         quadrature, linearity of the odd moment, saddle and large-h
         asymptotics, nonvanishing over the cut disc, and the
         boundary-value Wronskian jump
zeros    argument-principle zero certificates for one parameter set or a
         seeded census of random draws
oracle   displacement fits from direct integration of the perturbed flow,
         tabulated against the closed forms with their fit sigmas; each --out
         row also lists its per-rung displacements [eps, d]
eval     point evaluation of the periods and the Melnikov functions

Every run prints its resolved configuration as a single '# config' comment
line (keys sorted, no timestamps).  With --out the records additionally go
to PATH as one JSON object per line, with a PATH.config.json sibling, so a
repeated run with the same configuration produces byte-identical files.

Exit codes: 0 success, 2 usage or input error, 3 a tolerance or bound check
failed, 4 a numerical method failed to converge, 141 the output pipe closed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from functools import lru_cache

import numpy as np

from .geometry import Annulus
from .quadrature import AccuracyError
from . import checks
from .abelian import PathError, PoleError, closed_form
from .melnikov import (
    PerturbationParams,
    enforce_m1_zero,
    m1_form,
    m1_quadrature,
    m1_vanishes,
    m1_vanishing_residuals,
    m2_form,
    m2_iliev_quadrature,
    m_eval,
)
from .oracle import DEFAULT_EPS_LIST, EscapeError, checked_eps_ladder, melnikov_fit
from .zeros import Status, bound_census, certify

# default comparison levels for table-producing commands, chosen mid-annulus
# away from both critical levels
_DEFAULT_H = {
    Annulus.INTERIOR_LEFT: (-0.22, -0.125, -0.05),
    Annulus.INTERIOR_RIGHT: (-0.22, -0.125, -0.05),
    Annulus.EXTERIOR: (0.4, 1.0, 2.5),
}


# ---------------------------------------------------------------------------
# argument parsing and plumbing
# ---------------------------------------------------------------------------


def _parse_contour(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--contour expects R,ETA,RHO, got {text!r}")
    values = tuple(float(p) for p in parts)
    for name, v in zip(("radius R", "cut offset eta", "puncture radius rho"), values):
        if not np.isfinite(v):  # the config line would print it as non-JSON
            raise ValueError(f"contour {name} must be finite, got {v}")
    return values  # type: ignore[return-value]


def _draw_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def _parse_h_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ValueError(f"--h-grid expects LO:HI:N or LO:HI:N:log, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    for end in (end for end in parts[:2] if not np.isfinite(float(end))):
        raise ValueError(f"--h-grid endpoint {end!r} is not finite")
    if n < 1:
        raise ValueError("--h-grid needs at least one point")
    if len(parts) == 4:
        if lo * hi <= 0.0:
            raise ValueError("logarithmic --h-grid endpoints must share a sign")
        sign = 1.0 if lo > 0 else -1.0
        return (sign * np.geomspace(abs(lo), abs(hi), n)).tolist()
    return np.linspace(lo, hi, n).tolist()


def _load_params(path: str | None) -> PerturbationParams:
    if path is None:
        return PerturbationParams.zero()
    return PerturbationParams.from_json(pathlib.Path(path).read_text())


def _resolve_params(args, annulus: Annulus) -> tuple[PerturbationParams, dict]:
    """Parameter set from --params, or a uniform draw from --seed, or zeros.

    An --order 2 draw is projected onto M_1 = 0 on the annulus, since the
    second-order function is defined only there.
    """
    if args.params is not None:
        if args.seed is not None:
            raise ValueError("--params and --seed each choose the parameters; give only one")
        return _load_params(args.params), {"params_file": args.params}
    if args.seed is not None:
        params = PerturbationParams.uniform(np.random.default_rng(args.seed))
        if getattr(args, "order", None) == 2:
            return (enforce_m1_zero(params, annulus),
                    {"constrained": True, "draw": "uniform", "seed": args.seed})
        return params, {"draw": "uniform", "seed": args.seed}
    return PerturbationParams.zero(), {}


def _gather_h(args, annulus: Annulus) -> list[float]:
    hs: list[float] = []
    if args.h:
        hs.extend(args.h)
    if args.h_grid:
        hs.extend(_parse_h_grid(args.h_grid))
    if not hs:
        hs = list(_DEFAULT_H[annulus])
    for h in hs:
        annulus.require(h)
    return hs


def _print_config(config: dict) -> None:
    print("# config " + json.dumps(config, sort_keys=True, allow_nan=False))


def _emit(args, config: dict, records: list[dict]) -> None:
    if args.out is None:
        return
    # every record is serialized before the file opens: a non-finite value writes no file
    text = "".join(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n" for rec in records)
    path = pathlib.Path(args.out)
    path.write_text(text)
    sidecar = path.with_name(path.name + ".config.json")
    sidecar.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")


def _fmt(x: float) -> str:
    return f"{x: .12e}"


def _table_line(header: list[str], row: dict) -> str:
    """The row's cells under header, tab-separated: h as %g, fit sigmas and
    relative deviations as .3e, every other value by _fmt."""
    def cell(key: str) -> str:
        if key == "h":
            return f"{row[key]:g}"
        return f"{row[key]:.3e}" if key.endswith(("_sigma", "_rel_dev")) else _fmt(row[key])
    return "\t".join(cell(key) for key in header)


def _second_order(params: PerturbationParams, annulus: Annulus, order: int | None):
    """The M_2 form for --order 2, or for no --order where M_1 vanishes, else None:
    M_2 is defined only where M_1 = 0, which m2_form enforces (ConstraintError)."""
    if order == 2 or (order is None and m1_vanishes(params, annulus)):
        return m2_form(params, annulus)
    return None


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def _form_slots(form) -> dict[str, float]:
    """The form's coefficients by slot; + 0.0 turns a -0.0 product into 0.0."""
    slots: dict[str, float] = {}
    for label, poly in (("i0", form.poly0), ("i1", form.poly1), ("i2", form.poly2)):
        for k, c in enumerate(poly):
            slots[f"{label}-h{k}"] = c + 0.0
    return slots


def _agreement_rows(params, form, annulus, oracle, order: int) -> list[dict]:
    rows, hs = [], _DEFAULT_H[annulus]
    for h, closed in zip(hs, m_eval(form, hs, closed_form(hs, annulus)[:3]).tolist()):
        direct = oracle(params, h, annulus)
        scale = max(abs(closed), abs(direct), 1e-15)
        rows.append({"record": "quadrature-agreement", "order": order,
                     "annulus": annulus.value, "h": h, "closed_form": closed,
                     "quadrature": direct, "rel_dev": abs(closed - direct) / scale,
                     "tol": 1e-9 if order == 1 else 1e-7})
    return rows


def cmd_coeffs(args) -> int:
    annulus = Annulus.from_label(args.annulus)
    params, origin = _resolve_params(args, annulus)
    config = {"command": "coeffs", "annulus": annulus.value, "order": args.order,
              "params": params.to_dict(), **origin, "out": args.out}
    _print_config(config)

    records: list[dict] = []
    f2 = _second_order(params, annulus, args.order)
    if args.order != 2:
        f1 = m1_form(params, annulus)
        records.append({"record": "m1-table", "annulus": annulus.value,
                        "slots": _form_slots(f1)})
        records.append({"record": "m1-residuals", "annulus": annulus.value,
                        **m1_vanishing_residuals(params, annulus)})
        if not m1_vanishes(params, annulus):
            records.extend(_agreement_rows(params, f1, annulus, m1_quadrature, 1))
    if f2 is not None:
        records.append({"record": "m2-table", "annulus": annulus.value,
                        "slots": _form_slots(f2), "pole": f2.pole})
        if any(f2.poly0 + f2.poly1 + f2.poly2):  # against M_2 = 0 only rounding is left
            records.extend(_agreement_rows(params, f2, annulus, m2_iliev_quadrature, 2))

    _emit(args, config, records)
    for rec in records:
        kind = rec["record"]
        if kind.endswith("-table"):
            print(f"{kind} ({rec['annulus']}" + (", pole 1/(4h+1)" if rec.get("pole") else "") + ")")
            for slot, val in rec["slots"].items():
                print(f"  {slot:8s} {_fmt(val)}")
        elif kind == "m1-residuals":
            vals = {k: v for k, v in rec.items() if k not in ("record", "annulus")}
            print("m1 vanishing residuals: " + json.dumps(vals, sort_keys=True))
        elif kind == "quadrature-agreement":
            print(f"agreement order {rec['order']} h={rec['h']:g}: closed {_fmt(rec['closed_form'])}"
                  f"  quadrature {_fmt(rec['quadrature'])}  rel {rec['rel_dev']:.3e}")
    return 3 if any(rec["rel_dev"] > rec["tol"] for rec in records
                    if rec["record"] == "quadrature-agreement") else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.annulus is None:
        annuli = (Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR)
    else:
        annuli = (Annulus.from_label(args.annulus),)
    config = {"command": "verify", "annuli": [a.value for a in annuli],
              "out": args.out}
    _print_config(config)
    records = [check(annuli) for check in checks.CHECKS]
    for rec in records:
        rec["record"] = "check"
    _emit(args, config, records)
    for rec in records:
        flag = "PASS" if rec["ok"] else "FAIL"
        print(f"{flag} {rec['check']:24s} worst {rec['worst']:10.3e}  tol {rec['tol']:8.1e}")
    failed = [rec["check"] for rec in records if not rec["ok"]]
    if failed:
        print(f"verify: {len(failed)} check(s) failed: {', '.join(failed)}")
        return 3
    print(f"verify: all {len(records)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def _print_certificate(cert) -> None:
    print(f"annulus={cert.annulus.value} order={cert.order} winding={cert.winding} "
          f"bound={cert.bound} status={cert.status.value}")
    R, eta, rho = cert.contour
    print(f"  contour R={R:g} eta={eta:g} rho={rho:g}  samples {cert.n_samples}")
    if cert.real_roots:
        roots = "  ".join(f"{loc:.9f} (width {w:.1e})" for loc, w in cert.real_roots)
        print(f"  real roots: {roots}")
    else:
        print("  real roots: none")


def cmd_zeros(args) -> int:
    annulus = Annulus.from_label(args.annulus)
    R, eta, rho = _parse_contour(args.contour)
    config = {"command": "zeros", "annulus": annulus.value, "order": args.order,
              "contour": {"R": R, "eta": eta, "rho": rho}, "out": args.out}

    if args.draws is not None:
        if args.params is not None:
            raise ValueError("--draws certifies a seeded census and --params one "
                             "parameter set; give only one of them")
        seed = 0 if args.seed is None else args.seed
        config.update({"draws": args.draws, "seed": seed})
        _print_config(config)
        certs, summary = bound_census(args.order, annulus, n_draws=args.draws,
                                      seed=seed, R=R, eta=eta, rho=rho)
        records = [{"record": "certificate", "draw": i, **c.as_record()}
                   for i, c in enumerate(certs)]
        records.append({"record": "census-summary", **summary})
        _emit(args, config, records)
        print(f"census: order {args.order}, {annulus.value}, {args.draws} draws, "
              f"seed {seed}")
        print(f"  bound {summary['bound']}  max winding {summary['max_winding']}  "
              f"max real roots {summary['max_real_roots']}")
        print("  status counts: " + json.dumps(summary["status_counts"], sort_keys=True))
        bad = summary["violations"]
        inconclusive = summary["status_counts"].get(Status.INCONCLUSIVE.value, 0)
        if bad:
            print(f"  bound violated on draws {bad}")
        return 3 if (bad or inconclusive) else 0

    if args.seed is not None:
        raise ValueError("--seed seeds a census and needs --draws; certify one "
                         "parameter set with --params")
    params = _load_params(args.params)
    config["params"] = params.to_dict()
    _print_config(config)
    cert = certify(params, args.order, annulus, R=R, eta=eta, rho=rho)
    _emit(args, config, [{"record": "certificate", **cert.as_record()}])
    _print_certificate(cert)
    if cert.status in (Status.BOUND_VIOLATED, Status.INCONCLUSIVE):
        return 3
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    annulus = Annulus.from_label(args.annulus)
    params, origin = _resolve_params(args, annulus)
    if not origin:
        raise ValueError("oracle needs --params or --seed (a zero perturbation has "
                         "nothing to fit)")
    eps = (checked_eps_ladder(float(e) for e in args.eps_list.split(","))
           if args.eps_list else DEFAULT_EPS_LIST)
    hs = _gather_h(args, annulus)

    f2 = _second_order(params, annulus, args.order)
    config = {"command": "oracle", "annulus": annulus.value, "order": args.order,
              "h": hs, "eps_list": list(eps), "params": params.to_dict(),
              **origin, "out": args.out}
    _print_config(config)

    f1 = m1_form(params, annulus)
    records = []
    header = ["h", "m1_closed", "m1_fit", "m1_sigma", "m1_rel_dev"]
    if f2 is not None:
        header += ["m2_closed", "m2_fit", "m2_sigma", "m2_rel_dev"]
    print("\t".join(header))
    periods = closed_form(hs, annulus)[:3]
    closed_m = {k: m_eval(form, hs, periods).tolist() for k, form in ((1, f1), (2, f2)) if form}
    for j, h in enumerate(hs):
        fit = melnikov_fit(h, params, annulus, eps_list=eps)
        row = {"record": "oracle-row", "h": h, "condition": fit.condition,
               "samples": [[s.epsilon, s.d] for s in fit.samples]}
        for k, value, err in ((1, fit.m1, fit.m1_err), (2, fit.m2, fit.m2_err)):
            if k in closed_m:
                closed = closed_m[k][j]
                row.update({f"m{k}_closed": closed, f"m{k}_fit": value, f"m{k}_sigma": err,
                            f"m{k}_rel_dev": abs(value - closed) / max(abs(closed), err, 1e-300)})
        records.append(row)
        print(_table_line(header, row))
    _emit(args, config, records)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    annulus = Annulus.from_label(args.annulus)
    params, origin = _resolve_params(args, annulus)
    hs = _gather_h(args, annulus)
    config = {"command": "eval", "annulus": annulus.value, "h": hs,
              "params": params.to_dict(), **origin, "out": args.out}
    _print_config(config)

    f1 = m1_form(params, annulus)
    f2 = _second_order(params, annulus, None)

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        periods = closed_form(hs, annulus)[:3]
        columns = dict(zip(("i0", "i1", "i2"), periods), m1=m_eval(f1, hs, periods))
        if f2 is not None:
            columns["m2"] = m_eval(f2, hs, periods)
    bad = np.flatnonzero(~np.isfinite(list(columns.values())).all(axis=0))
    if bad.size:
        raise ValueError(f"the values at h={hs[bad[0]]!r} are not finite")
    records = []
    header = ["h", *columns]
    print("\t".join(header))
    for k, h in enumerate(hs):
        row = {"record": "eval-row", "h": h,
               **{key: float(column[k]) for key, column in columns.items()}}
        records.append(row)
        print(_table_line(header, row))
    if f2 is None:
        res = json.dumps(m1_vanishing_residuals(params, annulus), sort_keys=True)
        print(f"# m2 column omitted: first-order function does not vanish (residuals {res})")
    _emit(args, config, records)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parse_args fills a fresh namespace
    on every call, so one parser serves repeated in-process main calls."""
    parser = argparse.ArgumentParser(
        prog="duffing-melnikov",
        description="Melnikov functions of cubic perturbations of the Duffing "
                    "oscillator: coefficient tables, verification, zero counts, "
                    "and a direct-integration oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--params", metavar="PATH",
                        help="JSON file with arrays lambda1/gamma1/lambda2/gamma2 "
                             "(10 entries each, missing arrays read as zero)")
        sp.add_argument("--annulus", choices=[a.value for a in Annulus],
                        default="interior-right")
        sp.add_argument("--out", metavar="PATH",
                        help="write one JSON record per line here, plus a "
                             ".config.json sibling")

    p = sub.add_parser("coeffs", help="closed-form coefficient tables")
    common(p)
    p.add_argument("--order", type=int, choices=(1, 2),
                   help="restrict to one order (default: both where defined)")
    p.add_argument("--seed", type=int,
                   help="draw parameters uniform on [-1,1] instead of --params")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="structural checks of the period integrals")
    p.add_argument("--annulus", choices=[a.value for a in Annulus], default=None,
                   help="restrict grid checks to one annulus (default: interior "
                        "and exterior)")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zeros", help="argument-principle zero certificates")
    common(p)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--draws", type=_draw_count, metavar="N",
                   help="certify N seeded uniform draws instead of --params")
    p.add_argument("--seed", type=int,
                   help="seed of the --draws census (default 0)")
    p.add_argument("--contour", default="10,1e-3,1e-3", metavar="R,ETA,RHO")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("oracle", help="displacement fits vs closed forms")
    common(p)
    p.add_argument("--order", type=int, choices=(1, 2),
                   help="2 additionally tabulates the second-order column "
                        "(constrains --seed draws automatically)")
    p.add_argument("--h", type=float, action="append", metavar="H",
                   help="energy level (repeatable)")
    p.add_argument("--h-grid", metavar="LO:HI:N[:log]")
    p.add_argument("--eps-list", metavar="E1,E2,...",
                   help=f"perturbation sizes for the fit (default "
                        f"{','.join(str(e) for e in DEFAULT_EPS_LIST)})")
    p.add_argument("--seed", type=int,
                   help="draw parameters uniform on [-1,1] instead of --params")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("eval", help="point values of periods and Melnikov functions")
    common(p)
    p.add_argument("--h", type=float, action="append", metavar="H")
    p.add_argument("--h-grid", metavar="LO:HI:N[:log]")
    p.add_argument("--seed", type=int,
                   help="draw parameters uniform on [-1,1] instead of --params")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message; 2 on usage errors
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout: exit as SIGPIPE would, 128 + 13
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so exit's flush succeeds
        return 141
    except (AccuracyError, EscapeError, PathError, PoleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # DomainError and ConstraintError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
