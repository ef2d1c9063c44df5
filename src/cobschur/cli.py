"""Command-line surface: compute families, run verification suites,
emit Segre windows, evaluate classical oracles, apply pushforwards.

Exit codes: 0 ok, 1 verification failure, 2 invalid input, 3 internal
assertion: a division that should be exact left a remainder
(RemainderError from a linear division or the Hall-Littlewood
normalization).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .ring import (RingContext, Series, RemainderError, BudgetError,
                   TruncationError)
from .fgl import FormalGroupLaw
from .schur import (Partition, universal_schur_s, universal_schur_p,
                    universal_schur_q, universal_hall_littlewood,
                    new_universal_schur, universal_schur_kl,
                    symmetrizer_deg_bound)
from .gysin import (segre_series, required_weight_cap, MAX_WINDOW_CAP,
                    pushforward_full_flag, pushforward_partial_flag,
                    pushforward_between_flags, grassmannian_pushforward,
                    WindowExhausted, NotInvariant)
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

# largest --n accepted: a symmetrizer applies up to n(n-1)/2 divided
# differences, and the oracles sum over all n! permutations
MAX_N = 5

FAMILIES = ("schur-s", "schur-seq", "schur-p", "schur-q", "hl",
            "new-schur", "schur-kl")


class CliError(Exception):
    def __init__(self, message, code=EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _parse_lambda(text, allow_sequence=False):
    if text is None or text.strip() in ("", "0"):
        return []
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise CliError("cannot parse --lambda %r" % (text,))
    if any(p < 0 for p in parts):
        raise CliError("--lambda entries must be non-negative")
    if not allow_sequence:
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise CliError("--lambda must be weakly decreasing "
                           "(use --family schur-seq for raw sequences)")
    return parts


def _check_n(n):
    if n > MAX_N:
        raise CliError("n = %d is above the limit MAX_N = %d" % (n, MAX_N))


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError("cannot parse rational %r" % (text,))


def _load_assignment(path, ctx):
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("cannot read assignment file: %s" % exc)
    out = {}
    for name, value in raw.items():
        if not ctx.has_gen(name):
            raise CliError("assignment names unknown generator %r" % (name,))
        out[name] = _parse_rational(str(value))
    return out


def _build_setup(args, n, with_t=False):
    mode = args.mode
    A = args.A if mode == "universal" else 0
    scalars = []
    if with_t:
        scalars.append("t")
    if mode == "multiplicative":
        scalars.append("beta")
    # every family is homogeneous of degree |lambda| >= 0; --b brings higher
    # (x,b)-degrees into the output and keeps the default weight cap
    cap = None if args.b else required_weight_cap(n, args.deg, 0)
    try:
        ctx = RingContext(n_x=n, n_b=args.nb or 0, m_order=A,
                          deg_bound=symmetrizer_deg_bound(args.deg, n),
                          scalars=tuple(scalars), m_weight_cap=cap)
    except ValueError as exc:
        raise CliError(str(exc))
    custom = None
    if mode == "custom":
        if not args.m_file:
            raise CliError("--mode custom needs --m-file with log coefficients")
        try:
            with open(args.m_file) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError("cannot read --m-file: %s" % exc)
        custom = {}
        for k, v in raw.items():
            idx = int(k[1:]) if str(k).startswith("m") else int(k)
            custom[idx] = _parse_rational(str(v))
    try:
        fgl = FormalGroupLaw(ctx, mode, custom)
    except ValueError as exc:
        raise CliError(str(exc))
    return ctx, fgl


def _emit_series(series, args, ctx):
    out = series.truncate(args.deg)
    if args.out == "json":
        doc = out.to_json_dict()
        doc["A"] = ctx.m_order
        doc["D"] = args.deg
        doc["mode"] = args.mode
        print(json.dumps(doc, sort_keys=True))
    else:
        print(out.text())


def cmd_compute(args):
    lam = _parse_lambda(args.lam, allow_sequence=(args.family == "schur-seq"))
    n = args.n
    if n < 1:
        raise CliError("--n must be at least 1")
    _check_n(n)
    if args.deg < 0:
        raise CliError("--deg must be non-negative")
    if len(lam) > n:
        raise CliError("--lambda longer than --n")
    use_b = (args.nb or 0) > 0
    with_t = args.family == "hl"
    ctx, fgl = _build_setup(args, n, with_t=with_t)
    try:
        if args.family in ("schur-s", "schur-seq"):
            val = universal_schur_s(fgl, lam, n, use_b=use_b)
        elif args.family == "schur-p":
            val = universal_schur_p(fgl, lam, n, use_b=use_b)
        elif args.family == "schur-q":
            val = universal_schur_q(fgl, lam, n, use_b=use_b)
        elif args.family == "hl":
            val = universal_hall_littlewood(fgl, lam, n)
            if args.t is not None and args.t != "symbolic":
                val = val.substitute_gen("t", _parse_rational(args.t))
        elif args.family == "new-schur":
            val = new_universal_schur(fgl, lam, n, use_b=use_b)
        elif args.family == "schur-kl":
            val = universal_schur_kl(fgl, lam, n, use_b=use_b)
        else:
            raise CliError("unknown family %r" % (args.family,))
    except (BudgetError, ValueError) as exc:
        raise CliError(str(exc))
    if args.b:
        val = val.specialize(_load_assignment(args.b, ctx))
    _emit_series(val, args, ctx)
    return EXIT_OK


def cmd_verify(args):
    caps = {}
    if args.max_weight is not None:
        caps["max_weight"] = args.max_weight
    if args.n is not None:
        _check_n(args.n)
        if args.suite in ("hl-collapse", "additive-square",
                          "multiplicative-square", "gysin-functoriality",
                          "kempf-laksov", "residue-segre"):
            caps["max_n"] = args.n
        elif args.suite == "feldman":
            caps["ns"] = tuple(range(3, args.n + 1)) or (3,)
    if args.e is not None or args.f is not None:
        caps["max_rank"] = max(args.e or 0, args.f or 0) or 4
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        if name not in SUITES:
            raise CliError("unknown suite %r (known: %s)"
                           % (name, ", ".join(sorted(SUITES))))
        rep = run_suite(name, **(caps if args.suite != "all" else {}))
        if not rep.checks:
            raise CliError("the caps select no identities of suite %s" % name)
        print(rep.summary())
        if not rep.passed:
            failed = True
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_segre(args):
    if args.kmin > args.kmax:
        raise CliError("--kmin exceeds --kmax")
    if args.n < 0:
        raise CliError("--n must be non-negative")
    if args.deg < min(args.n, 1):  # the window needs x_1 itself
        raise CliError("--deg must be at least %d" % min(args.n, 1))
    if args.mode == "custom":
        raise CliError("segre windows need a graded mode (universal, additive "
                       "or multiplicative), not --mode custom")
    n = args.n
    A = args.A if args.mode == "universal" else 0
    scalars = ("beta",) if args.mode == "multiplicative" else ()
    cap = required_weight_cap(n, args.deg, args.kmin)
    if cap > MAX_WINDOW_CAP:
        raise CliError("this window needs weight cap %d, above the window "
                       "maximum %d (raise --kmin or lower --deg)"
                       % (cap, MAX_WINDOW_CAP))
    try:
        ctx = RingContext(n_x=n, m_order=A, deg_bound=args.deg,
                          scalars=scalars, m_weight_cap=cap)
        fgl = FormalGroupLaw(ctx, args.mode)
        window = segre_series(fgl, n, args.kmin, args.kmax)
    except (ValueError, WindowExhausted) as exc:
        raise CliError(str(exc))
    doc = window.to_json_dict()
    doc["A"] = A
    doc["D"] = args.deg
    doc["mode"] = args.mode
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_oracle(args):
    from . import oracles
    lam = _parse_lambda(args.lam)
    n = args.n
    _check_n(n)
    scalars = ["t"]
    if args.family == "grothendieck":
        scalars.append("beta")
    lam1 = lam[0] if lam else 0
    try:
        # the bialternant divides by the Vandermonde, of degree n(n-1)/2
        ctx = RingContext(n_x=n, n_b=max(lam1 + n - 1, 0), m_order=0,
                          deg_bound=sum(lam) + max(n + 2, n * (n - 1) // 2),
                          scalars=tuple(scalars))
        if args.family == "schur":
            val = oracles.classical_schur(ctx, lam, n)
        elif args.family == "factorial-schur":
            val = oracles.factorial_schur(ctx, lam, n)
        elif args.family == "hl":
            val = oracles.classical_hall_littlewood(ctx, lam, n)
            if args.t is not None and args.t != "symbolic":
                val = val.substitute_gen("t", _parse_rational(args.t))
        elif args.family == "schur-p":
            val = oracles.schur_p_polynomial(ctx, lam, n)
        elif args.family == "schur-q":
            val = oracles.schur_q_polynomial(ctx, lam, n)
        elif args.family == "grothendieck":
            val = oracles.factorial_grothendieck(ctx, lam, n)
        elif args.family == "monomial":
            val = oracles.monomial_symmetric(ctx, lam, n)
        else:
            raise CliError("unknown oracle family %r" % (args.family,))
    except ValueError as exc:
        raise CliError(str(exc))
    if args.out == "json":
        print(json.dumps(val.to_json_dict(), sort_keys=True))
    else:
        print(val.text())
    return EXIT_OK


def cmd_pushforward(args):
    try:
        with open(args.input) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("cannot read input series: %s" % exc)
    try:
        series = Series.from_json_dict(doc)
    except (KeyError, TruncationError, ValueError) as exc:
        raise CliError("bad series JSON: %s" % exc)
    ctx = series.ctx
    n = args.n or ctx.n_x
    _check_n(n)
    if not 1 <= n <= ctx.n_x:
        raise CliError("--n %d is outside 1..%d, the x-variables of the input"
                       % (n, ctx.n_x))
    mode = args.mode
    A = ctx.m_order
    if mode == "universal" and A < 1:
        raise CliError("input context has no m-generators for universal mode")
    fgl = FormalGroupLaw(ctx, mode)
    lam = _parse_lambda(args.lam) if args.lam else None
    try:
        if args.operator == "full-flag":
            val = pushforward_full_flag(fgl, series, n)
        elif args.operator == "partial-flag":
            if lam is None:
                raise CliError("--operator partial-flag needs --lambda")
            val = pushforward_partial_flag(fgl, series, Partition(lam, n=n), n)
        elif args.operator == "between-flags":
            if lam is None:
                raise CliError("--operator between-flags needs --lambda")
            val = pushforward_between_flags(fgl, series, Partition(lam, n=n), n)
        elif args.operator == "grassmannian":
            if args.q is None:
                raise CliError("--operator grassmannian needs --q")
            val = grassmannian_pushforward(fgl, series, args.q, n)
        else:
            raise CliError("unknown operator %r" % (args.operator,))
    except ValueError as exc:
        raise CliError(str(exc))
    if args.out == "json":
        print(json.dumps(val.to_json_dict(), sort_keys=True))
    else:
        print(val.text())
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="cobschur",
        description="Exact universal Schur/Hall-Littlewood functions and "
                    "Gysin pushforwards over truncated formal group laws.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--mode", default="universal",
                       choices=("universal", "additive", "multiplicative", "custom"))
        q.add_argument("--n", type=int, default=3, help="number of x-variables")
        q.add_argument("--nb", type=int, default=None, help="number of b-variables")
        q.add_argument("--A", type=int, default=3,
                       help="highest retained logarithm coefficient index")
        q.add_argument("--deg", type=int, default=5, help="trusted (x,b)-degree")
        q.add_argument("--out", default="text", choices=("json", "text"))
        q.add_argument("--m-file", default=None,
                       help="JSON log-coefficient assignment for --mode custom")

    c = sub.add_parser("compute", help="evaluate one function family")
    common(c)
    c.add_argument("--family", required=True, choices=FAMILIES)
    c.add_argument("--lambda", dest="lam", default="",
                   help="comma-separated parts, e.g. 2,2,1")
    c.add_argument("--t", default=None,
                   help="'symbolic' or a rational value for the hl family")
    c.add_argument("--b", default=None,
                   help="JSON file assigning rationals to b-variables")
    c.set_defaults(fn=cmd_compute)

    v = sub.add_parser("verify", help="run a named identity suite")
    v.add_argument("suite", help="suite name or 'all' (%s)" % ", ".join(sorted(SUITES)))
    v.add_argument("--max-weight", type=int, default=None)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--e", type=int, default=None)
    v.add_argument("--f", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("segre", help="emit a window of the Segre series")
    common(s)
    s.add_argument("--kmin", type=int, required=True)
    s.add_argument("--kmax", type=int, required=True)
    s.set_defaults(fn=cmd_segre)

    o = sub.add_parser("oracle", help="evaluate a classical reference polynomial")
    o.add_argument("--family", required=True,
                   choices=("schur", "factorial-schur", "hl", "schur-p",
                            "schur-q", "grothendieck", "monomial"))
    o.add_argument("--lambda", dest="lam", default="")
    o.add_argument("--n", type=int, default=3)
    o.add_argument("--t", default=None)
    o.add_argument("--out", default="text", choices=("json", "text"))
    o.set_defaults(fn=cmd_oracle)

    g = sub.add_parser("pushforward", help="apply a Gysin operator to a series")
    g.add_argument("--input", required=True, help="series JSON file")
    g.add_argument("--operator", required=True,
                   choices=("full-flag", "partial-flag", "between-flags",
                            "grassmannian"))
    g.add_argument("--mode", default="universal",
                   choices=("universal", "additive", "multiplicative"))
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--q", type=int, default=None)
    g.add_argument("--lambda", dest="lam", default=None)
    g.add_argument("--out", default="text", choices=("json", "text"))
    g.set_defaults(fn=cmd_pushforward)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (BudgetError, WindowExhausted, NotInvariant, TruncationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except RemainderError as exc:
        print("internal assertion failure: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
