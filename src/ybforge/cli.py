"""Command-line interface.

Every subcommand produces a report: a list of named checks, each with a
boolean verdict and optional certification flag, witness, and notes.  Exit
status is 0 when every verdict in the report is true, 1 when at least one
is false, 2 on bad input (parse errors, unknown names, violated
preconditions, undersized or oversized grids, unwritable output paths,
results with an integer too long to print), and 3 on an internal error,
reported as one line without a traceback.
Informational values that should not flip the exit status are carried in
notes, not verdicts.  `main(argv)` may be called repeatedly in one process:
it builds its parser once, on the first call, and looks up each command's
handler by its command path at call time: `cmd_<command>`, or
`cmd_ybe_<command>` under `ybe`, with `-` read as `_`.  A handler that
returns no report (`examples list`, whose listing is its output) prints
nothing more and exits 0.
"""
import argparse
import functools
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from . import __version__
from .constructions import (COLORED_BOUND, ONEPARAM_BOUND,
                            colored_qybe_verify, jordan_r_restricted,
                            matrix_form8, oneparam_verify, phi_super,
                            r_algebra, r_colored, r_super_colored,
                            thm32_predict, wxz_thm38)
from .exactla import rat_to_str, to_rat
from .paramgrid import GridConfigError, default_grid
from .structures import (AlgebraSpec, CoalgebraSpec, ColorLieSpec,
                         PreconditionError, SuperLieSpec,
                         check_algebra_props, coalgebra_props, dualize,
                         dualize_co, jordan_co_check, jordan_w_check,
                         structure_from_json, structure_to_json,
                         validate_colorlie)
from .ybcore import (braid_check, braid_qybe_equiv, braid_witness, invertible,
                     linop2_from_json, linop2_to_json, qybe_witness,
                     wxz_check)
from . import registry


class CliInputError(Exception):
    """Bad command-line input; maps to exit status 2."""


Check = namedtuple("Check", "name verdict certified witness notes")


class Report:
    def __init__(self, command):
        self.command = command
        self.checks = []
        self.notes = []
        # set when the command's payload occupies stdout, so the report goes
        # to stderr
        self.to_stderr = False

    def add(self, name, verdict, certified=None, witness=None, notes=""):
        self.checks.append(Check(name, bool(verdict), certified, witness, notes))

    def add_grid(self, name, res):
        """A grid verdict, noting each variable's points and degree bound."""
        notes = "; ".join("%s: %d points, degree bound %d" % (var, got, bound)
                          for var, (got, bound) in sorted(res.certificate.items()))
        self.add(name, res.verdict, res.certified, res.witness, notes)

    def note(self, text):
        self.notes.append(text)

    def exit_status(self):
        return 0 if all(c.verdict for c in self.checks) else 1


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return rat_to_str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def emit_report(report, as_json, stream=None):
    stream = stream or sys.stdout
    if as_json:
        payload = {
            "version": __version__,
            "command": report.command,
            "checks": [
                {
                    "name": c.name,
                    "verdict": c.verdict,
                    "certified": c.certified,
                    "witness": _jsonable(c.witness),
                    "notes": c.notes,
                }
                for c in report.checks
            ],
            "notes": report.notes,
            "exit": report.exit_status(),
        }
        stream.write(_dumps(payload) + "\n")
        return
    stream.write("ybforge %s: %s\n" % (__version__, report.command))
    for c in report.checks:
        tag = "PASS" if c.verdict else "FAIL"
        line = "  [%s] %s" % (tag, c.name)
        if c.certified is not None:
            line += " (certified)" if c.certified else " (not certified)"
        if c.notes:
            line += "  -- " + c.notes
        stream.write(line + "\n")
        if c.witness is not None:
            stream.write("         witness: %s\n" % (_jsonable(c.witness),))
    for text in report.notes:
        stream.write("  note: %s\n" % text)


def _rat(text, what):
    try:
        return to_rat(text)
    except ValueError as exc:
        raise CliInputError("bad %s value %r: %s" % (what, text, exc))


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise CliInputError("%s is not ASCII text: %s" % (path, exc))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliInputError("invalid JSON in %s: %s" % (path, exc))


# json.dumps with an indent runs the pure-Python encoder; the C one, without
# indent, encodes each list of scalars, with the indent in its item separator
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _scalar_list_encoder(pad):
    return json.JSONEncoder(separators=("," + pad, ": "))


def _dumps(value, depth=0):
    """The text of json.dumps(value, indent=2)."""
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict) and value:
        items = ["%s: %s" % (json.dumps(k if isinstance(k, str) else json.dumps(k)),
                             _dumps(v, depth + 1)) for k, v in value.items()]
    elif not isinstance(value, (list, tuple)) or not value:
        return json.dumps(value)
    elif _SCALARS.issuperset(map(type, value)):
        items = [_scalar_list_encoder(pad).encode(value)[1:-1]]
    else:
        items = [_dumps(v, depth + 1) for v in value]
    body = pad + ("," + pad).join(items) + pad[:-2]
    return "{%s}" % body if isinstance(value, dict) else "[%s]" % body


def _write_json(doc, path, report=None):
    text = _dumps(doc) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        if report is not None:
            report.to_stderr = True
        return
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError("cannot write %s: %s" % (path, exc))


def load_structure(source):
    """A registry name (with optional inline args) or a JSON file path."""
    if source.split("(", 1)[0] in registry.REGISTRY:
        try:
            return registry.build(source)
        except (KeyError, ValueError) as exc:
            raise CliInputError("bad registry reference %r: %s" % (source, exc))
    if not os.path.exists(source):
        raise CliInputError(
            "%r is neither a registry name (%s) nor a file"
            % (source, ", ".join(registry.names())))
    try:
        return structure_from_json(_load_json(source))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError("bad structure file %s: %s" % (source, exc))


def _require_kind(obj, kind, what):
    if not isinstance(obj, kind):
        raise CliInputError("%s: expected %s, got %s"
                            % (what, kind.__name__, type(obj).__name__))
    return obj


# Largest grid size per variable: a FAIL's witness search visits at most
# GRID_MAX^3 points.  Larger sizes are refused before any grid is built.
GRID_MAX = 32


def _grid_points(arg_value, tag, bound, nonzero=False):
    """Resolve grid size from --grid, else bound + 1; the degree bound is
    kept beside its family in `constructions`."""
    size = bound + 1 if arg_value is None else arg_value
    if size < bound + 1:
        raise CliInputError(
            "grid size %d is below the certification bound %d for %s"
            % (size, bound + 1, tag))
    _check_grid_max(size)
    return default_grid(size, nonzero=nonzero)


def _check_grid_max(size):
    if size > GRID_MAX:
        raise CliInputError("grid size %d is above the limit %d"
                            % (size, GRID_MAX))


# --- algebra-check -------------------------------------------------------

def cmd_algebra_check(args):
    report = Report("algebra-check %s" % args.source)
    obj = load_structure(args.source)
    props = {}
    if isinstance(obj, AlgebraSpec):
        p = check_algebra_props(obj)
        props = {"commutative": p.commutative, "associative": p.associative,
                 "unital": p.unital, "jordan": p.jordan}
        report.note("kind=algebra dim=%d" % obj.n)
        for name, value in props.items():
            report.note("%s=%s" % (name, str(value).lower()))
        if p.commutative:
            mode = args.jordan_mode
            # p.jordan is the pattern3 relation of a commutative algebra
            if mode == "pattern3":
                ok = p.jordan
            else:
                ok = jordan_w_check(obj, mode=mode)
            props["jordan-w"] = ok
            report.add("jordan-w[%s]" % mode, ok)
        else:
            report.note("jordan-w skipped: product is not commutative")
    elif isinstance(obj, CoalgebraSpec):
        p = coalgebra_props(obj)
        props = {"cocommutative": p.cocommutative,
                 "coassociative": p.coassociative}
        report.note("kind=coalgebra dim=%d" % obj.n)
        for name, value in props.items():
            report.note("%s=%s" % (name, str(value).lower()))
        if p.cocommutative:
            ok = jordan_co_check(obj, mode=args.jordan_mode)
            props["jordan-co"] = ok
            report.add("jordan-co[%s]" % args.jordan_mode, ok)
        else:
            report.note("jordan-co skipped: coproduct is not cocommutative")
    elif isinstance(obj, (SuperLieSpec, ColorLieSpec)):
        rep = validate_colorlie(obj)
        color = isinstance(obj, ColorLieSpec)
        props = {"bicharacter": rep.bicharacter} if color else {}
        props.update(antisymmetric=rep.antisym, jacobi=rep.jacobi)
        report.note("kind=%s dim=%d" % ("colorlie" if color else "superlie",
                                          obj.n))
        for name, value in props.items():
            report.add(name, value)
    else:
        raise CliInputError("unsupported structure kind")
    if args.expect:
        for want in args.expect.split(","):
            want = want.strip()
            if want not in props:
                raise CliInputError(
                    "unknown property %r; available: %s"
                    % (want, ", ".join(sorted(props))))
            report.add("expect:%s" % want, props[want])
    return report


# --- examples ------------------------------------------------------------

def cmd_examples(args):
    if args.action == "list":
        if args.json:
            _write_json({"names": registry.names()}, None)
        else:
            for name in registry.names():
                sys.stdout.write(name + "\n")
        return None
    report = Report("examples emit")
    if args.name is None:
        raise CliInputError("examples emit requires a name")
    given = [flag for flag in ("m", "s", "t", "beta")
             if getattr(args, flag) is not None]
    params = registry.REGISTRY.get(args.name, (None, ()))[1]
    for flag in given:
        if flag not in params:
            raise CliInputError("--%s is not a parameter of %s"
                                % (flag, args.name))
    # parameters are positional: each one given needs all before it
    used = params[:len(given)]
    for param in used:
        if param not in given:
            raise CliInputError("--%s is given without --%s"
                                % (given[-1], param))
    source = args.name
    if used:
        source += "(%s)" % ",".join(rat_to_str(_rat(getattr(args, p), p))
                                    for p in used)
    obj = load_structure(source)
    _write_json(structure_to_json(obj), args.output, report)
    report.add("emit:%s" % source, True)
    return report


# --- ybe build / verify --------------------------------------------------

def _load_operator(path):
    try:
        return linop2_from_json(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError("bad operator JSON: %s" % exc)


def cmd_ybe_build(args):
    report = Report("ybe build rA")
    alg = _require_kind(load_structure(args.algebra), AlgebraSpec, "--algebra")
    a, b, g = (_rat(args.alpha, "alpha"), _rat(args.beta, "beta"),
               _rat(args.gamma, "gamma"))
    op = r_algebra(alg, a, b, g)
    predicted = thm32_predict(a, b, g)
    report.note("predicted yang-baxter: %s" % str(predicted).lower())
    _write_json(linop2_to_json(op), args.output, report)
    return report


def cmd_ybe_verify(args):
    report = Report("ybe verify")
    op = _load_operator(args.operator)
    wanted = [name for name in ("braid", "qybe", "invertible", "equivalence")
              if getattr(args, name)]
    if not wanted:
        wanted = ["braid", "invertible", "equivalence"]
    braid = None   # braid_qybe_equiv reuses the braid verdict when there is one
    for name in wanted:
        if name == "braid":
            witness = braid_witness(op)
            braid = witness is None
            report.add("braid", braid, witness=witness)
        elif name == "qybe":
            witness = qybe_witness(op)
            report.add("qybe", witness is None, witness=witness)
        elif name == "invertible":
            report.add("invertible", invertible(op))
        else:
            report.add("braid-qybe-equivalence", braid_qybe_equiv(op, braid))
    return report


def cmd_ybe_colored(args):
    report = Report("ybe colored")
    alg = _require_kind(load_structure(args.algebra), AlgebraSpec, "--algebra")
    p, q = _rat(args.p, "p"), _rat(args.q, "q")
    family = r_colored(alg, p, q)
    grid = _grid_points(args.grid, "colored", COLORED_BOUND)
    report.add_grid("colored-qybe", colored_qybe_verify(family, grid))
    return report


def cmd_ybe_oneparam(args):
    report = Report("ybe oneparam")
    alg = _require_kind(load_structure(args.algebra), AlgebraSpec, "--algebra")
    q = _rat(args.q, "q")
    grid = _grid_points(args.grid, "oneparam", ONEPARAM_BOUND, nonzero=True)
    report.add_grid("oneparam-ybe", oneparam_verify(alg, q, grid))
    return report


def cmd_ybe_wxz38(args):
    report = Report("ybe wxz38")
    alg = _require_kind(load_structure(args.algebra), AlgebraSpec, "--algebra")
    lam, mu = _rat(args.lam, "lambda"), _rat(args.mu, "mu")
    w, x, z = wxz_thm38(alg, lam, mu)
    rep = wxz_check(w, x, z)
    report.add("[W,W,W]=0", rep.www)
    report.add("[Z,Z,Z]=0", rep.zzz)
    report.add("[W,X,X]=0", rep.wxx)
    report.add("[X,X,Z]=0", rep.xxz)
    return report


def cmd_ybe_phi(args):
    report = Report("ybe phi")
    lie = _require_kind(load_structure(args.lie), SuperLieSpec, "--lie")
    z = _default_z(args, lie)
    alpha = _rat(args.alpha, "alpha")
    # phi_super checks its closed-form inverse, which proves phi invertible
    pair = phi_super(lie, z, alpha)
    braid = braid_check(pair.op)
    report.add("braid", braid)
    report.add("invertible", True)
    report.add("yang-baxter", braid)
    report.add("inverse-formula", True,
               notes="closed-form inverse composes to the identity")
    if args.output:
        _write_json(linop2_to_json(pair.op), args.output, report)
    return report


def _default_z(args, lie):
    if args.z is not None:
        z = [_rat(part, "z") for part in args.z.split(",")]
        if len(z) != lie.n:
            raise CliInputError("--z has %d entries, %s has dimension %d"
                                % (len(z), args.lie, lie.n))
        return z
    name = args.lie.split("(", 1)[0]
    if name in registry.DEFAULT_Z:
        return [Fraction(v) for v in registry.DEFAULT_Z[name]]
    raise CliInputError("--z is required for %r" % args.lie)


def _parse_table(text, what):
    table = {}
    try:
        for piece in text.split(","):
            key, value = piece.split("=", 1)
            key = to_rat(key)
            if key in table:
                raise ValueError("repeated key %s" % rat_to_str(key))
            table[key] = to_rat(value)
    except ValueError as exc:
        raise CliInputError("bad %s %r: %s" % (what, text, exc))
    if not table:
        raise CliInputError("%s is empty" % what)
    return table


def cmd_ybe_super_colored(args):
    report = Report("ybe super-colored")
    lie = _require_kind(load_structure(args.lie), SuperLieSpec, "--lie")
    z = _default_z(args, lie)
    alpha_table = _parse_table(args.alpha_table, "alpha table")
    beta_table = _parse_table(args.beta_table, "beta table")
    if args.colors is not None:
        colors = [_rat(part, "color") for part in args.colors.split(",")]
    else:
        colors = sorted(alpha_table)
    # the colour set is the grid, walked in full by a PASS
    _check_grid_max(len(colors))
    try:
        family = r_super_colored(lie, z, alpha_table, beta_table, colors)
    except ValueError as exc:
        raise CliInputError(str(exc))
    report.add_grid("colored-qybe", colored_qybe_verify(family, colors))
    report.note("operator depends on the first color only, as constructed")
    return report


def cmd_ybe_jordan_restricted(args):
    report = Report("ybe jordan-restricted")
    alg = _require_kind(load_structure(args.algebra), AlgebraSpec, "--algebra")
    a, b, g = (_rat(args.alpha, "alpha"), _rat(args.beta, "beta"),
               _rat(args.gamma, "gamma"))
    res = jordan_r_restricted(alg, a, b, g)
    report.add("restricted-braid", res.restricted)
    report.note("full braid relation: %s" % str(res.full).lower())
    report.note("unit adjoined: %s" % str(res.unit_adjoined).lower())
    report.note("restricted family size: %d" % res.family_size)
    return report


def cmd_ybe_form8(args):
    report = Report("ybe form8")
    alg = _require_kind(load_structure(args.algebra), AlgebraSpec, "--algebra")
    a, b = _rat(args.alpha, "alpha"), _rat(args.beta, "beta")
    res = matrix_form8(alg, a, b)
    if res.matched:
        notes = "q=%s eta=%s" % (rat_to_str(res.q8), rat_to_str(res.eta8))
        witness = None
    else:
        notes = "display does not fit the template"
        witness = {"entry": list(res.offending), "value": rat_to_str(res.value)}
    report.add("matches-8x8-template", res.matched, witness=witness, notes=notes)
    return report


# --- dualize -------------------------------------------------------------

def cmd_dualize(args):
    report = Report("dualize %s" % args.source)
    obj = load_structure(args.source)
    if isinstance(obj, AlgebraSpec):
        out = dualize(obj)
        report.note("algebra -> coalgebra, dim=%d" % obj.n)
    elif isinstance(obj, CoalgebraSpec):
        out = dualize_co(obj)
        report.note("coalgebra -> algebra, dim=%d" % obj.n)
    else:
        raise CliInputError("dualize expects an algebra or coalgebra")
    _write_json(structure_to_json(out), args.output, report)
    report.add("dualize", True)
    return report


# --- parser --------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ybforge",
        description="exact verification of Yang-Baxter operator families "
                    "and Jordan (co)algebra structures")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra-check",
                       help="validate a structure and report its properties")
    p.add_argument("source", help="registry name or JSON file")
    p.add_argument("--jordan-mode", default="pattern3",
                   choices=("pattern3", "full", "symmetrized"))
    p.add_argument("--expect", default=None,
                   help="comma list of properties that must hold")

    p = sub.add_parser("examples", help="list or emit built-in structures")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--m", default=None, help="parameter for split2")
    p.add_argument("--s", default=None, help="first parameter for t21")
    p.add_argument("--t", default=None, help="second parameter for t21")
    p.add_argument("--beta", default=None, help="parameter for theorem22")
    p.add_argument("-o", "--output", default=None)

    ybe = sub.add_parser("ybe", help="build and verify Yang-Baxter operators")
    ysub = ybe.add_subparsers(dest="ybe_command", required=True)

    p = ysub.add_parser("build", help="build the three-coefficient operator")
    p.add_argument("kind", choices=("rA",))
    p.add_argument("--algebra", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("-o", "--output", default=None)

    p = ysub.add_parser("verify", help="check braid/QYBE/invertibility")
    p.add_argument("operator", nargs="?", default="-",
                   help="operator JSON file, or - for stdin")
    p.add_argument("--braid", action="store_true")
    p.add_argument("--qybe", action="store_true")
    p.add_argument("--invertible", action="store_true")
    p.add_argument("--equivalence", action="store_true")

    p = ysub.add_parser("colored", help="verify the two-parameter family")
    p.add_argument("--algebra", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--grid", type=int, default=None)

    p = ysub.add_parser("oneparam", help="verify the one-parameter family")
    p.add_argument("--algebra", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--grid", type=int, default=None)

    p = ysub.add_parser("wxz38", help="verify the (W,X,Z) system")
    p.add_argument("--algebra", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)

    p = ysub.add_parser("phi", help="build the bracket-plus-flip operator")
    p.add_argument("--lie", required=True)
    p.add_argument("--z", default=None, help="central vector, comma list")
    p.add_argument("--alpha", required=True)
    p.add_argument("-o", "--output", default=None)

    p = ysub.add_parser("super-colored",
                        help="verify the colored bracket family")
    p.add_argument("--lie", required=True)
    p.add_argument("--z", default=None)
    p.add_argument("--alpha-table", required=True,
                   help="color=value pairs, comma separated")
    p.add_argument("--beta-table", required=True)
    p.add_argument("--colors", default=None)

    p = ysub.add_parser("jordan-restricted",
                        help="braid relation on the squares family")
    p.add_argument("--algebra", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)

    p = ysub.add_parser("form8", help="match the 8x8 display template")
    p.add_argument("--algebra", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    p = sub.add_parser("dualize", help="transpose a structure to its dual")
    p.add_argument("source")
    p.add_argument("-o", "--output", default=None)

    # every leaf subcommand takes --json, as its last option
    leaves = [p for p in sub.choices.values() if p is not ybe]
    for p in leaves + list(ysub.choices.values()):
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
    return parser


# built by the first main() call, not at import (see the module docstring)
_PARSER = None


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    command = args.command
    if command == "ybe":
        command += "_" + args.ybe_command
    try:
        report = globals()["cmd_" + command.replace("-", "_")](args)
    except (CliInputError, GridConfigError, PreconditionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:
        text = " ".join(str(exc).split())
        if isinstance(exc, ValueError) and "integer string conversion" in text:
            # str() refuses an integer past sys.get_int_max_str_digits(); the
            # inputs were read, so this is an input too large for its result
            sys.stderr.write("error: a result has an integer of more than %d "
                             "digits, too long to print\n"
                             % sys.get_int_max_str_digits())
            return 2
        # a fault of the program, not of the input: one line, no traceback,
        # and a status that cannot be mistaken for a failed verdict
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, text))
        return 3
    if report is None:
        return 0
    stream = sys.stderr if report.to_stderr else sys.stdout
    emit_report(report, args.json, stream=stream)
    return report.exit_status()


if __name__ == "__main__":
    sys.exit(main())
