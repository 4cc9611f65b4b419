"""Command-line front end.

Subcommands map files to the library operations:

    dual           polytope -> dual polytope file
    triangulate    polytope -> central triangulation file (rank <= 3)
    validate       triangulation -> validation report
    hodge          pair -> tropical homology table, per ring
    mirror-check   pair -> both tables + transfer spot checks + verdict
    divisor-class  pair + divisor -> restriction cycle + null/nonnull
    patchwork      pair + divisor-or-signs -> betti, components, verdict
    sweep          pair -> one row per divisor class (or raw sign sweep)

All reports are JSON (``--out text`` renders a derived view, never parsed
back).  Reports embed input hashes and the signature/basis identifiers so
golden files are stable.  Exit codes: 0 success, 1 input validation
failure (usage errors included), 2 internal consistency failure (or any
other unexpected error), 3 hypothesis failure; failures print a JSON error
on stderr.
"""

import argparse
import hashlib
import json
import sys
from functools import cache

from .chains import RINGS
from .errors import HypothesisFails, InputError, TropmirrorError
from .lattice import LatticePolytope, _as_point
from .mirror import divisor_restriction, is_null_class, sphere_cycle, transfer_class
from .pairs import MirrorPair
from .patchwork import (
    check_verdict,
    connectedness_verdict,
    divisor_class_representatives,
    divisor_from_signs,
    raw_sign_sweep,
    real_betti,
    sample_divisor_classes,
    signs_from_divisor,
    sweep_rows,
)
from .triangulate import CentralTriangulation, generate_central, validate

SIGNATURE_ID = "koszul-lex-v1"
BASES_ID = "hnf-smith-v1"


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path, what, build):
    """``build`` applied to the JSON data in ``path``, the one input policy:
    an unreadable file, or data that ``build`` refuses with KeyError,
    TypeError or ValueError, is an InputError naming the file."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad {what} file {path}: {e}") from None


def _distinct(points, what):
    """The lattice points of a list that names each of them once."""
    if type(points) is not list:
        raise TypeError(f"the {what} are not a list")
    points = [_as_point(p) for p in points]
    repeated = sorted({p for p in points if points.count(p) > 1})
    if repeated:
        raise ValueError(f"repeats the {what} {repeated}")
    return points


def load_polytope(path):
    return _load(path, "polytope", lambda d: LatticePolytope(d["vertices"], d["rank"]))


def load_triangulation(path):
    return _load(path, "triangulation", CentralTriangulation.from_dict)


def load_pair(args):
    T = load_triangulation(args.triangulation)
    Tdual = load_triangulation(args.dual_triangulation)
    return MirrorPair(T, Tdual)


def load_divisor(path):
    return _load(path, "divisor", lambda d: _distinct(d["rays"], "rays"))


def load_signs(path):
    """{lattice point: sign}, each point once; ``patchwork`` checks the signs."""

    def build(data):
        points = _distinct([p for p, _ in data["signs"]], "points")
        return dict(zip(points, [b for _, b in data["signs"]]))

    return _load(path, "signs", build)


def _write_json(path, payload):
    """Write ``payload`` to ``path``, if given; an output path that cannot be
    written is an InputError naming it."""
    if path:
        try:
            with open(path, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
        except OSError as e:
            raise InputError(f"cannot write output file {path}: {e}") from None


# the arguments that name input files, whichever a subcommand defines
_INPUT_ARGS = ("polytope", "triangulation", "dual_triangulation", "divisor", "signs")


def report(args, result):
    """Print the report of a command: its result, with a digest of every
    input file the arguments name."""
    inputs = [getattr(args, a, None) for a in _INPUT_ARGS]
    env = {
        "command": args.command,
        "inputs": {p: _sha(p) for p in inputs if p},
        "signature": SIGNATURE_ID,
        "bases": BASES_ID,
        "seed": getattr(args, "seed", None) or 0,
        "result": result,
    }
    if args.out == "json":
        print(json.dumps(env, sort_keys=True))
    else:
        _render_text(env)
    return 0


def _render_text(env):
    print(f"# {env['command']}")
    for path, digest in sorted(env["inputs"].items()):
        print(f"input {path} sha256={digest[:16]}")
    print(f"signature={env['signature']} bases={env['bases']}")
    _render_value(env["result"], "")


def _render_value(value, indent):
    """A dict or list, one line per flat entry; nested ones under a header."""
    if isinstance(value, dict):
        entries = [(f"{k}:", f"{k}: ", value[k]) for k in sorted(value)]
    else:
        entries = [(f"- [{i}]", "- ", v) for i, v in enumerate(value)]
    for header, label, v in entries:
        if isinstance(v, (dict, list)) and v and not _is_flat(v):
            print(f"{indent}{header}")
            _render_value(v, indent + "  ")
        else:
            print(f"{indent}{label}{json.dumps(v, sort_keys=True)}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v) or (
            all(isinstance(x, list) and len(x) <= 4 for x in v) and len(v) <= 8
        )
    return False


def cycle_dump(chain):
    return [
        {"tau": [list(p) for p in k[0]], "sigma": [list(p) for p in k[1]],
         "coeff": list(v)}
        for k, v in sorted(chain.items())
    ]


# -- subcommand bodies -----------------------------------------------------------

def cmd_dual(args):
    P = load_polytope(args.polytope)
    D = P.dual()
    payload = {"rank": D.rank, "vertices": [list(v) for v in D.vertices]}
    _write_json(args.output, payload)
    return report(args, payload)


def cmd_triangulate(args):
    P = load_polytope(args.polytope)
    T = generate_central(P)
    _write_json(args.output, T.to_dict())
    summary = {
        "maximal_boundary_simplices": len(T.boundary_simplices),
        "vertices": len(T.vertices),
    }
    return report(args, summary)


def cmd_validate(args):
    T = load_triangulation(args.triangulation)
    rep = validate(T)
    code = report(args, rep.to_dict())
    return code if rep.ok else 1


def cmd_hodge(args):
    pair = load_pair(args)
    table = pair.side_a.hodge_table(args.ring)
    return report(args, table)


def cmd_mirror_check(args):
    pair = load_pair(args)
    n = pair.n
    result = {"n": n, "tables": {}, "match": {}}
    ok = True
    for ring in ("q", "f2", "z"):
        ta = pair.side_a.hodge_table(ring)
        tb = pair.side_b.hodge_table(ring)
        result["tables"][ring] = {"side_a": ta, "side_b": tb}
        # row p of one side against row n - p of the other
        match = all(ta[k] == tb[k][::-1] for k in ("ranks", "torsion") if k in ta)
        result["match"][ring] = match
        ok = ok and match
    # transfer spot check over F2: the fundamental class maps to a nonzero
    # class of complementary degree, and back to itself up to boundary
    S = sphere_cycle(pair.side_a)
    out = transfer_class(pair.side_a, S, 0)
    nonzero = not is_null_class(pair.side_b, out, n, kind="refined")
    back = transfer_class(pair.side_b, out, n)
    cx = pair.side_a.complex("refined", "multitangent", 0)
    diff = cx.chain_to_packed(back, n) ^ cx.chain_to_packed(S, n)
    involutive = cx.f2_is_boundary(diff, n)
    result["transfer_spot_checks"] = {
        "fundamental_class_nonzero": nonzero,
        "involution_up_to_boundary": involutive,
    }
    ok = ok and nonzero and involutive
    result["verdict"] = "mirror symmetry holds" if ok else "MISMATCH"
    code = report(args, result)
    return code if ok else 2


def cmd_divisor_class(args):
    pair = load_pair(args)
    rays = load_divisor(args.divisor)
    side = pair.side_a
    chain = divisor_restriction(side, rays)
    null = is_null_class(side.mirror, chain, side.n - 1)
    result = {
        "cycle": cycle_dump(chain),
        "class_nonzero": not null,
    }
    return report(args, result)


def cmd_patchwork(args):
    pair = load_pair(args)
    side = pair.side_a
    if args.divisor:
        rays = load_divisor(args.divisor)
        eps = signs_from_divisor(side, rays)
    else:
        eps = load_signs(args.signs)
        rays = divisor_from_signs(side, eps)  # refuses signs other than 0 and 1
    betti = real_betti(side, eps)
    verdict = connectedness_verdict(side, rays)
    check_verdict(verdict, betti[0])
    result = {
        "divisor": [list(v) for v in rays],
        "betti": betti,
        "components": betti[0],
        "verdict": verdict,
    }
    return report(args, result)


def cmd_sweep(args):
    if args.raw:
        ignored = [
            flag
            for flag, given in (
                ("--samples", args.samples is not None),
                ("--seed", args.seed is not None),
                ("--no-betti", args.no_betti),
            )
            if given
        ]
        if ignored:
            raise InputError(f"sweep --raw takes no {', '.join(ignored)}")
    elif args.seed is not None and args.samples is None:
        raise InputError("sweep --seed needs --samples")
    elif args.samples is not None and args.samples < 1:
        raise InputError(f"sweep --samples must be at least 1, not {args.samples}")
    pair = load_pair(args)
    side = pair.side_a
    if args.raw:
        rows = []
        for eps, betti in raw_sign_sweep(side):
            rows.append(
                {
                    "signs": [[list(p), b] for p, b in sorted(eps.items())],
                    "divisor": [list(v) for v in divisor_from_signs(side, eps)],
                    "betti": betti,
                    "b0": betti[0],
                }
            )
        result = {"mode": "raw", "rows": rows}
    else:
        if args.samples is not None:
            masks = sample_divisor_classes(side, args.samples, args.seed or 0)
        else:
            masks = divisor_class_representatives(side)
        rows = sweep_rows(side, masks, with_betti=not args.no_betti)
        # sweep_rows raises on a row whose verdict disagrees with its b0
        result = {
            "mode": "classes",
            "rows": rows,
            "agreement": f"{len(rows)}/{len(rows)}",
        }
    return report(args, result)


# -- argument plumbing ---------------------------------------------------------------

def _add_pair_args(sp):
    sp.add_argument("triangulation", help="triangulation of the Newton polytope")
    sp.add_argument(
        "dual_triangulation", help="triangulation of the dual polytope"
    )


class _Parser(argparse.ArgumentParser):
    """Subcommand parsers are made by the same class, so they inherit
    ``error``."""

    def error(self, message):
        """argparse calls this on a usage error: here it is an input error
        (exit 1, JSON on stderr)."""
        raise InputError(f"{self.prog}: {message}")


@cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, and each subcommand reads its functions at call time."""
    ap = _Parser(
        prog="tropmirror",
        description="exact tropical homology, mirror transfer and patchworking",
    )
    ap.add_argument("--out", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dual", help="dual polytope")
    sp.add_argument("polytope")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("triangulate", help="generate a central triangulation")
    sp.add_argument("polytope")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_triangulate)

    sp = sub.add_parser("validate", help="validate a triangulation")
    sp.add_argument("triangulation")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("hodge", help="tropical homology table")
    _add_pair_args(sp)
    sp.add_argument("--ring", choices=RINGS, default="q")
    sp.set_defaults(func=cmd_hodge)

    sp = sub.add_parser("mirror-check", help="verify the mirror-symmetry identity")
    _add_pair_args(sp)
    sp.set_defaults(func=cmd_mirror_check)

    sp = sub.add_parser("divisor-class", help="mirror divisor restriction class")
    _add_pair_args(sp)
    sp.add_argument("--divisor", required=True)
    sp.set_defaults(func=cmd_divisor_class)

    sp = sub.add_parser("patchwork", help="betti numbers and connectedness")
    _add_pair_args(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--divisor")
    group.add_argument("--signs")
    sp.set_defaults(func=cmd_patchwork)

    sp = sub.add_parser("sweep", help="sweep divisor classes")
    _add_pair_args(sp)
    sp.add_argument("--raw", action="store_true", help="sweep raw sign distributions")
    sp.add_argument("--samples", type=int, help="sample this many classes")
    sp.add_argument("--seed", type=int, help="seed for --samples (default 0)")
    sp.add_argument("--no-betti", action="store_true")
    sp.set_defaults(func=cmd_sweep)
    return ap


# (error class, kind, exit code): the first class the error is an instance of
_EXITS = (
    (HypothesisFails, "hypothesis", 3),
    (InputError, "input", 1),
    (Exception, "internal", 2),
)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as e:
        kind, code = next((k, c) for cls, k, c in _EXITS if isinstance(e, cls))
        # an unforeseen failure is reported with its type, never a traceback
        error = str(e) if isinstance(e, TropmirrorError) else f"{type(e).__name__}: {e}"
        print(json.dumps({"error": error, "kind": kind}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
