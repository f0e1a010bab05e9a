"""Command-line front end.

Subcommands: dim, invariants, induced-basis, verify, s2dim, jacobi.
Input is a genus symbol (--symbol) or a Gram matrix JSON file (--gram);
output is deterministic JSON (default) or a small text table.  All numbers
are exact strings; nothing is ever rounded.  The JSON is written by _dumps,
byte for byte what json.dumps(doc, indent=2, sort_keys=True) writes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import cyclo
from .appl import check_theta_precision, dim_s2, dim_s2_trace, jacobi_singular_basis, jacobi_theta
from .config import LIMITS, apply_env_overrides
from .fqm import (
    BoundExceeded,
    DiscriminantForm,
    InternalInconsistency,
    JordanSymbol,
    SymbolError,
    check_order_bound,
    from_gram,
    from_jordan_symbol,
)
from .fundamental import integer_coefficients, invariant_basis, invariant_generators, invariant_projection
from .weil import (
    OddSignatureError,
    check_invariant_basis,
    dim_closed_form,
    dim_invariants,
    inv,
    projection_closed_form,
    rank_of_vectors,
    rho_s_squared_failure,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_ODD_SIGNATURE = 4
EXIT_IO = 5
EXIT_INTERNAL = 6


class InternalError(RuntimeError):
    """A cross-check of the CLI failed; the message names the check."""


ERROR_CODES = {
    InternalInconsistency: ("internal-error", EXIT_INTERNAL),
    InternalError: ("internal-error", EXIT_INTERNAL),
    SymbolError: ("parse-error", EXIT_PARSE),
    OddSignatureError: ("odd-signature", EXIT_ODD_SIGNATURE),
    json.JSONDecodeError: ("io-error", EXIT_IO),
    BoundExceeded: ("bound-exceeded", EXIT_BOUND),
    cyclo.CycloOrderError: ("bound-exceeded", EXIT_BOUND),
    OSError: ("io-error", EXIT_IO),
    ValueError: ("parse-error", EXIT_PARSE),
}


def _load_form(args) -> tuple[DiscriminantForm, str]:
    if args.symbol is not None:
        symbol = JordanSymbol.parse(args.symbol)
        # Every command but s2dim lists the elements of an even-signature
        # form, which the order bound forbids; realizing a symbol far above
        # the bound costs time and memory before that check is reached.
        if args.command != "s2dim" and symbol.signature() % 2 == 0:
            check_order_bound(symbol.order())
        return from_jordan_symbol(symbol), args.symbol
    with open(args.gram, encoding="utf-8") as fh:
        try:
            gram = json.load(fh)
        except RecursionError:  # the parser recurses once per nesting level
            raise OSError(f"{args.gram}: JSON nested too deeply to parse") from None
    return from_gram(gram), f"gram:{args.gram}"


def _form_header(form: DiscriminantForm, name: str) -> dict:
    return {
        "form": name,
        "order": form.order,
        "level": form.level(),
        "signature": form.signature(),
        "square_class": form.square_class(),
    }


def _vector_doc(v) -> list[dict]:
    """The coefficients of v as coprime integers (integer_coefficients), by element."""
    return [{"element": list(el), "coeff": str(x)} for el, x in sorted(integer_coefficients(v).items())]


def _cmd_dim(args) -> dict:
    form, name = _load_form(args)
    doc = _form_header(form, name)
    doc["dim"] = dim_invariants(form)
    if args.symbol is not None:
        doc["closed_form_dim"] = dim_closed_form(args.symbol)
    if args.check:
        checks = []
        if doc.get("closed_form_dim") is not None:
            checks.append({"property": "closed-form-vs-trace", "pass": doc["closed_form_dim"] == doc["dim"]})
        gens = invariant_generators(form) if form.order <= LIMITS.max_form_order else None
        if gens is not None:
            checks.append({"property": "induced-rank-vs-trace", "pass": rank_of_vectors(gens) == doc["dim"]})
        doc["check"] = checks
    return doc


def _cmd_invariants(args) -> dict:
    form, name = _load_form(args)
    doc = _form_header(form, name)
    picked = invariant_basis(form)
    doc["dim"] = len(picked)
    doc["basis"] = [
        {"projected_from": list(gamma), "vector": _vector_doc(v)}
        for gamma, v in picked
    ]
    return doc


def _cmd_induced_basis(args) -> dict:
    form, name = _load_form(args)
    doc = _form_header(form, name)
    gens = invariant_generators(form)
    doc["dim"] = dim_invariants(form)
    doc["rank"] = rank_of_vectors(gens)
    doc["generators"] = [{"vector": _vector_doc(g)} for g in gens]
    if args.check and doc["rank"] != doc["dim"]:
        raise InternalError("induced rank check: the generating set does not span the invariants")
    return doc


def _cmd_s2dim(args) -> dict:
    if args.symbol is None:
        raise SymbolError("s2dim requires a genus symbol p^(eps n)")
    form, name = _load_form(args)
    doc = _form_header(form, name)
    doc["dim_s2"] = dim_s2(args.symbol)
    if args.check:
        data = dim_s2_trace(args.symbol)
        doc["oracle"] = {
            "dim_s2": data.dim,
            "d": data.d,
            "alpha_order2": str(data.alpha_s),
            "alpha_order3": str(data.alpha_st),
            "alpha_parabolic": str(data.alpha_t),
        }
        doc["check"] = [{"property": "closed-form-vs-trace", "pass": data.dim == doc["dim_s2"]}]
    return doc


def _cmd_jacobi(args) -> dict:
    check_theta_precision(args.precision)
    if args.gram is None:
        raise SymbolError("jacobi requires a Gram matrix file")
    form, name = _load_form(args)
    gram = form.lattice.gram
    doc = _form_header(form, name)
    if len(gram) % 2:
        doc["note"] = "odd rank: the singular-weight space is trivial"
    entries = jacobi_singular_basis(gram)
    doc["rank"] = rank_of_vectors([e.vector for e in entries])
    doc["dim"] = dim_invariants(form)
    doc["weight"] = str(Fraction(len(gram), 2))
    doc["basis"] = []
    for e in entries:
        theta = jacobi_theta(gram, e, args.precision)
        doc["basis"].append(
            {
                "overlattice_generators": [list(x) for x in e.subgroup.generators],
                "coefficients": [
                    {"coset": list(el), "value": v} for el, v in sorted(e.coefficients.items())
                ],
                "theta": theta,
            }
        )
    return doc


def _verify_battery(form: DiscriminantForm) -> list[dict]:
    """Cross-validation suite for one form; every check is exact."""
    checks = []

    def record(name, ok, detail=None):
        entry = {"property": name, "pass": bool(ok)}
        if detail is not None and not ok:
            entry["counterexample"] = detail
        checks.append(entry)

    els = form.elements()
    bad = next(
        (
            (g, h)
            for g in els[: min(len(els), 40)]
            for h in els[: min(len(els), 40)]
            if (form.q(form.add(g, h)) - form.q(g) - form.q(h)) % 1 != form.b(g, h)
        ),
        None,
    )
    record("polarization-identity", bad is None, bad and [list(bad[0]), list(bad[1])])

    total = form.gauss_sum()
    record(
        "milgram-gauss-sum",
        total == cyclo.sqrt_int(form.order) * cyclo.e_of(Fraction(form.signature(), 8)),
    )

    if form.signature() % 2 == 0:
        bad = rho_s_squared_failure(form, els[: min(len(els), 12)])
        record("rho-S-squared-is-Z", bad is None, None if bad is None else list(bad))

        iso = form.isotropic_elements()
        sample = iso[: min(len(iso), 6)]
        projected = [invariant_projection(form, g) for g in sample]
        record("inv-idempotent", all(invariant_projection(form, v) == v for v in projected))
        rows = [cyclo.integer_multiple(v.coeffs) for v in projected]  # rho fixes v exactly when it fixes these
        try:
            record("inv-image-fixed", None not in rows and check_invariant_basis(form, rows) is None)
        except InternalInconsistency:
            record("inv-image-fixed", False)
        # the first projection a second way: weil.inv, the average over the cusps
        record("cusp-partition", inv(form, sample[0]) == projected[0])
        if form.symbol is not None:
            closed = (projection_closed_form(form, g) for g in sample)
            record("closed-projection", all(pcf is None or pcf == v for pcf, v in zip(closed, projected)))
        if form.symbol is not None and dim_closed_form(str(form.symbol)) is not None:
            record("closed-dimension", dim_closed_form(str(form.symbol)) == dim_invariants(form))
        gens = invariant_generators(form)
        record("induced-rank", rank_of_vectors(gens) == dim_invariants(form))
    return checks


def _cmd_verify(args) -> dict:
    form, name = _load_form(args)
    doc = _form_header(form, name)
    doc["checks"] = _verify_battery(form)
    doc["pass"] = all(c["pass"] for c in doc["checks"])
    return doc


COMMANDS = {
    "dim": _cmd_dim,
    "invariants": _cmd_invariants,
    "induced-basis": _cmd_induced_basis,
    "verify": _cmd_verify,
    "s2dim": _cmd_s2dim,
    "jacobi": _cmd_jacobi,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weilinv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--symbol", help="genus symbol, e.g. 2_1^+1.4_5^-1.8_II^+2")
        src.add_argument("--gram", help="path to a JSON array-of-arrays Gram matrix")
        p.add_argument("--check", action="store_true", help="run cross validations")
        p.add_argument("--max-order", type=int, default=None, help="brute-force order bound")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "jacobi":
            p.add_argument("--precision", type=int, default=5, help="theta coefficients up to q^precision")
    return parser


def _render_text(doc: dict, out) -> None:
    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}.", v) if isinstance(v, (dict, list)) else out.write(f"{prefix}{k} = {v}\n")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}{i}.", v) if isinstance(v, (dict, list)) else out.write(f"{prefix}{i} = {v}\n")

    walk("", doc)


_ENCODE_STR = json.encoder.encode_basestring_ascii  # the C encoder of json.dumps' strings


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte.  With indent
    set, json.dumps runs its pure-Python encoder; this writer makes the same
    choices (str, None, True, False and int tested in that order, lists and
    tuples alike, keys sorted) in fewer steps.  Keys must be str; a key or a
    value of any other type raises TypeError."""
    return _encode(doc, "\n")


_INT = {int}


def _encode(o, newline: str) -> str:
    """o as JSON; newline is a newline and the indentation of o's first line."""
    if isinstance(o, str):
        return _ENCODE_STR(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if set(map(type, o)) == _INT:  # exact ints: True == 1 would share a cache entry
            return _int_list(tuple(o), newline)
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in o]) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_ENCODE_STR(k) + ": " + _encode(o[k], inner) for k in sorted(o)]  # a key not str raises
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


@cache
def _int_list(values: tuple[int, ...], newline: str) -> str:
    """A non-empty flat list of ints as _encode writes it; element lists
    repeat across the vectors of a document."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(str, values)) + newline + "]"


def exit_status_on_closed_pipe(run) -> int:
    """Call run(), which writes to stdout, and flush, also when it exits (as
    --help does).  A reader that closed the pipe early gives EXIT_IO without
    a traceback: stdout is pointed at os.devnull, so the interpreter's final
    flush stays quiet (Python docs, signal module, "Note on SIGPIPE")."""
    try:
        try:
            return run()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


def main(argv=None) -> int:
    return exit_status_on_closed_pipe(lambda: _run(build_parser().parse_args(argv)))


def _run(args) -> int:
    saved = vars(LIMITS).copy()  # the bounds of one call end with it
    try:
        apply_env_overrides()
        if args.max_order is not None:
            LIMITS.max_form_order = args.max_order
        doc = COMMANDS[args.command](args)
    except tuple(ERROR_CODES) as exc:
        code, status = next(v for klass, v in ERROR_CODES.items() if isinstance(exc, klass))
        print(json.dumps({"error": {"code": code, "message": str(exc)}}))
        return status
    finally:
        vars(LIMITS).update(saved)
    if args.format == "json":
        print(_dumps(doc))
    else:
        _render_text(doc, sys.stdout)
    if args.command == "verify" and not doc["pass"]:
        return EXIT_FAILED_CHECK
    if args.command in ("dim", "s2dim", "induced-basis") and args.check:
        if any(not c["pass"] for c in doc.get("check", [])):
            return EXIT_FAILED_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
