"""Command-line driver: code construction, searches, and the reproduction suite.

Output discipline: machine-readable JSON (or JSONL for search) on stdout or
--out, human-readable progress and tables on stderr.  Every command is
deterministic given its flags and seed; no timestamps enter any output.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import bounds as bnd
from .codes import (
    LinearCode,
    build_code,
    code_document,
    min_distance,
    weight_enumerator,
)
from .families import (
    DegenerateInput,
    classify_cubic,
    del_pezzo4_fixture,
    del_pezzo6,
    frobenius_orbit,
    geometric_witness_dp6,
    random_cubic_search,
    sample_cayley_salmon,
    shioda_surface,
    van_luijk_surface,
)
from .gf import field_spec_string, make_field, parse_field_spec
from .poly import HomogPoly, monomials
from .projective import (
    BudgetExceeded,
    Surface,
    count_rational_points,
    lines_on_surface,
    section_scan,
    surface_from_text,
    surface_to_text,
)

DEFAULT_BUDGET = 2_000_000
_CAYLEY_SALMON = ("cayley-salmon", "cayley-salmon-c12", "c12")  # names of one family


def _info(msg: str):
    print(msg, file=sys.stderr)


def _load_surface(args) -> Surface:
    if getattr(args, "surface", None):
        text = Path(args.surface).read_text()
        return surface_from_text(text)
    family = getattr(args, "family", None)
    if not family:
        raise ValueError("provide --surface FILE or --family NAME")
    fld = parse_field_spec(args.field) if args.field else make_field(7)
    if family == "del-pezzo-4":
        return del_pezzo4_fixture(fld)
    if family == "del-pezzo-6":
        return del_pezzo6(frobenius_orbit(fld, seed=args.seed))
    if family == "shioda":
        if not args.m:
            raise ValueError("shioda family needs --m DEGREE")
        return shioda_surface(args.m, fld)
    if family == "van-luijk":
        rng = random.Random(args.seed * 1_000_003)
        basis = monomials(4, 4)
        h = {mono: rng.randrange(fld.q) for mono in basis}
        return van_luijk_surface(HomogPoly(fld, 4, 4, h), fld)
    if family in _CAYLEY_SALMON:
        return sample_cayley_salmon(fld, args.seed).surface
    raise ValueError(f"unknown family {family!r}")


def _distance_hint(surface: Surface, code: LinearCode):
    if surface.family == "del-pezzo-6" and code.s == 2 and surface.fld.q > 5:
        return geometric_witness_dp6(surface)
    return None


def _certify(surface: Surface, s: int, strategy: str, budget: int, workers: int):
    """Build the degree-s code and certify its distance, offering the family's
    geometric witness (returned as the hint) as an upper bound."""
    code = build_code(surface, s)
    hint = _distance_hint(surface, code)
    dist = min_distance(code, strategy, budget, upper_hint=hint, workers=workers)
    return code, dist, hint


def _analyze(surface: Surface, s: int, strategy: str, budget: int, workers: int):
    """Certify the degree-s code and attach the bound report."""
    code, dist, _ = _certify(surface, s, strategy, budget, workers)
    observed = {s: (dist.upper, dist.exact)}
    if s > 1:
        _, base_d, _ = _certify(surface, 1, "auto", budget, workers)
        if base_d.exact:
            observed[1] = (base_d.d, True)
    report = bnd.build_bound_report(surface.fld.q, surface.sectional_genus, code.n, observed)
    return code, dist, report


def cmd_build_code(args) -> int:
    surface = _load_surface(args)
    code, dist, report = _analyze(surface, args.degree, args.strategy, args.budget, args.workers)
    wenum = None
    if args.enumerator:
        wenum = weight_enumerator(code)
    doc = code_document(code, dist, wenum, report.to_json(), include_matrix=args.matrix)
    _emit(args, doc)
    _info(f"[{code.n},{code.k},{_dstr(dist)}] over GF({code.fld.q})  method={dist.method}")
    return 0


def cmd_min_dist(args) -> int:
    surface = _load_surface(args)
    code, dist, _ = _certify(surface, args.degree, args.strategy, args.budget, args.workers)
    _emit(args, {"field": field_spec_string(code.fld), "n": code.n, "k": code.k,
                 **dist.to_json()})
    _info(f"d in [{dist.lower}, {dist.upper}] exact={dist.exact} work={dist.work}")
    return 0


def cmd_classify(args) -> int:
    surface = _load_surface(args)
    result = classify_cubic(surface, args.depth)
    doc = result.to_json()
    doc["surface"] = surface.label or surface.family
    _emit(args, doc)
    _info(f"class: {result.matched}  N_r={result.observed}  lines={result.line_count}")
    return 0


def cmd_scan_sections(args) -> int:
    surface = _load_surface(args)
    scan = section_scan(surface)
    doc = {
        "surface": surface.label or surface.family,
        "histogram": {str(k): v for k, v in sorted(scan.histogram.items())},
        "max_count": scan.max_count,
        "total_hyperplanes": scan.total_hyperplanes,
        "witness_hyperplanes": [[int(v) for v in row] for row in scan.witnesses],
    }
    if surface.sectional_genus == 1:
        opt = bnd.optimal_g1_count(surface.fld.q)
        doc["optimal_genus1_count"] = opt.value
        doc["optimal_genus1_certified"] = opt.certified
        doc["max_is_optimal"] = scan.max_count == opt.value
    _emit(args, doc)
    _info(f"max section count = {scan.max_count} over {scan.total_hyperplanes} hyperplanes")
    return 0


def cmd_search(args) -> int:
    fld = parse_field_spec(args.field) if args.field else make_field(7)
    family = args.family or "random-cubic"
    if family in _CAYLEY_SALMON:
        if args.target not in (None, "C12"):
            raise ValueError(f"the cayley-salmon family searches C12 only, not {args.target!r}")
        target = "C12"
    elif family == "random-cubic":
        target = args.target
    else:
        raise ValueError(f"search supports cayley-salmon or random-cubic, not {family!r}")
    out_path = Path(args.out) if args.out else None
    done_substreams: set[tuple] = set()  # (seed, substream) pairs
    written_hits: set[tuple] = set()  # hit rows of a substream cut before its end
    if out_path and out_path.exists():
        raw = out_path.read_bytes()
        text = raw[: raw.rfind(b"\n") + 1]
        if text != raw:  # drop a row cut mid-line; the rerun writes it whole
            out_path.write_bytes(text)
        for line in text.decode().splitlines():
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, dict):
                continue
            if obj.get("substream_complete") is not None:
                done_substreams.add((obj.get("seed"), obj["substream_complete"]))
            else:
                written_hits.add((obj.get("seed"), obj.get("substream"), obj.get("index")))
    sink = out_path.open("a") if out_path else sys.stdout
    try:
        for sub in range(args.substreams):
            if (args.seed, sub) in done_substreams:
                _info(f"substream {sub}: already complete, skipping")
                continue
            hits = random_cubic_search(
                fld, target, args.seed, args.budget, substream=sub,
                classify_depth=args.depth,
            )
            for hit in hits:
                if (hit.seed, hit.substream, hit.index) in written_hits:
                    continue
                code, dist, report = _analyze(hit.surface, 1, "auto", args.budget_distance, args.workers)
                row = {
                    "seed": hit.seed,
                    "substream": hit.substream,
                    "index": hit.index,
                    "coefficients": surface_to_text(hit.surface).splitlines()[2:],
                    "classification": hit.classification.to_json(),
                    "smooth": hit.classification.smooth_label,
                    "code": code_document(code, dist),
                    "bounds": report.to_json(),
                }
                print(json.dumps(row, sort_keys=True), file=sink)
            print(json.dumps({"substream_complete": sub, "seed": args.seed, "hits": len(hits)}), file=sink)
            _info(f"substream {sub}: {len(hits)} hits / {args.budget} samples")
    finally:
        if out_path:
            sink.close()
    return 0


# -- paper reproduction ----------------------------------------------------------------


class _Row:
    def __init__(self, rows: list):
        self.rows = rows

    def check(self, rid: str, expected, computed):
        ok = expected == computed
        self.rows.append({"id": rid, "expected": expected, "computed": computed, "pass": ok})
        _info(f"{'PASS' if ok else 'FAIL'}  {rid}: expected {expected}, computed {computed}")
        return ok

    def check_pred(self, rid: str, description: str, ok: bool, computed):
        self.rows.append({"id": rid, "expected": description, "computed": computed, "pass": bool(ok)})
        _info(f"{'PASS' if ok else 'FAIL'}  {rid}: {description} -> {computed}")
        return ok


def _dstr(dist) -> str:
    return str(dist.upper) if dist.exact else f"[{dist.lower},{dist.upper}]"


def cmd_verify_paper(args) -> int:
    rows: list = []
    t = _Row(rows)
    budget = args.budget

    f7 = make_field(7)

    # rows aggregate into three conformance pools at the end: Singleton holds
    # for every code; the genus bound and alarm silence only apply where the
    # NS-generation hypothesis is plausible (the Del Pezzo-6 has rank 2, so
    # the alarm firing there is the expected positive).
    singleton_rows = []
    rho_one_reports = []
    dp6_reports = []

    def certify_row(rid, surface, s, strategy, row_budget, expected, reports):
        """Certify a code, check its [n, k, d] row (none if expected is None), pool it."""
        code, dist, report = _analyze(surface, s, strategy, row_budget, args.workers)
        if expected is not None:
            t.check(rid, expected, [code.n, code.k, dist.upper if dist.exact else None])
        singleton_rows.append((code, dist))
        reports.append((code, report))
        return code, dist

    dp4 = del_pezzo4_fixture(f7)
    t.check("dp4-q7-points", 57, int(dp4.count_points(1)))
    certify_row("dp4-q7-s1", dp4, 1, "exhaustive", budget, [57, 5, 44], rho_one_reports)
    t.check("dp4-q7-lines", 0, len(lines_on_surface(dp4)))
    t.check("dp4-q7-section-max", 13, section_scan(dp4).max_count)

    for p, m in ((7, 1), (2, 3), (3, 2)):
        fld = make_field(p, m)
        q = fld.q
        dp6 = del_pezzo6(frobenius_orbit(fld, seed=args.seed))
        c1, d1 = certify_row(f"dp6-q{q}-s1", dp6, 1, "exhaustive", max(budget, 1_000_000),
                             [q * q + q + 1, 7, q * q - q - 1], dp6_reports)
        c2, d2, wit = _certify(dp6, 2, "information-set", budget, args.workers)
        t.check(f"dp6-q{q}-s2-k", 19, c2.k)
        t.check(f"dp6-q{q}-s2-witness-weight", q * q - 3 * q - 1, int((wit != 0).sum()))
        if q in (7, 9):
            target = q * q - 3 * q - 1
            t.check_pred(
                f"dp6-q{q}-s2-interval",
                f"certified interval contains {target}",
                d2.lower <= target <= d2.upper,
                [int(d2.lower), int(d2.upper)],
            )
        else:
            ok = d2.lower <= 37 <= d2.upper and not (d2.exact and d2.upper == 39)
            t.check_pred(
                "dp6-q8-s2-interval-37",
                "interval contains 37 and does not certify 39",
                ok, [int(d2.lower), int(d2.upper)],
            )
        singleton_rows.append((c2, d2))
        t.check_pred(
            f"dp6-q{q}-s2-zero-relation",
            f"n - d2_upper <= 2*(n - d1) with best-known d2",
            (c2.n - d2.upper) <= 2 * (c1.n - d1.upper),
            [c2.n - int(d2.upper), 2 * (c1.n - int(d1.upper))],
        )

    sample = sample_cayley_salmon(f7, seed=args.seed)
    t.check("c12-q7-Nr",
            {1: bnd.predicted_Nr("C12", 7, 1), 2: bnd.predicted_Nr("C12", 7, 2),
             3: bnd.predicted_Nr("C12", 7, 3)},
            sample.classification.observed)
    scan = section_scan(sample.surface)
    t.check("c12-q7-section-max", 13, scan.max_count)
    _, dd1 = certify_row("c12-q7-s1", sample.surface, 1, "exhaustive", budget,
                         [64, 4, 51] if scan.max_count == 13 else None, rho_one_reports)
    _, dd2 = certify_row("c12-q7-s2", sample.surface, 2, "auto", 20_000_000, [64, 10, 38],
                         rho_one_reports)
    t.check_pred("c12-q7-s2-zero-doubling", "n - d_2 == 2*(n - d_1) == 26",
                 (64 - dd2.upper) == 2 * (64 - dd1.upper) == 26,
                 [64 - dd2.upper, 2 * (64 - dd1.upper)])

    for m, fld, expected in ((4, make_field(11), [144, 4, 120]), (5, make_field(3, 2), [91, 4, 71])):
        x = shioda_surface(m, fld)
        certify_row(f"shioda{m}-q{fld.q}-s1", x, 1, "exhaustive", budget, expected, rho_one_reports)
        t.check(f"shioda{m}-q{fld.q}-lines", 0, len(lines_on_surface(x)))

    wcub = HomogPoly.from_int_terms(f7, 3, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -3})
    t.check("weierstrass-q7-points", 13, count_rational_points([wcub]))
    t.check("optimal-g1-q7", 13, bnd.optimal_g1_count(7).value)

    singleton_ok = all(c.k + d.upper <= c.n + 1 for c, d in singleton_rows if d.exact)
    t.check_pred("singleton-bound", "k + d <= n + 1 on every exact code", singleton_ok,
                 [[c.n, c.k, int(d.upper)] for c, d in singleton_rows if d.exact])
    bound_ok = all(v for _, rep in rho_one_reports for v in rep.verdicts.values())
    t.check_pred("genus-bound-conformance",
                 "every recorded bound verdict holds where NS-generation applies",
                 bound_ok, bound_ok)
    alarms = [c.surface_ref for c, rep in rho_one_reports if rep.ns_alarm]
    t.check_pred("ns-alarm-silent", "no NS alarm on any rank-one-consistent surface",
                 not alarms, alarms)
    dp6_alarms = [bool(rep.ns_alarm) for _, rep in dp6_reports]
    t.check_pred("dp6-ns-alarm-fires",
                 "alarm detects that the hyperplane class cannot generate NS (rank 2)",
                 all(dp6_alarms), dp6_alarms)

    doc = {"rows": rows, "all_pass": all(r["pass"] for r in rows), "seed": args.seed}
    _emit(args, doc)
    n_fail = sum(not r["pass"] for r in rows)
    _info(f"{len(rows) - n_fail}/{len(rows)} rows pass")
    return 0 if n_fail == 0 else 1


# -- wiring -------------------------------------------------------------------------


def _emit(args, doc):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def positive_int(text: str) -> int:
    """A flag value that counts something: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is not positive")
    return value


def _add_common(sp, *, surface_source=True):
    sp.add_argument("--field", help="field spec, e.g. 7, 7^2, 2^3/1,1,0,1")
    if surface_source:
        sp.add_argument("--surface", help="surface text file")
        sp.add_argument("--family", help="del-pezzo-4|del-pezzo-6|shioda|van-luijk|cayley-salmon")
        sp.add_argument("--m", type=int, help="degree for the shioda family")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET,
                    help="work budget (codeword enumerations)")
    sp.add_argument("--workers", type=positive_int, default=1)
    sp.add_argument("--out", help="write JSON here instead of stdout")


_COMMANDS = {  # name: (help, function)
    "build-code": ("construct a code and certify its distance", cmd_build_code),
    "min-dist": ("certify minimum distance only", cmd_min_dist),
    "classify": ("zeta-class a cubic surface by point counts", cmd_classify),
    "scan-sections": ("hyperplane section point-count histogram", cmd_scan_sections),
    "search": ("seeded random search for classified cubics", cmd_search),
    "verify-paper": ("run the desk-scale reproduction table", cmd_verify_paper),
}


def _add_flags(sp: argparse.ArgumentParser, command: str):
    """The help and flags of one subcommand, whose parser was made without them."""
    sp.add_argument("-h", "--help", action="help", default=argparse.SUPPRESS,
                    help="show this help message and exit")
    _add_common(sp, surface_source=command not in ("search", "verify-paper"))
    if command in ("build-code", "min-dist"):
        degree_help = "evaluation degree s" if command == "build-code" else None
        sp.add_argument("--degree", type=int, default=1, help=degree_help)
        sp.add_argument("--strategy", default="auto", choices=["auto", "exhaustive", "isd", "information-set"])
    if command == "build-code":
        sp.add_argument("--enumerator", action="store_true", help="include the weight enumerator")
        sp.add_argument("--matrix", action="store_true", help="include the generator matrix")
    if command == "classify":
        sp.add_argument("--depth", type=positive_int, default=3, help="max extension degree for counts")
    if command == "search":
        sp.add_argument("--family", help="cayley-salmon | random-cubic (default)")
        sp.add_argument("--target", help="C10..C14 for random-cubic searches")
        sp.add_argument("--substreams", type=positive_int, default=1)
        sp.add_argument("--depth", type=positive_int, default=3, help="classification depth")
        sp.add_argument("--budget-distance", type=positive_int, default=DEFAULT_BUDGET)
    if command == "verify-paper":
        # the paper's table is drawn at seed 1; every other command defaults to 0
        sp.set_defaults(seed=1)
    sp.set_defaults(fn=_COMMANDS[command][1])


def _subcommands(ap: argparse.ArgumentParser) -> dict:
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, whose subcommands have only their names (see `_add_flags`)."""
    ap = argparse.ArgumentParser(
        prog="evalcodes",
        description="evaluation codes from projective surfaces over finite fields",
    )
    ap.add_argument("--config", help="JSON file of default flag values (flags win)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, add_help=False)
    return ap


def _config_value(action: argparse.Action, key: str, value):
    """A config value as its flag would parse it: a switch takes a JSON
    boolean, any other flag the value's text, through its type and choices."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    try:
        converted = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError):
        raise ValueError(f"config key {key!r}: invalid {action.type.__name__} value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"config key {key!r}: invalid choice {value!r} "
                         f"(choose from {', '.join(action.choices)})")
    return converted


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = ap.parse_args(argv)
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
        if not isinstance(overrides, dict):
            raise ValueError(f"config file {args.config} does not hold a JSON object")
        command = _subcommands(ap)[args.command]
        actions = {a.dest: a for a in command._actions if hasattr(args, a.dest)}
        defaults = {}
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr in actions:
                defaults[attr] = _config_value(actions[attr], key, value)
        # the config values become the command's defaults, so any flag given
        # (an abbreviation too) wins over them
        command.set_defaults(**defaults)
        args = ap.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # a first parse finds the command; only its flags are built for the second
        ap = build_parser()
        command = ap.parse_known_args(argv)[0].command
        _add_flags(_subcommands(ap)[command], command)
        args = _apply_config(ap, argv)
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError, DegenerateInput, BudgetExceeded) as exc:
        _info(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
