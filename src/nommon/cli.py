"""Batch command-line front end.

Exit codes: 0 = property holds / computation succeeded, 1 = property
refuted (a witness is in the report), 2 = input error, 3 = work budget
exhausted. Reports are deterministic for a given document, budget, and
seed; the seed is always printed.
"""

import argparse
import json
import os
import sys

from nommon.errors import Budget, BudgetExhausted, CapExceeded, InvalidInput

HOLDS, REFUTED, INPUT_ERROR, BUDGET_EXHAUSTED = 0, 1, 2, 3


def _parse_word_tokens(tokens):
    """'a b b a' or 'a0 a1 a1 a0' -> atom tuple."""
    atoms = []
    for tok in tokens:
        if len(tok) == 1 and tok.isalpha():
            atoms.append(ord(tok.lower()) - ord("a"))
        elif tok.startswith("a") and tok[1:].isdigit():
            atoms.append(int(tok[1:]))
        else:
            raise InvalidInput(f"cannot read letter {tok!r}")
    return tuple(atoms)


def _atom_name(a):
    return chr(ord("a") + a) if 0 <= a < 26 else f"a{a}"


def _fmt_element(x):
    atoms = " ".join(_atom_name(a) for a in x.tuple)
    return f"orbit {x.orbit}({atoms})" if atoms else f"orbit {x.orbit}()"


def _resolve_bound(name):
    from nommon import bounds

    if name == "first-letter":
        return bounds.first_letter_bound()
    if name == "endpoints":
        return bounds.endpoints_bound()
    if name.startswith("constant:"):
        atoms = _parse_word_tokens(name.split(":", 1)[1].split(","))
        return bounds.SupportBound.constant(atoms)
    raise InvalidInput(f"unknown bound {name!r}")


def _load_monoids(target, args):
    """A catalog name or a definition file; returns [(name, monoid)]."""
    from nommon.catalog import builder, catalog_names
    from nommon.monoid import NominalMonoid
    from nommon.textfmt import parse

    if target in catalog_names():
        return [(target, builder(target))]
    if os.path.exists(target):
        with open(target) as fh:
            objects = parse(fh.read())
        found = [
            (name, obj)
            for name, obj in objects.items()
            if isinstance(obj, NominalMonoid)
        ]
        if args.name:
            found = [(n, m) for n, m in found if n == args.name]
        if not found:
            raise InvalidInput(f"no monoid found in {target!r}")
        return found
    raise InvalidInput(f"{target!r} is neither a catalog monoid nor a file")


def _resolve_quotient(name, args):
    from nommon.catalog import catalog_quotient
    from nommon.monoid import MonoidMorphism
    from nommon.textfmt import parse

    alias = {"ex-compare": "compare", "ex-no-s-quot": "no-s-quot"}
    key = alias.get(name, name)
    if key in ("compare", "no-s-quot"):
        return catalog_quotient(key)
    if os.path.exists(name):
        with open(name) as fh:
            objects = parse(fh.read())
        morphisms = [o for o in objects.values() if isinstance(o, MonoidMorphism)]
        if args.name:
            morphisms = [
                o
                for n, o in objects.items()
                if n == args.name and isinstance(o, MonoidMorphism)
            ]
        if len(morphisms) != 1:
            raise InvalidInput("expected exactly one morphism (use --name)")
        return morphisms[0]
    raise InvalidInput(f"unknown quotient {name!r}")


class Report:
    def __init__(self, args):
        self.lines = []
        self.args = args

    def say(self, text):
        self.lines.append(text)

    def emit(self, command, code):
        if self.args.format == "json-report":
            print(
                json.dumps(
                    {
                        "command": command,
                        "seed": self.args.seed,
                        "exit": code,
                        "report": self.lines,
                    },
                    indent=2,
                )
            )
        else:
            for line in self.lines:
                print(line)
            print(f"seed: {self.args.seed}")
        return code


# --- commands -------------------------------------------------------------


def cmd_validate(args, report, budget):
    from nommon.monoid import validate_monoid

    code = HOLDS
    for name, m in _load_monoids(args.target, args):
        r = validate_monoid(m, budget=budget)
        if r.ok:
            report.say(f"{name}: valid ({len(m.carrier.orbits)} orbits)")
        else:
            kind, witness = r.failures[0]
            report.say(f"{name}: INVALID ({kind} at {witness})")
            code = REFUTED
    return code


def cmd_orbits(args, report, budget):
    for name, m in _load_monoids(args.target, args):
        report.say(f"{name}: {len(m.carrier.orbits)} orbits")
        for i, d in enumerate(m.carrier.orbits):
            sym = "" if len(d.group) == 1 else f", |G| = {len(d.group)}"
            report.say(f"  orbit {i}: dim {d.dim}{sym}")
    return HOLDS


def _load_language(name):
    from nommon.language import catalog_language

    alias = {"L0": "l0", "l0": "l0"}
    return catalog_language(alias.get(name, name))


def cmd_member(args, report, budget):
    from nommon.language import Word, eval_word, member

    lang = _load_language(args.language)
    w = Word.of_atoms(_parse_word_tokens(args.word.split()))
    value = eval_word(lang.genmap, w)
    inside = member(lang, w)
    report.say(f"h(w) = {_fmt_element(value)}")
    report.say("member" if inside else "not a member")
    return HOLDS if inside else REFUTED


def cmd_syntactic(args, report, budget):
    from nommon.language import syntactic_of_language
    from nommon.sets import orbit_reps

    lang = _load_language(args.language)
    _, syn = syntactic_of_language(lang, budget=budget)
    dims = sorted(d.dim for d in syn.monoid.carrier.orbits)
    max_supp = max(len(r.tuple) for r in orbit_reps(syn.monoid.carrier))
    report.say(f"syntactic monoid: {len(dims)} orbits, dims {dims}")
    report.say(f"maximal support size: {max_supp}")
    return HOLDS


def cmd_aperiodic(args, report, budget):
    from nommon.monoid import is_aperiodic, omega_power
    from nommon.sets import orbit_reps

    code = HOLDS
    for name, m in _load_monoids(args.target, args):
        if is_aperiodic(m):
            report.say(f"{name}: aperiodic")
        else:
            witness = next(
                x
                for x in orbit_reps(m.carrier)
                if m.multiply(omega_power(m, x), x) != omega_power(m, x)
            )
            report.say(f"{name}: NOT aperiodic, witness {_fmt_element(witness)}")
            code = REFUTED
    return code


def cmd_proeq(args, report, budget):
    from nommon.prolimit import aperiodicity_equation, satisfies_explicit
    from nommon.sets import atoms_set

    s = _resolve_bound(args.bound)
    lhs, rhs = aperiodicity_equation()
    code = HOLDS
    for name, m in _load_monoids(args.target, args):
        rep = satisfies_explicit(m, atoms_set(), s, lhs, rhs, budget=budget)
        if rep.holds:
            report.say(f"{name}: satisfies x^w.x = x^w")
        else:
            _h, left, right = rep.counterexample
            report.say(
                f"{name}: REFUTED with {_fmt_element(left)} != {_fmt_element(right)}"
            )
            code = REFUTED
    return code


def cmd_classify_quotient(args, report, budget):
    from nommon.bounds import classify_quotient

    e = _resolve_quotient(args.quotient, args)
    res = classify_quotient(e, budget=budget)
    report.say(f"support-preserving: {'yes' if res.support_preserving else 'no'}")
    report.say(f"support-reflecting: {'yes' if res.support_reflecting else 'no'}")
    report.say(f"msr: {'yes' if res.msr else 'no'}")
    if res.certificate is not None:
        report.say(f"msr certificate orbits: {list(res.certificate)}")
    else:
        report.say(f"msr search exhausted {res.searched} orbit subsets")
    if args.expect:
        expected = {
            "support-preserving": res.support_preserving,
            "support-reflecting": res.support_reflecting,
            "msr": res.msr,
        }.get(args.expect)
        if expected is None:
            raise InvalidInput(f"unknown expectation {args.expect!r}")
        if not expected:
            report.say(f"expectation {args.expect!r} refuted")
            return REFUTED
    return HOLDS


def cmd_factor(args, report, budget):
    from nommon.bounds import factor_through
    from nommon.catalog import catalog_names, letters_map

    e = _resolve_quotient(args.quotient, args)
    # the map to factor: the canonical letter evaluation of the codomain
    target_name = next(
        (
            n
            for n in catalog_names()
            if builder_carrier_matches(n, e.cod)
        ),
        None,
    )
    if target_name is None:
        raise InvalidInput("cannot infer a canonical evaluation of the codomain")
    h0 = letters_map(target_name, e.cod)
    lift = factor_through(h0, e, _resolve_bound(args.bound), budget=budget)
    if lift is None:
        report.say("no s-bounded factorization exists (search exhausted)")
        return REFUTED
    from nommon.sets import Element, atoms_set

    a = Element(atoms_set(), 0, [0])
    report.say(f"factorization found: a -> {_fmt_element(lift(a))}")
    return HOLDS


def builder_carrier_matches(name, monoid):
    from nommon.catalog import builder

    try:
        return builder(name).carrier == monoid.carrier
    except InvalidInput:
        return False


def cmd_join(args, report, budget):
    from nommon.bounds import join_s_bounded
    from nommon.catalog import letters_map

    s = _resolve_bound(args.bound)
    jn = join_s_bounded(
        letters_map(args.left), letters_map(args.right), s, budget=budget
    )
    report.say(f"join monoid: {len(jn.monoid.carrier.orbits)} orbits")
    if jn.bound_report.ok:
        report.say("join re-verifies s-bounded")
        return HOLDS
    value, ref = jn.bound_report.witness
    report.say(
        f"join is NOT s-bounded: supp {_fmt_element(value)} exceeds "
        f"{_fmt_element(ref)}"
    )
    return REFUTED


def cmd_dist(args, report, budget):
    from nommon.language import Word
    from nommon.prolimit import DsScope, d_s

    if args.scope == "catalog":
        scope = DsScope.catalog()
    else:
        scope = DsScope.exhaustive(args.max_orbits, args.max_dim)
    v = Word.of_atoms(_parse_word_tokens(args.word1.split()))
    w = Word.of_atoms(_parse_word_tokens(args.word2.split()))
    res = d_s(v, w, _resolve_bound(args.bound), scope, budget=budget)
    report.say(f"d_s = {res.value}")
    report.say(f"scope: {res.exhausted_scope}")
    if res.certificate is not None:
        m, _h, (hv, hw) = res.certificate
        report.say(
            f"separated by a {len(m.carrier.orbits)}-orbit monoid: "
            f"{_fmt_element(hv)} != {_fmt_element(hw)}"
        )
    return HOLDS


def cmd_stage(args, report, budget):
    from nommon.language import Word, member
    from nommon.prolimit import (
        build_stage,
        clopen_of_language,
        eta,
        language_of_clopen,
        stage_eval,
    )
    from nommon.sets import atoms_set
    import itertools

    langs = [_load_language(n) for n in args.languages]
    stage = build_stage(
        atoms_set(), _resolve_bound(args.bound), [l.genmap for l in langs],
        budget=budget,
    )
    report.say(
        f"stage of {len(langs)} quotients; joined monoid has "
        f"{len(stage.monoid.carrier.orbits)} orbits"
    )
    for t in itertools.chain.from_iterable(
        itertools.product((0, 1, 2), repeat=n) for n in range(4)
    ):
        w = Word.of_atoms(t)
        x = eta(stage, w)
        for i, q in enumerate(stage.quotients):
            if stage_eval(stage, i, x) != q.eval_word(w.letters):
                report.say(f"compatible-family condition FAILED at {t}")
                return REFUTED
        for lang in langs:
            back = language_of_clopen(stage, clopen_of_language(stage, lang))
            if member(back, w) != member(lang, w):
                report.say(f"clopen round-trip FAILED at {t}")
                return REFUTED
    report.say("compatible-family condition and clopen round-trips verified")
    return HOLDS


def cmd_demo_paper(args, report, budget):
    from nommon.acceptance import run_all

    code = HOLDS
    for number, title, ok, detail in run_all():
        status = "PASS" if ok else "FAIL"
        report.say(f"criterion {number:2d} {status} {title}: {detail}")
        if not ok:
            code = REFUTED
    return code


# --- argument plumbing ----------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=2_000_000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--format", choices=("text", "json-report"), default="text"
    )
    parser = argparse.ArgumentParser(
        prog="nommon",
        description="decision procedures for orbit-finite nominal monoids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate)
    p.add_argument("target")
    p.add_argument("--name")
    p = add("orbits", cmd_orbits)
    p.add_argument("target")
    p.add_argument("--name")
    p = add("member", cmd_member)
    p.add_argument("language")
    p.add_argument("word")
    p = add("syntactic", cmd_syntactic)
    p.add_argument("language")
    p = add("aperiodic", cmd_aperiodic)
    p.add_argument("target")
    p.add_argument("--name")
    p = add("proeq", cmd_proeq)
    p.add_argument("target")
    p.add_argument("--name")
    p.add_argument("--bound", default="first-letter")
    p = add("classify-quotient", cmd_classify_quotient)
    p.add_argument("quotient")
    p.add_argument("--name")
    p.add_argument("--expect")
    p = add("factor", cmd_factor)
    p.add_argument("quotient")
    p.add_argument("--name")
    p.add_argument("--bound", default="first-letter")
    p = add("join", cmd_join)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--bound", default="first-letter")
    p = add("dist", cmd_dist)
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--scope", choices=("catalog", "exhaustive"), default="exhaustive")
    p.add_argument("--max-orbits", type=int, default=2)
    p.add_argument("--max-dim", type=int, default=1)
    p.add_argument("--bound", default="first-letter")
    p = add("stage", cmd_stage)
    p.add_argument("languages", nargs="+")
    p.add_argument("--bound", default="endpoints")
    add("demo-paper", cmd_demo_paper)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code not in (0, None) else 0
    report = Report(args)
    budget = Budget(args.budget)
    try:
        code = args.fn(args, report, budget)
    except BudgetExhausted as exc:
        report.say(f"budget exhausted: {exc}")
        code = BUDGET_EXHAUSTED
    except (InvalidInput, CapExceeded, OSError) as exc:
        report.say(f"input error: {exc}")
        code = INPUT_ERROR
    return report.emit(args.command, code)


if __name__ == "__main__":
    sys.exit(main())
