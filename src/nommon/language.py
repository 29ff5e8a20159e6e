"""Data languages over orbit-finite alphabets.

A language is never materialized: it is carried by a recognizer, a
generator map h0: Sigma -> M together with a finitely supported
predicate on M. Membership is evaluation followed by a predicate test;
boolean structure and syntactic monoids are computed on recognizers.
"""

from nommon.errors import InvalidInput, ensure_budget
from nommon.fssets import FsSubset, fs_boolean
from nommon.fssets import member as fs_member
from nommon.fssets import preimage_subset
from nommon.monoid import (
    GeneratorMap,
    coimage,
    congruence_generated,  # noqa: F401  (re-export convenience)
    Congruence,
    product_monoid,
    quotient,
)
from nommon.perm import fresh_stream
from nommon.sets import (
    Element,
    act,
    atoms_set,
    compose_maps,
    elements_with_support,
    map_from_concrete,
)


class Word:
    """A finite sequence of letters from one alphabet."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters):
        letters = tuple(letters)
        if any(x.set != alphabet for x in letters):
            raise InvalidInput("all letters must share the alphabet")
        self.alphabet = alphabet
        self.letters = letters

    @staticmethod
    def of_atoms(atoms):
        """A word over the alphabet A from plain atoms."""
        sigma = atoms_set()
        return Word(sigma, [Element(sigma, 0, [a]) for a in atoms])

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.alphabet, self.letters))

    def __repr__(self):
        return f"Word({[x.tuple for x in self.letters]})"


def act_word(pi, w):
    return Word(w.alphabet, [act(pi, x) for x in w.letters])


class Language:
    """A recognizable data language: generator map + predicate."""

    def __init__(self, genmap, predicate):
        if predicate.carrier != genmap.monoid.carrier:
            raise InvalidInput("predicate must live in the recognizing monoid")
        self.genmap = genmap
        self.predicate = predicate

    @property
    def alphabet(self):
        return self.genmap.sigma


def eval_word(genmap, w):
    if w.alphabet != genmap.sigma:
        raise InvalidInput("word alphabet does not match the generator map")
    return genmap.eval_word(w.letters)


def member(lang, w):
    return fs_member(lang.predicate, eval_word(lang.genmap, w))


def language_boolean(op, l1, l2=None):
    """Boolean combination, recognized through the pairing morphism."""
    if op == "complement":
        return Language(l1.genmap, fs_boolean("complement", l1.predicate))
    if l2 is None:
        raise InvalidInput(f"operation {op} needs two languages")
    if l1.alphabet != l2.alphabet:
        raise InvalidInput("alphabet mismatch")
    pm = product_monoid(l1.genmap.monoid, l2.genmap.monoid)
    h0 = map_from_concrete(
        l1.alphabet,
        pm.monoid.carrier,
        lambda x: pm.pairs.pair(l1.genmap(x), l2.genmap(x)),
    )
    u1 = preimage_subset(pm.pairs.proj_left, l1.predicate)
    u2 = preimage_subset(pm.pairs.proj_right, l2.predicate)
    return Language(
        GeneratorMap(l1.alphabet, pm.monoid, h0), fs_boolean(op, u1, u2)
    )


# --- syntactic monoids ----------------------------------------------------


class SyntacticResult:
    """Quotient by the two-sided syntactic congruence of a predicate."""

    def __init__(self, monoid, projection, predicate, congruence):
        self.monoid = monoid
        self.projection = projection
        self.predicate = predicate
        self.congruence = congruence


def syntactic_classes(m, p, budget=None):
    """The classes of the syntactic congruence of p on the context pool.

    The pool E holds the elements supported by supp(p) plus 4k fresh
    atoms; joint equivariance of the separation predicate makes it
    exhaustive for all orbit patterns. E contains the unit and is closed
    under multiplication, since supp(xy) is a subset of supp x | supp y.
    So "no context (u, v) in E x E tells x and y apart through p" is
    the coarsest partition of E that refines {p, not p} and is stable
    under multiplication by E on either side.

    That partition is found by Moore refinement over the multiplication
    table T[i][j] = index of e_i e_j, built once with |E|^2 multiplies
    (one tick each). Each round gives i the class of the key (class of
    i, classes of row i, classes of column i) and ticks once per
    element; it stops when the class count stops growing. Classes come
    in the order of their first member in E.
    """
    budget = ensure_budget(budget)
    if p.carrier != m.carrier:
        raise InvalidInput("predicate must live in the monoid's carrier")
    k = m.carrier.bound
    s = sorted(p.support)
    gen = fresh_stream(s)
    pool = s + [next(gen) for _ in range(4 * k)]
    elems = elements_with_support(m.carrier, pool, budget=budget)
    index = {e: i for i, e in enumerate(elems)}
    rows = []
    for x in elems:
        row = []
        for y in elems:
            budget.tick()
            row.append(index[m.multiply(x, y)])
        rows.append(row)
    columns = list(zip(*rows))
    cls = [int(fs_member(p, e)) for e in elems]
    count = len(set(cls))
    while True:
        ids = {}
        refined = []
        for i in range(len(elems)):
            budget.tick()
            key = (
                cls[i],
                tuple(map(cls.__getitem__, rows[i])),
                tuple(map(cls.__getitem__, columns[i])),
            )
            refined.append(ids.setdefault(key, len(ids)))
        cls = refined
        if len(ids) == count:
            break
        count = len(ids)
    groups = {}
    for x, c in zip(elems, cls):
        groups.setdefault(c, []).append(x)
    return list(groups.values())


def syntactic_congruence(m, p, budget=None):
    """m ~ m' iff no context (u, v) tells them apart through p.

    The classes come from ``syntactic_classes``; the congruence is
    presented by the pairs within each class, supported by supp(p).
    """
    budget = ensure_budget(budget)
    pairs = []
    for members in syntactic_classes(m, p, budget=budget):
        for x in members:
            for y in members:
                budget.tick()
                pairs.append(m.product.pair(x, y))
    subset = FsSubset.from_elements(m.product.set, p.support, pairs)
    return Congruence(m, subset)


def syntactic_monoid(m, p, budget=None):
    """The syntactic quotient of (m, p) with the transported predicate."""
    cong = syntactic_congruence(m, p, budget=budget)
    q = quotient(m, cong, budget=budget)
    pred = FsSubset.from_elements(
        q.monoid.carrier, p.support, [q.class_of(r) for r in p.reps()]
    )
    return SyntacticResult(q.monoid, q.projection, pred, cong)


def syntactic_of_language(lang, budget=None):
    """The syntactic recognizer of a language, as a new Language.

    The recognizer is first restricted to the submonoid generated by
    the letter images (the coimage of evaluation), so the result is
    the syntactic monoid of the language, not of the ambient predicate.
    """
    g, incl = coimage(lang.genmap)
    restricted_p = preimage_subset(incl.map, lang.predicate, budget=budget)
    syn = syntactic_monoid(g.monoid, restricted_p, budget=budget)
    h0 = GeneratorMap(
        lang.alphabet,
        syn.monoid,
        compose_maps(syn.projection.map, g.h0),
    )
    return Language(h0, syn.predicate), syn


# --- stock languages ------------------------------------------------------


def catalog_language(name):
    """Stock recognizers over the alphabet A.

    l0: some letter repeats adjacently. first-a / last-a: first (last)
    letter is the fixed atom 0. l2-fixed: words a w a for the fixed
    atom a = 0. l2-any: the union of a A* a over all atoms a.
    """
    from nommon.catalog import builder, letters_map

    sigma = atoms_set()
    if name == "l0":
        m = builder("l0_recognizer")
        gm = letters_map("l0_recognizer", m)
        flagged = [m.encode_state(0, 0, 1), m.encode_state(0, 1, 1)]
        return Language(gm, FsSubset.from_elements(m.carrier, (), flagged))
    if name in ("first-a", "last-a"):
        mon = "first_proj" if name == "first-a" else "last_proj"
        m = builder(mon)
        gm = letters_map(mon, m)
        a = Element(m.carrier, 1, [0])
        return Language(gm, FsSubset.singleton(a))
    if name in ("l2-fixed", "l2-any"):
        from nommon.catalog import builder as b
        from nommon.monoid import monoid_from_concrete
        from nommon.sets import strong_set

        pm = product_monoid(b("first_proj"), b("last_proj"))
        # length tracker 0 / 1 / 2-or-more; P1 x P2 alone cannot tell a
        # single letter a from a longer word a...a
        counter = strong_set([0, 0, 0])
        length = monoid_from_concrete(
            counter,
            Element(counter, 0, ()),
            lambda x, y: Element(counter, min(x.orbit + y.orbit, 2), ()),
        )
        pm2 = product_monoid(pm.monoid, length)
        one = Element(counter, 1, ())
        many = Element(counter, 2, ())

        def letter(x):
            fl = pm.pairs.pair(
                Element(pm.pairs.left, 1, x.tuple), Element(pm.pairs.right, 1, x.tuple)
            )
            return pm2.pairs.pair(fl, one)

        gm = GeneratorMap(
            sigma, pm2.monoid, map_from_concrete(sigma, pm2.monoid.carrier, letter)
        )
        aa = pm.pairs.pair(
            Element(pm.pairs.left, 1, [0]), Element(pm.pairs.right, 1, [0])
        )
        aa_long = pm2.pairs.pair(aa, many)
        if name == "l2-fixed":
            pred = FsSubset.singleton(aa_long)
        else:
            pred = FsSubset.from_elements(pm2.monoid.carrier, (), [aa_long])
        return Language(gm, pred)
    raise InvalidInput(f"unknown catalog language {name!r}")
