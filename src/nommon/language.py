"""Data languages over orbit-finite alphabets.

A language is never materialized: it is carried by a recognizer, a
generator map h0: Sigma -> M together with a finitely supported
predicate on M. Membership is evaluation followed by a predicate test;
boolean structure is computed on recognizers, and syntactic congruences
on the S-orbits of pairs of M, for S the predicate's support.
"""

from nommon.bounds import endpoints_bound, join
from nommon.errors import InvalidInput, ensure_budget
from nommon.fssets import FsSubset, fs_boolean
from nommon.fssets import member as fs_member
from nommon.fssets import preimage_subset
from nommon.monoid import (
    GeneratorMap,
    coimage,
    Congruence,
    generating_orbits,
    monoid_from_concrete,
    quotient,
)
from nommon.sets import (
    Element,
    act,
    atoms_set,
    compose_maps,
    map_from_concrete,
    pair_s_orbit_key,
    s_key_atoms,
    s_orbit_keys,
    s_orbit_reps,
    strong_set,
)


class Word:
    """A finite sequence of letters from one alphabet."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters):
        letters = tuple(letters)
        # carriers are interned, so an equal alphabet is this very object
        if any(x.set is not alphabet for x in letters):
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
    if w.alphabet is not genmap.sigma:
        raise InvalidInput("word alphabet does not match the generator map")
    return genmap.eval_word(w.letters)


def member(lang, w):
    return fs_member(lang.predicate, eval_word(lang.genmap, w))


def language_boolean(op, l1, l2=None, budget=None):
    """Boolean combination. A complement keeps the recognizer; a binary
    one is recognized by the join of the two recognizers (the image of
    their pairing), with both predicates pulled back along its
    projections. The join and the predicates' key operations are charged
    to ``budget``."""
    budget = ensure_budget(budget)
    if op == "complement":
        complement = fs_boolean("complement", l1.predicate, budget=budget)
        return Language(l1.genmap, complement)
    if l2 is None:
        raise InvalidInput(f"operation {op} needs two languages")
    if l1.alphabet != l2.alphabet:
        raise InvalidInput("alphabet mismatch")
    jn = join(l1.genmap, l2.genmap, budget)
    u1 = preimage_subset(jn.left.map, l1.predicate, budget=budget)
    u2 = preimage_subset(jn.right.map, l2.predicate, budget=budget)
    return Language(jn.genmap, fs_boolean(op, u1, u2, budget=budget))


# --- syntactic monoids ----------------------------------------------------


class SyntacticResult:
    """Quotient by the two-sided syntactic congruence of a predicate."""

    def __init__(self, monoid, projection, predicate, congruence):
        self.monoid = monoid
        self.projection = projection
        self.predicate = predicate
        self.congruence = congruence


def syntactic_congruence(m, p, budget=None):
    """m ~ m' iff no context (u, v) tells them apart through p.

    ~ is the greatest relation inside {(x, y) : p(x) = p(y)} closed
    under multiplying both components by a generator on either side;
    closure under generators is closure under all of m. It is
    Perm_S-invariant for S = supp p, so it is computed on the keys of
    the S-orbits of M x M:

    - a node per key, whose pair is decoded off the key's labels
      (``s_key_atoms``, ``ProductSet.components``) with no product
      element built; it starts out removed when p separates its pair;
    - the node of (x, y) has edges to the S-orbits of (ux, uy) and
      (xu, yu) for u over the Perm_{S + supp x + supp y}-orbit
      representatives of the ``generating_orbits``, since a permutation
      fixing S, x and y keeps each target in its S-orbit, whose key
      ``pair_s_orbit_key`` reads with no element built;
    - removal spreads backwards along the edges in one stack pass;
      diagonal nodes reach only diagonal ones, so they get no edges.

    The kept keys are the pair set. One tick per full-key tuple and per
    tuple of a context enumeration (memoized per support), one before
    each multiply and one per removed node popped.
    """
    budget = ensure_budget(budget)
    if p.carrier != m.carrier:
        raise InvalidInput("predicate must live in the monoid's carrier")
    s = p.support
    prod = m.product
    gens = sorted(generating_orbits(m))
    nodes = list(s_orbit_keys(prod.set, len(s), budget))
    preds = {key: [] for key in nodes}
    removed = []
    contexts = {}  # S + supp x + supp y -> generator representatives

    def times(x, y):
        budget.tick()
        return m.multiply(x, y)

    for key in nodes:
        orbit, labels = key
        atoms = s_key_atoms(labels, s)
        x, y = prod.components(orbit, atoms)
        if x == y:
            continue
        if fs_member(p, x) != fs_member(p, y):
            removed.append(key)
            continue
        t = s.union(atoms)
        us = contexts.get(t)
        if us is None:
            us = contexts[t] = s_orbit_reps(m.carrier, t, budget=budget, orbits=gens)
        for u in us:
            preds[pair_s_orbit_key(prod, times(u, x), times(u, y), s)].append(key)
            preds[pair_s_orbit_key(prod, times(x, u), times(y, u), s)].append(key)
    dead = set(removed)
    while removed:
        budget.tick()
        for key in preds[removed.pop()]:
            if key not in dead:
                dead.add(key)
                removed.append(key)
    return Congruence(m, FsSubset(prod.set, s, frozenset(nodes) - dead))


def syntactic_monoid(m, p, budget=None):
    """The syntactic quotient of (m, p) with the transported predicate."""
    cong = syntactic_congruence(m, p, budget=budget)
    q = quotient(m, cong, budget=budget)
    pred = FsSubset.from_elements(
        q.monoid.carrier, p.support, [q.projection(r) for r in p.reps()], budget
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


def catalog_language(name, budget=None):
    """Stock recognizers over the alphabet A.

    l0: some letter repeats adjacently. first-a / last-a: first (last)
    letter is the fixed atom 0. l2-fixed: words a w a for the fixed
    atom a = 0. l2-any: the union of a A* a over all atoms a.
    The l2 recognizers join the endpoints evaluation with a length
    counter 0 / 1 / 2-or-more, since the endpoints alone cannot tell a
    from a...a: 4 orbits, accepting the value of the word a a. The
    joins, the counter's table and the predicate's normalization are
    charged to ``budget``.
    """
    from nommon.catalog import builder, letters_map

    sigma = atoms_set()
    if name == "l0":
        m = builder("l0_recognizer")
        gm = letters_map("l0_recognizer", m)
        flagged = [m.encode_state(0, 0, 1), m.encode_state(0, 1, 1)]
        return Language(gm, FsSubset.from_elements(m.carrier, (), flagged, budget))
    if name in ("first-a", "last-a"):
        mon = "first_proj" if name == "first-a" else "last_proj"
        m = builder(mon)
        gm = letters_map(mon, m)
        a = Element(m.carrier, 1, [0])
        return Language(gm, FsSubset.singleton(a, budget))
    if name in ("l2-fixed", "l2-any"):
        counter = strong_set([0, 0, 0])
        length = monoid_from_concrete(
            counter,
            Element(counter, 0, ()),
            lambda x, y: Element(counter, min(x.orbit + y.orbit, 2), ()),
            budget=budget,
        )
        one = Element(counter, 1, ())
        lengths = map_from_concrete(sigma, counter, lambda a: one)
        ends = endpoints_bound(budget).data
        gm = join(ends, GeneratorMap(sigma, length, lengths), budget).genmap
        aa_long = gm.eval_word(Word.of_atoms([0, 0]).letters)
        if name == "l2-fixed":
            pred = FsSubset.singleton(aa_long, budget)
        else:
            pred = FsSubset.from_elements(gm.monoid.carrier, (), [aa_long], budget)
        return Language(gm, pred)
    raise InvalidInput(f"unknown catalog language {name!r}")
