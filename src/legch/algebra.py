"""Exact arithmetic in the free noncommutative unital algebra over Z2.

A polynomial is a finite set of words over named generators; addition is
symmetric difference (characteristic 2), multiplication is pairwise word
concatenation reduced mod 2.  The set representation is canonical, so every
value is automatically a minimal expression.

Small polynomials are stored as explicit word sets.  Products whose
expansion would be enormous (connected-sum closure differentials and iterated
monodromy images grow multiplicatively) are kept symbolic, and so are sums
with a symbolic term.  Symbolic nodes denote exactly the same word set; every
query either answers through a certificate that rules out cancellation, or
falls back to materialization, or raises ExpansionTooLarge.  Equality never
expands: it compares linear representations of the two values (see _Rep).
No query ever returns an approximate value.

Word statistics: length() is the number of words, max_count(g) the maximal
multiplicity of a generator within a single word, tau(g) the number of words
attaining that maximum.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
import weakref
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

Word = tuple[str, ...]
EMPTY_WORD: Word = ()

# Explicit values are multiplied into an explicit value of at most this many
# words; past it the product stays symbolic (sums are not bounded: see
# _make_sum).  A product with a symbolic factor is always a product node,
# however small its size bound: expanding it would mix the factors' letters
# into explicit words that every later substitution rewrites one letter at a
# time, instead of composing structurally.
LAZY_THRESHOLD = 64
# Hard cap for on-demand materialization.
EXPANSION_CAP = 5_000_000

_NAME_RE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


class AlgebraError(Exception):
    pass


class ExpansionTooLarge(AlgebraError):
    """A query required materializing more words than EXPANSION_CAP.

    `query` names the query that failed (`expand` when it was called
    directly), `kind` (sum or product) and `bound` the node whose words it
    needed: an explicit node's words are in memory, so it never raises.
    Each public query that can expand renames the query on its way out, so
    the outermost one is named."""

    def __init__(self, kind: str, bound: int, cap: int, query: str = "expand"):
        super().__init__(kind, bound, cap, query)
        self.kind, self.bound, self.cap, self.query = kind, bound, cap, query

    def __str__(self) -> str:
        return (
            f"{self.query}: expansion bound {self.bound} of a {self.kind} node"
            f" exceeds cap {self.cap}"
        )


class BadGeneratorName(AlgebraError):
    pass


# Each name that passed _NAME_RE, mapped to its interned string: a document
# repeats a few dozen names hundreds of thousands of times.  A rejected name
# is never stored, so it raises again.
_CHECKED: dict[str, str] = {}


def check_name(name: str) -> str:
    checked = _CHECKED.get(name)
    if checked is None:
        if not _NAME_RE.match(name):
            raise BadGeneratorName(f"invalid generator name: {name!r}")
        checked = _CHECKED[name] = sys.intern(name)
    return checked


# the kinds of node, as ExpansionTooLarge names them
_KIND_EXPLICIT = "explicit"
_KIND_PRODUCT = "product"
_KIND_SUM = "sum"


def _memo(name: str):
    """The one memo: the decorated structural statistic runs once per node
    and argument, and its value is kept in the node's _cache under
    (name, *args).  Composite descendants that lack the value are filled
    first, children before parents, so the computation finds its
    children's values cached and never recurses as deep as the DAG."""

    def decorate(compute):
        @functools.wraps(compute)
        def stat(self, *args):
            key = (name, *args) if args else name
            cache = self._cache
            value = cache.get(key, cache)
            if value is cache:
                stack = list(self._children)
                while stack:
                    node = stack[-1]
                    if not node._children or key in node._cache:
                        stack.pop()
                        continue
                    height = len(stack)
                    for c in node._children:
                        if c._children and key not in c._cache:
                            stack.append(c)
                    if len(stack) == height:
                        stack.pop()
                        node._cache[key] = compute(node, *args)
                value = cache[key] = compute(self, *args)
            return value

        return stat

    return decorate


class Poly:
    """An element of the free Z2 algebra.  Immutable; only its certificate
    may be switched on later, when a caller asserts it."""

    __slots__ = (
        "_kind",
        "_words",
        "_children",
        "_token",
        "_free",
        "_cache",
        "__weakref__",
    )

    def __init__(self, _make=None):
        if _make is not _MAKE:
            raise TypeError("use Poly.zero/one/gen/word/from_words or parsing")
        self._kind = _KIND_EXPLICIT
        self._words: frozenset[Word] = frozenset()
        # Product nodes have two factors, sum nodes at least two terms.
        self._children: tuple[Poly, ...] = ()
        # Interning key of the node as a child: the word set when explicit,
        # a serial number when composite (see _node).
        self._token = self._words
        # Certificate that no word cancels here: a product's concatenation
        # map is injective on its factors' words, a sum's terms are disjoint.
        self._free = False
        self._cache: dict = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _explicit(words: frozenset[Word]) -> "Poly":
        """The node of a word set; no word is _ZERO, the unit alone _ONE."""
        if not words:
            return _ZERO
        if len(words) == 1 and EMPTY_WORD in words:
            return _ONE
        p = Poly(_MAKE)
        p._words = p._token = words
        return p

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def gen(name: str) -> "Poly":
        return Poly._explicit(frozenset({(check_name(name),)}))

    @staticmethod
    def word(*letters: str) -> "Poly":
        return Poly._explicit(frozenset({tuple(check_name(c) for c in letters)}))

    @staticmethod
    def from_words(words: Iterable[Iterable[str]]) -> "Poly":
        acc: set[Word] = set()
        known = _CHECKED.__getitem__
        for w in words:
            letters = tuple(w)  # read once: w may be an iterator
            try:
                word = tuple(map(known, letters))
            except KeyError:  # a letter not seen before
                word = None
            if word is None:
                word = tuple(map(check_name, letters))
            if word in acc:
                acc.discard(word)
            else:
                acc.add(word)
        return Poly._explicit(frozenset(acc))

    # -- structural statistics ---------------------------------------------
    #
    # Explicit nodes answer O(1) statistics inline; everything else is
    # computed once per node by _memo, so shared subterms are walked once.

    @property
    def is_explicit(self) -> bool:
        return self._kind == _KIND_EXPLICIT

    def __bool__(self) -> bool:
        if self._kind == _KIND_EXPLICIT:
            return bool(self._words)
        # the memoized count, or the exact equality, which never expands
        try:
            return self.length() != 0
        except ExpansionTooLarge:
            return self != _ZERO

    @_memo("alphabet")
    def alphabet(self) -> frozenset[str]:
        if self._kind == _KIND_EXPLICIT:
            return frozenset().union(*self._words)
        return frozenset().union(*(c.alphabet() for c in self._children))

    @_memo("mandatory")
    def mandatory(self) -> frozenset[str]:
        """Letters that occur in every word (subset-sound)."""
        if self._kind == _KIND_EXPLICIT:
            sets = [frozenset(w) for w in self._words]
        else:
            sets = [c.mandatory() for c in self._children]
            if self._kind == _KIND_PRODUCT:
                return frozenset().union(*sets)
        return frozenset.intersection(*sets) if sets else frozenset()

    def size_bound(self) -> int:
        """Upper bound on the number of words (exact when cancellation-free)."""
        if self._kind == _KIND_EXPLICIT:
            return len(self._words)
        return self._size_bound()

    @_memo("size_bound")
    def _size_bound(self) -> int:
        sizes = [c.size_bound() for c in self._children]
        return math.prod(sizes) if self._kind == _KIND_PRODUCT else sum(sizes)

    @_memo("bounds")
    def count_bounds(self, letter: str | None) -> tuple[int, int]:
        """Bounds on the multiplicity of `letter` across words, or on word
        lengths when `letter` is None (superset-sound)."""
        if self._kind == _KIND_EXPLICIT:
            if not self._words:
                return (0, 0)
            vals = [len(w) if letter is None else w.count(letter) for w in self._words]
            return (min(vals), max(vals))
        los, his = zip(*(c.count_bounds(letter) for c in self._children))
        if self._kind == _KIND_PRODUCT:
            return (sum(los), sum(his))
        return (min(los), max(his))

    @_memo("end")
    def end_letters(self, side: int) -> frozenset[str]:
        """Letters that may begin (side 0) or end (side -1) a nonempty word
        (superset-sound); whether the empty word occurs is has_unit."""
        if self._kind == _KIND_EXPLICIT:
            return frozenset(w[side] for w in self._words if w)
        if self._kind == _KIND_SUM:
            return frozenset().union(*(t.end_letters(side) for t in self._children))
        letters: set[str] = set()
        for f in self._children if side == 0 else reversed(self._children):
            letters |= f.end_letters(side)
            if not f.has_unit():
                break
        return frozenset(letters)

    # -- exact membership --------------------------------------------------

    def contains(self, word: Word) -> bool:
        if self._kind == _KIND_EXPLICIT:
            return word in self._words
        return self._spans(word)[0] >> len(word) & 1 == 1

    def has_unit(self) -> bool:
        """Exact membership of the empty word: _spans at the empty word."""
        if self._kind == _KIND_EXPLICIT:
            return EMPTY_WORD in self._words
        return self._spans(EMPTY_WORD) == (1,)

    @_memo("spans")
    def _spans(self, word: Word) -> tuple[int, ...]:
        """The value's image in the upper-triangular bit matrices over the
        positions 0..len(word): bit j of row i is the coefficient of word[i:j].
        A sum adds its terms' rows, a product multiplies its factors'
        matrices; the rows are kept for each word asked about."""
        if self._kind == _KIND_EXPLICIT:
            n, words = len(word), self._words
            # candidate subword lengths: all of 0..n when fewer than the words
            lengths = range(n + 1) if n < len(words) else {len(w) for w in words}
            return tuple(
                sum(1 << i + k for k in lengths if i + k <= n and word[i : i + k] in words)
                for i in range(n + 1)
            )
        parts = [c._spans(word) for c in self._children]
        if self._kind == _KIND_SUM:
            return tuple(functools.reduce(int.__xor__, rows) for rows in zip(*parts))
        a, b = parts
        return tuple(_times(row, b) for row in a)

    # -- materialization ---------------------------------------------------

    def expand(self) -> frozenset[Word]:
        """The word set; only a composite node past EXPANSION_CAP raises."""
        if self._kind == _KIND_EXPLICIT:
            return self._words
        if self.size_bound() > EXPANSION_CAP:
            raise ExpansionTooLarge(self._kind, self.size_bound(), EXPANSION_CAP)
        return self._expanded()

    @_memo("expanded")
    def _expanded(self) -> frozenset[Word]:
        # below a node that passed the cap, every bound is smaller
        parts = [c._words if c._kind == _KIND_EXPLICIT else c._expanded() for c in self._children]
        return frozenset(_cancelled(self, parts))

    def words(self) -> frozenset[Word]:
        """Explicit word set (materializes; may raise ExpansionTooLarge)."""
        try:
            return self.expand()
        except ExpansionTooLarge as exc:
            exc.query = "words"
            raise

    def canonical_words(self) -> list[Word]:
        """Words in length-then-lexicographic order.  Within one length,
        joined words sort as their letter tuples: the space sorts below
        every character a generator name may hold."""
        try:
            ws = sorted(self.expand(), key=" ".join)
        except ExpansionTooLarge as exc:
            exc.query = "canonical_words"
            raise
        ws.sort(key=len)  # stable: lexicographic within each length
        return ws

    # -- statistics --------------------------------------------------------

    def length(self) -> int:
        """Exact number of words in the canonical form."""
        if self._kind == _KIND_EXPLICIT:
            return len(self._words)
        try:
            return self._length()
        except ExpansionTooLarge as exc:
            exc.query = "length"
            raise

    @_memo("length")
    def _length(self) -> int:
        terms = self._children
        product = self._kind == _KIND_PRODUCT
        if self._free or not product and _pairwise_disjoint(terms):
            return (math.prod if product else sum)(t.length() for t in terms)
        if not product and len(terms) == 2 and terms[0]._kind == _KIND_EXPLICIT:
            # one explicit term (listed first, see _make_sum) and one symbolic
            # term: count the explicit words against the symbolic one
            small, big = terms
            return big.length() + sum(-1 if big.contains(w) else 1 for w in small._words)
        return len(self.expand())

    def max_count(self, g: str) -> int:
        return self._top_stats(g, "max_count")[0]

    def tau(self, g: str) -> int:
        return self._top_stats(g, "tau")[1]

    def _top_stats(self, g: str, query: str) -> tuple[int, int]:
        """Exact (max multiplicity of g, number of words attaining it): the
        highest nonzero slice and its length; (0, 0) for the zero polynomial."""
        lo, hi = self.count_bounds(g)
        try:
            for k in range(hi, lo - 1, -1):
                t = self.slice(g, k).length()
                if t:
                    return (k, t)
        except ExpansionTooLarge as exc:
            exc.query = query
            raise
        return (0, 0)

    def slice(self, g: str, k: int) -> "Poly":
        """The sub-polynomial of words with exactly k occurrences of g."""
        if g not in self.alphabet():
            return self if k == 0 else _ZERO
        if self._kind == _KIND_EXPLICIT:
            return Poly._explicit(frozenset(w for w in self._words if w.count(g) == k))
        lo, hi = self.count_bounds(g)
        return self._slices(g)[k - lo] if lo <= k <= hi else _ZERO

    @_memo("slices")
    def _slices(self, g: str) -> tuple["Poly", ...]:
        """The slices for k in count_bounds(g), built from the children's.
        They keep the certificate: subsets of disjoint sets are disjoint,
        and an injective product restricted to A_i x B_(k-i), domains
        disjoint for different i, stays injective with disjoint images."""
        if g not in self.alphabet():
            return ()  # slice answers a g-free node inline
        lo, hi = self.count_bounds(g)
        join = unsafe_disjoint_sum if self._free else _make_sum
        if self._kind == _KIND_SUM:
            return tuple(
                join([t.slice(g, k) for t in self._children]) for k in range(lo, hi + 1)
            )
        a, b = self._children
        (alo, ahi), (blo, bhi) = a.count_bounds(g), b.count_bounds(g)

        def times(u: Poly, v: Poly) -> Poly:
            return unsafe_injective_product((u, v)) if self._free else mul(u, v)

        return tuple(
            join(
                [
                    times(a.slice(g, i), b.slice(g, k - i))
                    for i in range(max(alo, k - bhi), min(ahi, k - blo) + 1)
                ]
            )
            for k in range(lo, hi + 1)
        )

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return add(self, other)

    def __mul__(self, other: "Poly") -> "Poly":
        return mul(self, other)

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        """Letter-wise renaming; the mapping must be injective on the alphabet.
        A bijective renaming keeps every certificate and every count taken."""
        alphabet = self.alphabet()
        relevant = {a: b for a, b in mapping.items() if a in alphabet}
        if not relevant:
            return self
        values = list(relevant.values())
        if len(set(values)) != len(values):
            raise BadGeneratorName("renaming is not injective")
        for target in values:
            check_name(target)
            if target in alphabet and target not in relevant:
                raise BadGeneratorName(
                    f"renaming collides with existing generator {target!r}"
                )

        def leaf(p: Poly) -> Poly:
            return Poly._explicit(
                frozenset(tuple(relevant.get(c, c) for c in w) for w in p._words)
            )

        def node(p: Poly, children: list[Poly]) -> Poly:
            q = _node(p._kind, tuple(children))
            q._free |= p._free
            if "length" in p._cache:
                q._cache["length"] = p._cache["length"]
            return q

        return _rebuild(self, relevant, leaf, node)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        # Equal composite structures are one interned node, and an explicit
        # node's token is its word set.
        if self._token == other._token:
            return True
        if self._kind == other._kind == _KIND_EXPLICIT:
            return False
        # Never expands: the difference is zero iff its reachable states
        # all have output 0.
        return not _reachable(_sum_rep(self._series(), other._series())).eta

    @_memo("series")
    def _series(self) -> "_Rep":
        """A minimal linear representation of the value (see _Rep)."""
        if self._kind == _KIND_EXPLICIT:
            rep = _words_rep(self._words)
        else:
            combine = _product_rep if self._kind == _KIND_PRODUCT else _sum_rep
            rep = functools.reduce(combine, (c._series() for c in self._children))
        return _transposed(_reachable(_transposed(_reachable(rep))))

    def __hash__(self) -> int:
        return hash(self.expand())

    def __repr__(self) -> str:
        n = self.size_bound()
        if n <= 16:
            return f"Poly({poly_to_str(self)!r})"
        if self.is_explicit:
            return f"Poly(<explicit, {n} words>)"
        return f"Poly(<symbolic, <= {n} words>)"


class _Make:
    pass


_MAKE = _Make()


def _cancelled(p: Poly, parts: list) -> Iterable:
    """The distinct words of composite p from its children's, in any
    encoding of words that + concatenates: a sum adds them mod 2, a product
    concatenates them pairwise, reduced mod 2 unless certified."""
    if p._kind == _KIND_SUM:
        acc: set = set()
        for words in parts:
            acc.symmetric_difference_update(words)
        return acc
    a, b = parts
    if p._free:  # no two pairs give the same word: listed in the parts' order
        return [u + v for u in a for v in b]
    return _concat(a, b)


def _concat(a: frozenset[Word], b: frozenset[Word]) -> frozenset[Word]:
    """All concatenations u v, reduced mod 2."""
    acc: set[Word] = set()
    for u in a:
        for v in b:
            w = u + v
            if w in acc:
                acc.discard(w)
            else:
                acc.add(w)
    return frozenset(acc)


# Built here rather than by _explicit, which returns them.  `p is _ZERO` is
# the cheap zero test: exact on explicit nodes, and no constructor gives a
# composite node this child (a composite may still be zero-valued).
_ZERO = Poly(_MAKE)
_ONE = Poly(_MAKE)
_ONE._words = _ONE._token = frozenset({EMPTY_WORD})


# -- hash-consed node construction ---------------------------------------------
#
# Composite nodes are interned as in Filliatre & Conchon, "Type-safe modular
# hash-consing" (ML Workshop 2006): one live node per shallow key (kind,
# child tokens), so equal structures are one object and their statistics
# are computed once.  The table holds its nodes weakly, so a node dies with
# its last user.  Explicit nodes are not interned: their word set is their
# token, and hashing a frozenset is cached by the interpreter.

_NODES: "weakref.WeakValueDictionary[tuple, Poly]" = weakref.WeakValueDictionary()
_SERIALS = itertools.count()


def _node(kind: str, children: tuple[Poly, ...]) -> Poly:
    key = (kind, *(c._token for c in children))
    node = _NODES.get(key)
    if node is None:
        node = Poly(_MAKE)
        node._kind = kind
        node._children = children
        node._token = next(_SERIALS)
        if kind == _KIND_PRODUCT:
            node._free = _pair_injective(*children)
        _NODES[key] = node
    return node


def _rebuild(p: Poly, letters, leaf, node) -> Poly:
    """Map the DAG under p bottom-up from an explicit stack, each shared node
    once and after its children.  Subterms that use none of `letters` are
    kept (with `letters` None, none is); explicit ones go through leaf(q),
    composite ones through node(q, mapped children)."""
    done: dict = {}
    stack = [(p, False)]
    while stack:
        q, ready = stack.pop()
        if ready:
            done[q._token] = node(q, [done[c._token] for c in q._children])
        elif q._token not in done:
            if letters is not None and q.alphabet().isdisjoint(letters):
                done[q._token] = q
            elif q._kind == _KIND_EXPLICIT:
                done[q._token] = leaf(q)
            else:
                stack.append((q, True))
                stack.extend((c, False) for c in q._children)
    return done[p._token]


# -- cancellation certificates ------------------------------------------------


def _pairwise_disjoint(polys) -> bool:
    return all(_certainly_disjoint(a, b) for a, b in itertools.combinations(polys, 2))


def _certainly_disjoint(a: Poly, b: Poly) -> bool:
    """Certificate that the word sets of a and b share no word."""
    # the unit's one word is the empty word: exact, and no statistic of the
    # other side beyond has_unit is filled
    if a is _ONE or b is _ONE:
        return not (a.has_unit() and b.has_unit())
    alo, ahi = a.count_bounds(None)
    blo, bhi = b.count_bounds(None)
    if ahi < blo or bhi < alo:
        return True
    # a letter every word of one side carries, absent from the other side
    return not a.mandatory() <= b.alphabet() or not b.mandatory() <= a.alphabet()


def _pair_injective(a: Poly, g: Poly) -> bool:
    """Certificate that (u, v) -> u v is injective on a-words x g-words:
    the split point of every concatenation can be read off it."""
    # A singleton side fixes the split position.
    if a.size_bound() == 1 or g.size_bound() == 1:
        return True
    # Seam: the last letter of u v that may end an a-word ends u, since v
    # has none (u is empty when there is none); mirrored, the first letter
    # that may begin a g-word begins v.
    if a.end_letters(-1).isdisjoint(g.alphabet()) or g.end_letters(0).isdisjoint(a.alphabet()):
        return True
    # Far marker: g is 1 + v0 at most, and u v ends with v0's last letter,
    # which a never uses, exactly when v = v0.
    return g.size_bound() == 2 and g.has_unit() and g.end_letters(-1).isdisjoint(a.alphabet())


def _make_sum(terms: Iterable[Poly]) -> Poly:
    """The one sum rule, which depends only on the terms: one nonzero term
    is returned as it is; otherwise uncertified sums are flattened (a
    certified-disjoint sum stays one term, keeping its certificate), all
    explicit terms are XORed into one explicit term, listed first, and
    identical symbolic terms cancel in pairs, the others ordered by token,
    newest first.  The rule is associative, so add, which uses it, folds to
    the same node (except where the fold meets one of its intermediate sums
    interned already with a certificate)."""
    terms = [t for t in terms if t is not _ZERO]
    if len(terms) == 1:
        return terms[0]
    explicit: set[Word] = set()
    symbolic: dict = {}
    for t in terms:
        for s in t._children if t._kind == _KIND_SUM and not t._free else (t,):
            if s._kind == _KIND_EXPLICIT:
                explicit ^= s._words
            elif symbolic.pop(s._token, None) is None:  # identical terms cancel in pairs
                symbolic[s._token] = s
    flat = [symbolic[k] for k in sorted(symbolic, reverse=True)]
    if explicit:
        flat.insert(0, Poly._explicit(frozenset(explicit)))
    if not flat:
        return _ZERO
    if len(flat) == 1:
        return flat[0]
    return _node(_KIND_SUM, tuple(flat))


def unsafe_injective_product(factors: Iterable[Poly]) -> Poly:
    """Product node whose concatenation map the CALLER asserts is injective.

    For use by builders that can prove cancellation-freeness structurally
    where the generic certificates cannot; a wrong assertion makes length
    and tau queries wrong, so every call site must carry a proof sketch.
    Folded from the left, each fold certified: a concatenation map
    injective on all the factors is injective on each prefix of them.
    """
    node = _ONE
    for f in factors:
        if f is _ZERO:
            return _ZERO
        if node is _ONE:
            node = f
        elif f is not _ONE:
            node = _node(_KIND_PRODUCT, (node, f))
            node._free = True
    return node


def unsafe_disjoint_sum(terms: Sequence[Poly]) -> Poly:
    """Sum node whose terms the CALLER asserts are pairwise word-disjoint.

    Terms are kept as given (no flattening or merging) so nested structure
    survives; same trust contract as unsafe_injective_product.
    """
    terms = [t for t in terms if t is not _ZERO]
    if not terms:
        return _ZERO
    if len(terms) == 1:
        return terms[0]
    node = _node(_KIND_SUM, tuple(terms))
    node._free = True
    return node


# -- linear representations ---------------------------------------------------
#
# A polynomial over Z2 is a rational series: there are a row vector alpha,
# one square matrix M_c per letter and a column vector eta such that the
# coefficient of the word c1..ck is alpha M_c1 .. M_ck eta.  Sums are
# block-diagonal, a product hands over from its first block to its second,
# and Schutzenberger's reduction (restrict to the states reachable from
# alpha, then, transposed, to those reachable from eta) brings the dimension
# down to the rank of the series (Berstel & Reutenauer, "Noncommutative
# Rational Series with Applications", ch. 2).  Equality is thus decided
# exactly without expanding: a value of millions of words usually has a
# representation of a few dozen states.  Vectors are bit masks over the
# states; a matrix is the list of its rows.


class _Rep(NamedTuple):
    dim: int
    alpha: int
    eta: int
    rows: dict[str, list[int]]  # letter -> rows of M_letter

    def matrix(self, letter: str) -> list[int]:
        return self.rows.get(letter) or [0] * self.dim


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


def _times(vector: int, rows: list[int]) -> int:
    """The row vector times the matrix."""
    acc = 0
    while vector:
        low = vector & -vector
        acc ^= rows[low.bit_length() - 1]
        vector ^= low
    return acc


def _words_rep(words: frozenset[Word]) -> _Rep:
    """The prefix tree of the words: one state per prefix."""
    index = {EMPTY_WORD: 0}
    edges = []
    for w in words:
        for i in range(1, len(w) + 1):
            if w[:i] not in index:
                index[w[:i]] = len(index)
                edges.append((w[i - 1], index[w[: i - 1]], index[w[:i]]))
    rows: dict[str, list[int]] = {}
    for c, src, dst in edges:
        rows.setdefault(c, [0] * len(index))[src] |= 1 << dst
    eta = 0
    for w in words:
        eta |= 1 << index[w]
    return _Rep(len(index), 1, eta, rows)


def _sum_rep(a: _Rep, b: _Rep) -> _Rep:
    rows = {
        c: a.matrix(c) + [r << a.dim for r in b.matrix(c)]
        for c in a.rows.keys() | b.rows.keys()
    }
    return _Rep(a.dim + b.dim, a.alpha | b.alpha << a.dim, a.eta | b.eta << a.dim, rows)


def _product_rep(a: _Rep, b: _Rep) -> _Rep:
    # Reading a letter that ends a word of a may instead start b; a's empty
    # word starts b at once.
    start = b.alpha << a.dim
    rows = {
        c: [r | start if _parity(r & a.eta) else r for r in a.matrix(c)]
        + [r << a.dim for r in b.matrix(c)]
        for c in a.rows.keys() | b.rows.keys()
    }
    alpha = a.alpha | start if _parity(a.alpha & a.eta) else a.alpha
    return _Rep(a.dim + b.dim, alpha, b.eta << a.dim, rows)


def _reachable(rep: _Rep) -> _Rep:
    """The representation restricted to the span of the vectors alpha M_w,
    in the basis that a breadth-first search over w finds."""
    basis: list[int] = []
    # leading bit -> (echelon vector, the basis vectors that sum to it)
    pivots: dict[int, tuple[int, int]] = {}

    def coordinates(v: int) -> int:
        rest, combination = v, 0
        while rest:
            lead = rest.bit_length() - 1
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (rest, combination ^ 1 << len(basis))
                basis.append(v)
                return 1 << len(basis) - 1
            rest ^= hit[0]
            combination ^= hit[1]
        return combination

    coordinates(rep.alpha)
    rows: dict[str, list[int]] = {c: [] for c in rep.rows}
    for v in basis:  # grows while it is walked
        for c, m in rep.rows.items():
            rows[c].append(coordinates(_times(v, m)))
    eta = 0
    for k, v in enumerate(basis):
        eta |= _parity(v & rep.eta) << k
    return _Rep(len(basis), 1 if basis else 0, eta, rows)


def _transposed(rep: _Rep) -> _Rep:
    """alpha and eta swapped and every matrix transposed: a representation
    of the series read backwards."""
    rows = {}
    for c, m in rep.rows.items():
        t = [0] * rep.dim
        for i, r in enumerate(m):
            while r:
                low = r & -r
                t[low.bit_length() - 1] |= 1 << i
                r ^= low
        rows[c] = t
    return _Rep(rep.dim, rep.eta, rep.alpha, rows)


# -- public operations --------------------------------------------------------


def add(p: Poly, q: Poly) -> Poly:
    """Sum in characteristic 2: symmetric difference of word sets.  Two
    explicit values add to an explicit value, whatever their size; the node
    is _make_sum's."""
    if p is _ZERO:
        return q
    if q is _ZERO:
        return p
    if p._kind == q._kind == _KIND_EXPLICIT:
        return Poly._explicit(p._words ^ q._words)
    return _make_sum([p, q])


def mul(p: Poly, q: Poly) -> Poly:
    """Product: all pairwise concatenations, reduced mod 2."""
    if p is _ZERO or q is _ZERO:
        return _ZERO
    if p is _ONE:
        return q
    if q is _ONE:
        return p
    if p._kind == q._kind == _KIND_EXPLICIT and len(p._words) * len(q._words) <= LAZY_THRESHOLD:
        return Poly._explicit(_concat(p._words, q._words))
    return _node(_KIND_PRODUCT, (p, q))


class AlgebraMap:
    """A generator-to-polynomial substitution, applied as a unital
    algebra homomorphism.  Unmapped generators are fixed."""

    __slots__ = ("assignments",)

    def __init__(self, assignments: Mapping[str, Poly]):
        self.assignments = {check_name(k): v for k, v in assignments.items()}

    @staticmethod
    def identity() -> "AlgebraMap":
        return AlgebraMap({})

    def __call__(self, name: str) -> Poly:
        img = self.assignments.get(name)
        if img is None:
            return Poly.gen(name)
        return img

    def moved(self) -> frozenset[str]:
        return frozenset(self.assignments)

    def apply(self, p: Poly) -> Poly:
        if p._kind == _KIND_EXPLICIT:
            if p.alphabet().isdisjoint(self.assignments):
                return p
            if len(p._words) == 1 and len(w := next(iter(p._words))) == 1:
                return self.assignments[w[0]]  # a moved letter: its image node
            return self._apply_words(p)
        return _rebuild(p, self.assignments.keys(), self._apply_words, _apply_node)

    def _apply_words(self, p: Poly) -> Poly:
        """The image of an explicit p: the sum of the images of its words w,
        the image of c1..ck being mul(..mul(1, self(c1))..,
        self(ck)).  Each word is walked once (_word_image): a run of letters
        the map does not move is copied as one slice.  The explicit images
        are collected in one set, and _make_sum adds the product nodes to
        it, so the node is that of a fold of add over the images in any
        order."""
        images = self.assignments
        acc: set[Word] = set()
        symbolic = []
        for w in p._words:
            img = _word_image(w, images)
            if img is None:
                symbolic.append(functools.reduce(mul, map(self, w), _ONE))
            else:
                acc.symmetric_difference_update(img)
        return _make_sum([Poly._explicit(frozenset(acc)), *symbolic])

    def compose(self, inner: "AlgebraMap") -> "AlgebraMap":
        """self after inner: g -> self(inner(g)).  A generator inner fixes
        goes to self(g); the keys of both maps are checked already."""
        if not self.assignments:
            return inner
        if not inner.assignments:
            return self
        out = AlgebraMap.__new__(AlgebraMap)
        out.assignments = dict(self.assignments)
        for g, img in inner.assignments.items():
            out.assignments[g] = self.apply(img)
        return out

    def normalized(self) -> dict[str, Poly]:
        """The assignments that move their generator.  Both tests are exact
        and never expand; membership rules most images out before equality."""
        return {
            g: img
            for g, img in self.assignments.items()
            if not (img.contains((g,)) and img == Poly.gen(g))
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraMap):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return a.keys() == b.keys() and all(a[g] == b[g] for g in a)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{g} -> {poly_to_str(img) if img.size_bound() <= 16 else '<symbolic>'}"
            for g, img in sorted(self.assignments.items())
        )
        return f"AlgebraMap({{{parts}}})"


def _word_image(w: Word, images: Mapping[str, Poly]) -> Sequence[Word] | frozenset[Word] | None:
    """The distinct words of the image of w under the substitution
    `images`, or None when the fold of mul over its letters' images makes a
    product node.  A run of letters that `images` does not move is one
    factor, the slice of w."""
    acc: Sequence[Word] | frozenset[Word] | None = _ONE._words
    start = 0
    for i, c in enumerate(w):
        img = images.get(c)
        if img is None:
            continue
        if img._kind != _KIND_EXPLICIT:
            return None
        if start < i:
            acc = _times_words(acc, (w[start:i],))
        if img is not _ONE:
            acc = _times_words(acc, img._words)
        start = i + 1
    if start < len(w):
        acc = _times_words(acc, (w[start:],))
    return acc


def _times_words(acc, words):
    """The distinct words of acc times `words`, as mul multiplies explicit
    values, or None where mul makes a product node (or acc is None); acc
    is _ONE._words for the unit."""
    if acc is _ONE._words:
        return words
    if acc is None or len(acc) * len(words) > LAZY_THRESHOLD:
        return None
    if len(words) == 1:  # appending one word never cancels
        (v,) = words
        return [u + v for u in acc]
    return _concat(acc, words)


def _apply_node(p: Poly, children: list[Poly]) -> Poly:
    return functools.reduce(mul, children) if p._kind == _KIND_PRODUCT else _make_sum(children)


def compose(outer: AlgebraMap, inner: AlgebraMap) -> AlgebraMap:
    return outer.compose(inner)


# -- textual syntax -----------------------------------------------------------
#
# Terms separated by `+`, letters of a word separated by whitespace, unit
# written `1`, zero written `0`.  Example: "1 + b1 b2 + k1.b3".


def poly_from_str(text: str) -> Poly:
    if not isinstance(text, str):
        raise AlgebraError(f"polynomial must be a string, got {type(text).__name__}")
    text = text.strip()
    if text == "0":
        return _ZERO
    if not text:
        raise AlgebraError("empty polynomial string (write '0' for zero)")
    words = frozenset(_terms(text))
    if len(words) <= text.count("+"):  # a word repeats: cancel in pairs
        return Poly.from_words(_terms(text))
    return Poly._explicit(words)


def _terms(text: str) -> Iterator[Word]:
    """The words of a nonzero polynomial string one at a time, in reading
    order, their letters checked.  The text is split a slice of about 16 K
    characters at a time, each ending at a `+`: no list of all its terms."""
    known = _CHECKED.__getitem__
    start, end = 0, len(text)
    while start <= end:
        stop = text.find("+", start + 16384)
        stop = end if stop < 0 else stop
        for letters in map(str.split, text[start:stop].split("+")):
            try:
                word = tuple(map(known, letters))
            except KeyError:
                word = None
            if not word:  # a new letter, 1, 0, or none
                if not letters:
                    raise AlgebraError(f"malformed polynomial string: {text!r}")
                if letters == ["0"]:
                    raise AlgebraError("'0' is only valid as the whole polynomial")
                word = EMPTY_WORD if letters == ["1"] else tuple(map(check_name, letters))
            yield word
        start = stop + 1


def word_to_str(w: Word) -> str:
    return "1" if not w else " ".join(w)


def poly_to_str(p: Poly) -> str:
    """Canonical textual form: words in canonical_words order.  Each word is
    joined once, each letter after a space, so + concatenates joined words as
    it does tuples: nodes below p are reduced by _cancelled, a sum p by
    sorting (equal words are neighbours).  Joined words sort as tuples do,
    and a stable sort on the spaces orders them by length.  Explicit words
    are sorted first, so a certified product lists its words in sorted runs."""
    if p._kind != _KIND_EXPLICIT and p.size_bound() > EXPANSION_CAP:
        raise ExpansionTooLarge(p._kind, p.size_bound(), EXPANSION_CAP, "canonical_words")

    def node(q: Poly, parts: list) -> Iterable[str]:
        if q is p and q._kind == _KIND_SUM:  # reduced below
            return itertools.chain.from_iterable(parts)
        return _cancelled(q, parts)

    ws = sorted(_rebuild(p, None, lambda q: sorted(" ".join(("", *w)) for w in q._words), node))
    ws = _odd_runs(ws)
    if not ws:
        return "0"
    ws.sort(key=operator.methodcaller("count", " "))
    ws[0] = ws[0][1:] or "1"  # the first word's space, or the empty word
    return " +".join(ws)


def _odd_runs(ws: list[str]) -> list[str]:
    """The sorted list without its equal neighbours in pairs: each word
    kept once when its multiplicity is odd."""
    out, start = [], 0
    equal = map(operator.eq, ws, itertools.islice(ws, 1, None))
    for i in itertools.compress(itertools.count(), equal):  # ws[i] == ws[i + 1]
        if i >= start:  # neither is dropped already
            out += ws[start:i]
            start = i + 2
    return out + ws[start:] if start else ws
