"""Line-oriented deck files: named fields, groups, rings, algebras, gradings
and maps.  One declaration per line, `#` comments, byte-deterministic
canonical printing for golden tests.

Decks and CLI commands share one grammar: `tokenize` splits a line and `match`
checks all of it against a pattern table, `DECLARATIONS` here and
`cli.COMMANDS` for commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import comrings, galg, scalars
from .abgroups import FGAbelianGroup, trivial_group
from .errors import (DeckError, GradingAxiomError, InputError, MathIdentityError,
                     WorkbenchError)
from .points import point_matrix
from .scalars import split_bracketed


@dataclass
class Deck:
    fields: dict = dc_field(default_factory=dict)
    groups: dict = dc_field(default_factory=dict)
    rings: dict = dc_field(default_factory=dict)
    algebras: dict = dc_field(default_factory=dict)
    gradings: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)
    decls: list = dc_field(default_factory=list)   # each line's tokens, joined by spaces

    def all_names(self):
        out = set()
        for d in (self.fields, self.groups, self.rings, self.algebras,
                  self.gradings, self.maps):
            out.update(d)
        return out

    def canonical_text(self):
        return "\n".join(self.decls) + ("\n" if self.decls else "")


# -- the grammar -------------------------------------------------------------


def tokenize(line):
    """Split on whitespace.  `=` is always a token of its own, and a bracketed
    literal is one token with any spaces inside it dropped."""
    tokens, cur, depth = [], [], 0
    for ch in line + " ":
        if depth == 0 and (ch.isspace() or ch == "="):
            if cur:
                tokens.append("".join(cur))
                cur = []
            if ch == "=":
                tokens.append(ch)
            continue
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            raise InputError("unbalanced ']'")
        if not ch.isspace():
            cur.append(ch)
    if depth:
        raise InputError("unclosed '['")
    return tokens


_LOOKUPS = {"FIELD": "fields", "RING": "rings", "GROUP": "groups",
            "ALGEBRA": "algebras", "GRADING": "gradings", "MAP": "maps"}


def match(patterns, tokens, deck):
    """(pattern, slot values) for the first of `patterns` that matches all of
    `tokens`.  Pattern words: a lowercase word or `=` is literal; `a|b` is a
    choice and gives the token; NAME is a fresh identifier; FIELD, RING,
    GROUP, ALGEBRA, GRADING and MAP give the deck object of that name; INT
    gives an int, VECTOR the entries of a bracket literal and WORD the token;
    a final `...` gives the list of remaining tokens.  With no match, an
    InputError says what was expected where the patterns got furthest."""
    misses = []
    for pattern in patterns:
        values, miss = _match_words(pattern.split(), tokens, deck)
        if miss is None:
            return pattern, values
        misses.append(miss)
    pos = max(m[0] for m in misses)
    furthest = [m for m in misses if m[0] == pos]
    reasons = [reason for _, _, reason in furthest if reason]
    if reasons:
        raise InputError(reasons[0])
    got = repr(tokens[pos]) if pos < len(tokens) else "end of line"
    raise InputError("expected %s, got %s"
                     % ("|".join(dict.fromkeys(w for _, w, _ in furthest)), got))


def _match_words(words, tokens, deck):
    """(values, None) on a full match, else (None, (position, expected word,
    reason or None))."""
    values = []
    for pos, word in enumerate(words):
        if word == "...":
            return values + [tokens[pos:]], None
        if pos == len(tokens):
            return None, (pos, word, None)
        tok = tokens[pos]
        if word in _LOOKUPS:
            table = getattr(deck, _LOOKUPS[word])
            if tok not in table:
                return None, (pos, word, "unknown %s %r" % (word.lower(), tok))
            values.append(table[tok])
        elif word == "NAME" and tok.isidentifier():
            if tok in deck.all_names():
                return None, (pos, word, "name %r is already declared" % tok)
            values.append(tok)
        elif word == "INT" and tok.removeprefix("-").isdecimal():
            values.append(int(tok))
        elif word == "VECTOR" and tok.startswith("[") and tok.endswith("]"):
            values.append(split_bracketed(tok[1:-1]))
        elif word == "WORD" or ("|" in word and tok in word.split("|")):
            values.append(tok)
        elif word.isupper() or word != tok:   # a slot that does not fit, or a literal
            return None, (pos, word, None)
    if len(tokens) > len(words):
        return None, (len(words), "end of line", None)
    return values, None


# -- declarations ------------------------------------------------------------


def parse_deck(text):
    """The Deck of a deck text.  Every error is a DeckError naming its line.

    A `mul` line sets one product of the algebra declared above it; the
    algebra is built once the next declaration or the end of the deck closes
    its block."""
    deck, block = Deck(), None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = tokenize(raw.split("#", 1)[0])
            if not tokens:
                continue
            if tokens[0] != "mul":
                _close_algebra(deck, block)
                block = None
            try:
                pattern, values = match(DECLARATIONS, tokens, deck)
            except InputError as exc:
                raise DeckError(line_no, "bad %s line: %s" % (tokens[0], exc))
            if tokens[0] == "mul":
                if block is None:
                    raise DeckError(line_no, "mul line outside an algebra block")
                _mul(block, line_no, *values)
            elif tokens[0] == "algebra":
                block = _algebra(*values)
            else:   # a field line fills deck.fields, a ring line deck.rings, ...
                getattr(deck, tokens[0] + "s")[values[0]] = DECLARATIONS[pattern](*values)
            deck.decls.append(" ".join(tokens))
        except (DeckError, MathIdentityError):
            raise
        except WorkbenchError as exc:
            raise DeckError(line_no, str(exc))
        except (ValueError, ZeroDivisionError) as exc:
            # int() or Fraction() on a malformed literal such as x or 1/0
            raise DeckError(line_no, "bad number literal: %s" % exc)
    _close_algebra(deck, block)
    return deck


def _group(name, rhs):
    rhs = " ".join(rhs)
    if rhs in ("1", "Z/1"):
        return trivial_group()
    torsion, rank = [], 0
    for term in rhs.split("+"):
        term = term.strip()
        if term == "Z":
            rank += 1
        elif term.startswith("Z^"):
            rank += int(term[2:])
        elif term.startswith("Z/"):
            d = int(term[2:])
            if d != 1:
                torsion.append(d)
        else:
            raise InputError("bad group term %r" % term)
    return FGAbelianGroup(tuple(torsion), rank)


def _algebra(name, fld, dim, basis):
    """The open block of an algebra: its name, field, basis names, product
    table and the line of each product set so far."""
    basis = basis.split(",")
    if (len(basis) != dim or len(set(basis)) != dim
            or not all(b.isidentifier() for b in basis)):
        raise InputError("basis names must be %d distinct identifiers" % dim)
    zero = tuple(fld.zero() for _ in range(dim))
    return name, fld, basis, [[zero] * dim for _ in range(dim)], {}


def _mul(block, line_no, b1, b2, rhs):
    _, fld, basis, table, lines = block
    if b1 not in basis or b2 not in basis:
        raise InputError("unknown basis name in mul line")
    i, j = basis.index(b1), basis.index(b2)
    if (i, j) in lines:
        raise InputError("duplicate mul line for %s %s (first at line %d)"
                         % (b1, b2, lines[i, j]))
    lines[i, j] = line_no
    vec = [fld.zero()] * len(basis)
    rhs = " ".join(rhs)
    if rhs not in ("0", ""):
        for term in rhs.split("+"):
            parts = term.split()
            if len(parts) not in (1, 2):
                raise InputError("bad product term %r" % term)
            if parts[-1] not in basis:
                raise InputError("unknown basis name %r" % parts[-1])
            k = basis.index(parts[-1])
            coeff = fld.parse(parts[0]) if len(parts) == 2 else fld.one()
            vec[k] = fld.add(vec[k], coeff)
    table[i][j] = tuple(vec)


def _close_algebra(deck, block):
    if block is not None:
        name, fld, basis, table, _ = block
        deck.algebras[name] = galg.build_algebra(fld, len(basis), table, basis, label=name)


def _grading(name, algebra, group, rest):
    basis, degrees = algebra.basis_names, {}
    while rest:
        _, (bname, elt, rest) = match(["deg WORD = WORD ..."], rest, None)
        if bname not in basis:
            raise InputError("unknown basis name %r" % bname)
        if bname in degrees:
            raise InputError("second degree for %r" % bname)
        degrees[bname] = group.parse_element(elt)
    if len(degrees) != len(basis):
        raise InputError("every basis vector needs a degree")
    try:
        return galg.build_grading(algebra, group, [degrees[b] for b in basis], label=name)
    except GradingAxiomError as exc:
        i, j, _ = exc.witness
        raise InputError("grading axiom fails, witness (%s,%s)" % (basis[i], basis[j]))


def _map(name, algebra, ring, rows):
    if not all(r.startswith("[") and r.endswith("]") for r in rows):
        raise InputError("matrix rows must be bracketed")
    entries = [[ring.parse(c) for c in split_bracketed(r[1:-1])] for r in rows]
    try:
        algebra = galg.algebra_over(algebra, ring.field)
    except InputError:
        raise InputError("map ring field does not match the algebra field")
    return point_matrix(algebra, ring, entries)


def _parse_vector(fld, entries):
    return [fld.parse(c) for c in entries]


# Each declaration form, mapped to the builder of its object from the slot
# values; `algebra` and `mul` lines build one algebra between them.
DECLARATIONS = {
    "field NAME = rationals": lambda name: scalars.rationals(),
    "field NAME = prime INT": lambda name, p: scalars.prime_field(p),
    "field NAME = extend FIELD VECTOR":
        lambda name, base, v: scalars.extension_field(base, _parse_vector(base, v)),
    "group NAME = ...": _group,
    "ring NAME = base FIELD": lambda name, F: comrings.base_field_ring(F, label=name),
    "ring NAME = dual FIELD INT": lambda name, F, n: comrings.dual_numbers(F, n, label=name),
    "ring NAME = product RING RING":
        lambda name, R, S: comrings.product_ring(R, S, label=name),
    "ring NAME = groupalg FIELD GROUP":
        lambda name, F, G: comrings.group_algebra_finite(F, G, label=name),
    "ring NAME = trunc FIELD VECTOR":
        lambda name, F, v: comrings.truncated_poly(F, _parse_vector(F, v), label=name),
    "algebra NAME over FIELD dim INT basis WORD": _algebra,
    "mul WORD WORD = ...": _mul,
    "grading NAME on ALGEBRA by GROUP ...": _grading,
    "map NAME on ALGEBRA over RING = VECTOR": _map,
}
