"""Line-oriented deck files: named fields, groups, rings, algebras, gradings
and maps.  One declaration per line, `#` comments, byte-deterministic
canonical printing for golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import comrings, galg, scalars
from .abgroups import FGAbelianGroup, trivial_group
from .errors import (DeckError, GradingAxiomError, InputError, MathIdentityError,
                     WorkbenchError)
from .points import PointMatrix, point_matrix
from .scalars import split_bracketed


@dataclass
class Deck:
    fields: dict = dc_field(default_factory=dict)
    groups: dict = dc_field(default_factory=dict)
    rings: dict = dc_field(default_factory=dict)
    algebras: dict = dc_field(default_factory=dict)
    gradings: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)
    decls: list = dc_field(default_factory=list)   # canonical declaration lines

    def all_names(self):
        out = set()
        for d in (self.fields, self.groups, self.rings, self.algebras,
                  self.gradings, self.maps):
            out.update(d)
        return out

    def canonical_text(self):
        return "\n".join(self.decls) + ("\n" if self.decls else "")


def _check_fresh(deck, name, line_no):
    if name in deck.all_names():
        raise DeckError(line_no, "name %r is already declared" % name)


def parse_deck(text):
    deck = Deck()
    pending_algebra = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head = line.split()[0]
            if head == "field":
                _parse_field(deck, line, line_no)
                pending_algebra = _flush_algebra(deck, pending_algebra)
            elif head == "group":
                _parse_group(deck, line, line_no)
                pending_algebra = _flush_algebra(deck, pending_algebra)
            elif head == "ring":
                pending_algebra = _flush_algebra(deck, pending_algebra)
                _parse_ring(deck, line, line_no)
            elif head == "algebra":
                pending_algebra = _flush_algebra(deck, pending_algebra)
                pending_algebra = _parse_algebra_header(deck, line, line_no)
            elif head == "mul":
                if pending_algebra is None:
                    raise DeckError(line_no, "mul line outside an algebra block")
                _parse_mul(pending_algebra, line, line_no)
            elif head == "grading":
                pending_algebra = _flush_algebra(deck, pending_algebra)
                _parse_grading(deck, line, line_no)
            elif head == "map":
                pending_algebra = _flush_algebra(deck, pending_algebra)
                _parse_map(deck, line, line_no)
            else:
                raise DeckError(line_no, "unknown declaration %r" % head)
        except (DeckError, MathIdentityError):
            raise
        except WorkbenchError as exc:
            raise DeckError(line_no, str(exc))
        except (ValueError, ZeroDivisionError) as exc:
            # int() or Fraction() on a malformed literal such as x or 1/0
            raise DeckError(line_no, "bad number literal: %s" % exc)
    _flush_algebra(deck, pending_algebra)
    return deck


# -- field -------------------------------------------------------------------


def _parse_field(deck, line, line_no):
    name, rhs = _split_decl(line, "field", line_no)
    _check_fresh(deck, name, line_no)
    toks = rhs.split()
    if toks[0] == "rationals" and len(toks) == 1:
        fld = scalars.rationals()
    elif toks[0] == "prime" and len(toks) == 2:
        fld = scalars.prime_field(int(toks[1]))
    elif toks[0] == "extend" and len(toks) == 3:
        base = _lookup(deck.fields, toks[1], "field", line_no)
        coeffs = [base.parse(p) for p in split_bracketed(_unbracket(toks[2], line_no))]
        fld = scalars.extension_field(base, coeffs)
    else:
        raise DeckError(line_no, "bad field declaration")
    deck.fields[name] = fld
    deck.decls.append(line_canonical(line))


def _split_decl(line, kind, line_no):
    body = line[len(kind):].strip()
    if "=" not in body:
        raise DeckError(line_no, "expected NAME = ... in %s declaration" % kind)
    name, rhs = body.split("=", 1)
    name = name.strip()
    if not name.isidentifier():
        raise DeckError(line_no, "bad name %r" % name)
    if not rhs.strip():
        raise DeckError(line_no, "empty right-hand side in %s declaration" % kind)
    return name, rhs.strip()


def _lookup(table, name, kind, line_no):
    if name not in table:
        raise DeckError(line_no, "unknown %s %r" % (kind, name))
    return table[name]


def _unbracket(s, line_no):
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise DeckError(line_no, "expected a bracketed coefficient vector")
    return s[1:-1]


def line_canonical(line):
    return " ".join(line.split())


# -- group -------------------------------------------------------------------


def _parse_group(deck, line, line_no):
    name, rhs = _split_decl(line, "group", line_no)
    _check_fresh(deck, name, line_no)
    torsion, rank = [], 0
    if rhs.strip() in ("1", "Z/1"):
        deck.groups[name] = trivial_group()
        deck.decls.append(line_canonical(line))
        return
    for term in rhs.split("+"):
        term = term.strip()
        if term == "Z":
            rank += 1
        elif term.startswith("Z^"):
            rank += int(term[2:])
        elif term.startswith("Z/"):
            d = int(term[2:])
            if d == 1:
                continue
            torsion.append(d)
        else:
            raise DeckError(line_no, "bad group term %r" % term)
    deck.groups[name] = FGAbelianGroup(tuple(torsion), rank)
    deck.decls.append(line_canonical(line))


# -- ring --------------------------------------------------------------------


def _parse_ring(deck, line, line_no):
    name, rhs = _split_decl(line, "ring", line_no)
    _check_fresh(deck, name, line_no)
    toks = rhs.split()
    kind = toks[0]
    if kind == "base" and len(toks) == 2:
        ring = comrings.base_field_ring(_lookup(deck.fields, toks[1], "field", line_no),
                                        label=name)
    elif kind == "dual" and len(toks) == 3:
        ring = comrings.dual_numbers(_lookup(deck.fields, toks[1], "field", line_no),
                                     int(toks[2]), label=name)
    elif kind == "product" and len(toks) == 3:
        ring = comrings.product_ring(_lookup(deck.rings, toks[1], "ring", line_no),
                                     _lookup(deck.rings, toks[2], "ring", line_no),
                                     label=name)
    elif kind == "groupalg" and len(toks) == 3:
        ring = comrings.group_algebra_finite(
            _lookup(deck.fields, toks[1], "field", line_no),
            _lookup(deck.groups, toks[2], "group", line_no), label=name)
    elif kind == "trunc" and len(toks) == 3:
        fld = _lookup(deck.fields, toks[1], "field", line_no)
        coeffs = [fld.parse(p) for p in split_bracketed(_unbracket(toks[2], line_no))]
        ring = comrings.truncated_poly(fld, coeffs, label=name)
    else:
        raise DeckError(line_no, "bad ring declaration")
    deck.rings[name] = ring
    deck.decls.append(line_canonical(line))


# -- algebra -----------------------------------------------------------------


class _PendingAlgebra:
    def __init__(self, deck, name, fld, dim, basis, line_no):
        self.deck = deck
        self.name = name
        self.field = fld
        self.dim = dim
        self.basis = basis
        self.table = [[tuple(fld.zero() for _ in range(dim)) for _ in range(dim)]
                      for _ in range(dim)]
        self.mul_lines = {}   # (i, j) -> line number of its mul line
        self.line_no = line_no


def _parse_algebra_header(deck, line, line_no):
    toks = line.split()
    # algebra NAME over FIELD dim N basis a,b,c
    try:
        name = toks[1]
        assert len(toks) == 8 and toks[2:7:2] == ["over", "dim", "basis"]
        fld = _lookup(deck.fields, toks[3], "field", line_no)
        dim = int(toks[5])
        basis = toks[7].split(",")
    except (IndexError, AssertionError, ValueError):
        raise DeckError(line_no, "bad algebra declaration")
    _check_fresh(deck, name, line_no)
    if (len(basis) != dim or len(set(basis)) != dim
            or not all(b.isidentifier() for b in basis)):
        raise DeckError(line_no, "basis names must be %d distinct identifiers" % dim)
    deck.decls.append(line_canonical(line))
    return _PendingAlgebra(deck, name, fld, dim, basis, line_no)


def _parse_mul(pending, line, line_no):
    lhs, eq, rhs = line.partition("=")
    toks, rhs = lhs.split(), rhs.strip()
    if not eq or len(toks) != 3:
        raise DeckError(line_no, "bad mul line")
    b1, b2 = toks[1], toks[2]
    try:
        i = pending.basis.index(b1)
        j = pending.basis.index(b2)
    except ValueError:
        raise DeckError(line_no, "unknown basis name in mul line")
    if (i, j) in pending.mul_lines:
        raise DeckError(line_no, "duplicate mul line for %s %s (first at line %d)"
                        % (b1, b2, pending.mul_lines[i, j]))
    pending.mul_lines[i, j] = line_no
    vec = [pending.field.zero()] * pending.dim
    if rhs not in ("0", ""):
        for term in rhs.split("+"):
            parts = term.split()
            if len(parts) == 1:
                coeff, bname = pending.field.one(), parts[0]
            elif len(parts) == 2:
                coeff, bname = pending.field.parse(parts[0]), parts[1]
            else:
                raise DeckError(line_no, "bad product term %r" % term)
            try:
                k = pending.basis.index(bname)
            except ValueError:
                raise DeckError(line_no, "unknown basis name %r" % bname)
            vec[k] = pending.field.add(vec[k], coeff)
    pending.table[i][j] = tuple(vec)
    pending.deck.decls.append(line_canonical(line))


def _flush_algebra(deck, pending):
    if pending is not None:
        deck.algebras[pending.name] = galg.build_algebra(
            pending.field, pending.dim, pending.table, pending.basis,
            label=pending.name)
    return None


# -- grading -----------------------------------------------------------------


def _parse_grading(deck, line, line_no):
    toks = line.split()
    # grading NAME on ALG by GROUP deg b=e ...
    try:
        name = toks[1]
        assert toks[2] == "on" and toks[4] == "by"
        algebra = _lookup(deck.algebras, toks[3], "algebra", line_no)
        group = _lookup(deck.groups, toks[5], "group", line_no)
    except (IndexError, AssertionError):
        raise DeckError(line_no, "bad grading declaration")
    _check_fresh(deck, name, line_no)
    labels = [None] * algebra.dim
    rest = toks[6:]
    if len(rest) % 2 != 0:
        raise DeckError(line_no, "bad degree assignments")
    for key, assign in zip(rest[::2], rest[1::2]):
        if key != "deg" or "=" not in assign:
            raise DeckError(line_no, "bad degree assignment %r" % assign)
        bname, elt = assign.split("=", 1)
        try:
            idx = list(algebra.basis_names).index(bname)
        except ValueError:
            raise DeckError(line_no, "unknown basis name %r" % bname)
        labels[idx] = group.parse_element(elt)
    if any(l is None for l in labels):
        raise DeckError(line_no, "every basis vector needs a degree")
    try:
        gr = galg.build_grading(algebra, group, labels, label=name)
    except GradingAxiomError as exc:
        i, j, k = exc.witness
        raise DeckError(line_no, "grading axiom fails, witness (%s,%s)"
                        % (algebra.basis_names[i], algebra.basis_names[j]))
    deck.gradings[name] = gr
    deck.decls.append(line_canonical(line))


# -- map ---------------------------------------------------------------------


def _parse_map(deck, line, line_no):
    # map NAME on ALG over RING = [[..],[..]]
    try:
        head, body = line.split("=", 1)
        toks = head.split()
        assert len(toks) == 6 and toks[2] == "on" and toks[4] == "over"
        name = toks[1]
        algebra = _lookup(deck.algebras, toks[3], "algebra", line_no)
        ring = _lookup(deck.rings, toks[5], "ring", line_no)
        body = body.strip()
    except (ValueError, AssertionError):
        raise DeckError(line_no, "bad map declaration")
    _check_fresh(deck, name, line_no)
    if not (body.startswith("[") and body.endswith("]")):
        raise DeckError(line_no, "matrix literal must be [[...],[...]]")
    rows_raw = split_bracketed(body[1:-1])
    if len(rows_raw) != algebra.dim:
        raise DeckError(line_no, "matrix needs %d rows" % algebra.dim)
    rows = []
    for row_raw in rows_raw:
        row_raw = row_raw.strip()
        if not (row_raw.startswith("[") and row_raw.endswith("]")):
            raise DeckError(line_no, "matrix rows must be bracketed")
        cells = split_bracketed(row_raw[1:-1])
        if len(cells) != algebra.dim:
            raise DeckError(line_no, "matrix rows need %d entries" % algebra.dim)
        rows.append([ring.parse(c) for c in cells])
    try:
        algebra = galg.algebra_over(algebra, ring.field)
    except InputError:
        raise DeckError(line_no, "map ring field does not match the algebra field")
    deck.maps[name] = point_matrix(algebra, ring, rows)
    deck.decls.append(line_canonical(line))
