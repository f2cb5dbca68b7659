"""Textual formats: parsing with full validation, and canonical serialization.

All documents are JSON.  Canonical form: two-space indent, sorted object
keys, one trailing newline, and semantically ordered lists (elements and
covers sorted lexicographically, payoff tables sorted by profile).  Lists
whose order carries meaning (``players``, labeled-chain ``labels``) keep
their declared order.  ``parse(serialize(x))`` returns an equal instance and
serialization of a canonical document is byte-identical to it.  One writer,
``canonical_dumps``, turns every document object into its text: the text
``json.dumps(obj, indent=2, sort_keys=True)`` gives, with json's own ASCII
escaping of strings, written without json's pure-Python indenting encoder.

Rational values are serialized as ``str`` of their ``Fraction``, ``"p/q"``
or a bare integer string; floats are rejected to keep everything exact.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .errors import CapExceeded, LatGamesError, NotALattice, ParseError
from .functions import ChainCodomain, LatticeFunction, ranked_image, rational_ranks
from .games import Game
from .lattice import FiniteLattice, lattice_from_covers, product_lattice, radix_strides
from .topology import EXPLICIT, KINDS, TopologySpec


_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
MAX_EXPONENT = 4300  # Python's default digit limit for reading an int
PRODUCT_CAP = 1 << 14  # elements of one product lattice, checked before it is built
ELEMENT_CAP = 1 << 10  # elements of one covers-built lattice, checked before it is built


def read_pair(raw) -> tuple:
    """Exact rational from an int or a "p" / "p/q" string, as an integer pair
    (numerator, denominator > 0), not necessarily in lowest terms.

    A plain ASCII ``-?digits[/digits]`` string is split and read by ``int``;
    anything else (signs, spaces, decimals, exponents, other digits) goes
    through ``Fraction``'s own parser.  Both give the same value or both fail,
    except that an exponent beyond ±``MAX_EXPONENT`` is a ``ParseError``
    before ``Fraction`` would build 10**exponent exactly.
    """
    if isinstance(raw, str):
        try:
            if _PLAIN_RATIONAL.fullmatch(raw):
                numerator, _, denominator = raw.partition("/")
                pair = int(numerator), int(denominator or 1)
                if pair[1]:
                    return pair
                raise ZeroDivisionError
            exponent = _EXPONENT.search(raw)
            if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent[1]} of {raw!r} exceeds the cap of "
                                 f"±{MAX_EXPONENT}")
            return Fraction(raw).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot read {raw!r} as an exact rational") from exc
    if isinstance(raw, bool):
        raise ParseError(f"boolean {raw!r} is not a rational value")
    if isinstance(raw, int):
        return raw, 1
    if isinstance(raw, float):
        raise ParseError("floating-point values are rejected; use exact \"p/q\" strings")
    raise ParseError(f"cannot read {raw!r} as an exact rational")


def parse_value(raw) -> Fraction:
    """``read_pair`` as a ``Fraction``."""
    return Fraction(*read_pair(raw))


def _expect(obj, field, kind, where):
    if not isinstance(obj, dict) or field not in obj:
        raise ParseError(f"{where}: missing field {field!r}")
    value = obj[field]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"{where}: field {field!r} has the wrong type")
    return value


def _labels(value, where, what) -> list:
    """``value`` itself, once checked to be a list of label strings."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{where}: {what} must be a list of label strings")
    return value


def parse_lattice(obj, where: str = "lattice") -> FiniteLattice:
    """``product_lattice`` of a ``product`` document's factors, else
    ``lattice_from_covers``, so a chain skips the closure and bound search.
    A malformed document is a ``ParseError``; ``NotALattice`` is raised as is.
    A product of more than ``PRODUCT_CAP`` elements is ``CapExceeded`` before
    it is built: its size is exponential in the document's length.  So is
    an element list longer than ``ELEMENT_CAP``: its meet and join tables
    are quadratic in the document's length."""
    if isinstance(obj, dict) and "product" in obj:
        factor_objs = _expect(obj, "product", list, where)
        if not factor_objs:
            raise ParseError(f"{where}: empty factor list")
        factors = [parse_lattice(fo, where=f"{where}.product[{k}]")
                   for k, fo in enumerate(factor_objs)]
        size = math.prod(f.n for f in factors)
        if size > PRODUCT_CAP:
            raise CapExceeded(f"{where}: a product of {size} elements exceeds the cap of "
                              f"{PRODUCT_CAP}")
        return product_lattice(factors)
    elements = _expect(obj, "elements", list, where)
    covers = _expect(obj, "covers", list, where)
    if not elements:
        raise ParseError(f"{where}: empty elements list")
    if len(elements) > ELEMENT_CAP:
        raise CapExceeded(f"{where}: a lattice of {len(elements)} elements exceeds the cap of "
                          f"{ELEMENT_CAP}")
    for c in covers:
        if len(_labels(c, where, "each cover")) != 2:
            raise ParseError(f"{where}: covers must be two-element label lists")
    try:
        return lattice_from_covers(elements, covers)
    except NotALattice:
        raise  # with its witness pair: the document is well-formed, the order fails
    except LatGamesError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def lattice_obj(L: FiniteLattice) -> dict:
    # Product structure is preserved so split-based checks survive a round
    # trip; the factor list order is semantic and never sorted.
    if L.factors is not None:
        return {"product": [lattice_obj(f) for f in L.factors]}
    return {
        "elements": list(L.labels),
        "covers": [list(c) for c in L.covers],
    }


def parse_codomain(obj, where: str = "codomain") -> ChainCodomain:
    kind = _expect(obj, "kind", str, where)
    if kind == "rational":
        return ChainCodomain.rational()
    if kind == "labeled":
        labels = _labels(_expect(obj, "labels", None, where), where, "labels")
        try:
            return ChainCodomain.labeled(labels)
        except LatGamesError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown codomain kind {kind!r}")


def codomain_obj(codomain: ChainCodomain) -> dict:
    if codomain.is_rational:
        return {"kind": "rational"}
    return {"kind": "labeled", "labels": list(codomain.labels)}


def _ranked_rationals(raws):
    """``(ranks, image)`` of raw rational table values: each distinct raw is
    read once by ``read_pair`` and ranked by ``rational_ranks``, and the
    result is the rank of each raw, in order, and the integer pair of each
    rank.  None when a raw is not a string or an int (bool, float, null,
    list and object values are faults) or ``read_pair`` refuses it.  This
    is the one reader of rational tables, for payoffs and for functions."""
    if not set(map(type, raws)) <= {str, int}:
        return None
    distinct = list(dict.fromkeys(raws))
    try:
        pairs = list(map(read_pair, distinct))
    except ParseError:
        return None
    ranks = rational_ranks(pairs)
    rank_of = dict(zip(distinct, ranks))
    return list(map(rank_of.__getitem__, raws)), ranked_image(pairs, ranks)


def _table_columns(rows, index, count, codomain):
    """A table's rows read column by column with C-level ``map``: each row's
    ``value`` field placed at the slot ``index(rows)`` gives that row, for
    slots 0..count-1.  The result is ``_ranked_rationals``' ``(ranks,
    image)`` in slot order for a rational codomain, and the values, all
    strings, with image None for a labeled one.  This is the one column
    pass, for function tables and for payoff tables.  None on any anomaly:
    a row that is not an object, a missing field, a row ``index`` cannot
    place, a duplicate, a table that is not total, or an unreadable value."""
    try:
        placed = dict(zip(index(rows), map(itemgetter("value"), rows)))
        raws = list(map(placed.__getitem__, range(count)))
    except (KeyError, TypeError):
        return None
    if len(rows) != count or len(placed) != count:
        return None
    if codomain.is_rational:
        return _ranked_rationals(raws)
    return (raws, None) if set(map(type, raws)) == {str} else None


def _table_rows(rows, key, duplicate, codomain, at) -> dict:
    """A table's rows read one at a time, in document order, into a dict
    keyed by ``key(row)``, which checks the row's key and raises its first
    fault; then each row is checked for duplicate (``duplicate`` and the
    key), ``value`` field and value.  The one row loop, for function and
    payoff tables, run only on tables that the column pass finds anomalous,
    to name the first fault."""
    table = {}
    for row in rows:
        k = key(row)
        if k in table:
            raise ParseError(f"{duplicate} {k!r}")
        raw = _expect(row, "value", None, at)
        if codomain.is_rational:
            table[k] = parse_value(raw)
        elif isinstance(raw, str):
            table[k] = raw
        else:
            raise ParseError(f"{at}: labeled values must be strings")
    return table


def parse_function(obj, where: str = "function") -> LatticeFunction:
    """A function document, its table read by ``_table_columns`` with each
    row placed at the index of its ``element`` in ``domain.index``.  When
    that finds an anomaly, ``_table_rows`` reads the rows again, keyed by
    their ``element`` strings, and names the first fault, or the
    ``LatticeFunction`` constructor finds the table not total.
    ``LatticeFunction`` takes rational values as ranks and ``_image``, and
    labeled values as a table, which it checks against their chain."""
    domain = parse_lattice(_expect(obj, "domain", dict, where), where=f"{where}.domain")
    codomain = parse_codomain(_expect(obj, "codomain", dict, where), where=f"{where}.codomain")
    rows = _expect(obj, "table", list, where)
    read = _table_columns(rows, lambda rows: map(domain.index.__getitem__,
                                                 map(itemgetter("element"), rows)),
                          domain.n, codomain)
    try:
        if read is None:
            at = f"{where}.table"
            return LatticeFunction(domain, codomain, _table_rows(
                rows, lambda row: _expect(row, "element", str, at),
                f"{where}: duplicate table entry for", codomain, at))
        values, image = read
        return LatticeFunction(domain, codomain,
                               dict(zip(domain.labels, values)) if image is None else values,
                               _image=image)
    except ParseError:
        raise  # a row fault, named by the row loop
    except LatGamesError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def function_obj(f: LatticeFunction) -> dict:
    rows = [{"element": label, "value": str(value)}
            for label, value in zip(f.domain.labels, f.values)]
    return {"domain": lattice_obj(f.domain), "codomain": codomain_obj(f.codomain), "table": rows}


def parse_topology(obj, where: str = "topology") -> TopologySpec:
    kind = _expect(obj, "kind", str, where)
    if kind not in KINDS:
        raise ParseError(f"{where}: unknown topology kind {kind!r}")
    if kind == EXPLICIT:
        sets = _expect(obj, "closed_sets", list, where)
        return TopologySpec(kind, tuple(tuple(_labels(s, where, "each closed set")) for s in sets))
    return TopologySpec(kind)


def topology_obj(spec: TopologySpec) -> dict:
    if spec.kind == EXPLICIT:
        return {"kind": spec.kind,
                "closed_sets": sorted([sorted(s) for s in spec.closed_sets])}
    return {"kind": spec.kind}


def _profile(row, players, at) -> tuple:
    """A payoff row's profile, the labels of ``players`` in order, checked
    for profile object, missing coordinate, label strings and unknown
    players, the first fault raised."""
    profile_map = _expect(row, "profile", dict, at)
    try:
        profile = tuple(map(profile_map.__getitem__, players))
    except KeyError as exc:
        raise ParseError(f"{at}: profile missing coordinate {exc}") from None
    _labels(list(profile), at, "profile coordinates")
    if len(profile_map) != len(players):
        raise ParseError(f"{at}: profile names unknown players")
    return profile


def _payoff_tables(players, factors, codomains, payoffs_obj, where) -> tuple:
    """``Game``'s ``payoffs`` and ``_images`` from the players' payoff rows,
    read player by player by ``_table_columns``.  A row's slot is its
    profile index: the sum of each player's ``{label: label index ·
    stride}`` slot of its coordinate, and none when the profile does not
    name exactly the players.  A player whose rows the column pass finds
    anomalous is read again by ``_table_rows``, keyed by ``_profile``, which
    raises the first fault in document order or, for a table with an
    unknown label or one that is not total, returns it profile-keyed, so
    that ``Game`` reports it after every row of every player has been read.
    Labeled values are checked against their chain by ``Game``."""
    slots = [{label: k * stride for k, label in enumerate(f.labels)}
             for f, stride in zip(factors, radix_strides(factors))]

    def index(rows):
        profiles = list(map(itemgetter("profile"), rows))
        if set(map(len, profiles)) != {len(players)}:
            return ()  # places no row, so the column pass refuses the table
        return map(sum, zip(*[map(slot.__getitem__, map(itemgetter(p), profiles))
                              for p, slot in zip(players, slots)]))

    count = math.prod(f.n for f in factors)
    payoffs, images = {}, {}
    for p in players:
        rows = _expect(payoffs_obj, p, list, f"{where}.payoffs")
        read = _table_columns(rows, index, count, codomains[p])
        if read is None:
            at = f"{where}.payoffs[{p}]"
            payoffs[p] = _table_rows(rows, lambda row: _profile(row, players, at),
                                     f"{at}: duplicate profile", codomains[p], at)
            continue
        payoffs[p], image = read
        if image is not None:
            images[p] = image
    return payoffs, images


def parse_game(obj, where: str = "game") -> Game:
    players = _labels(_expect(obj, "players", None, where), where, "players")
    strategies_obj = _expect(obj, "strategies", dict, where)
    codomains_obj = _expect(obj, "codomains", dict, where)
    payoffs_obj = _expect(obj, "payoffs", dict, where)
    strategies = {p: parse_lattice(_expect(strategies_obj, p, dict, f"{where}.strategies"),
                                   where=f"{where}.strategies[{p}]")
                  for p in players}
    codomains = {p: parse_codomain(_expect(codomains_obj, p, dict, f"{where}.codomains"),
                                   where=f"{where}.codomains[{p}]")
                 for p in players}
    payoffs, images = _payoff_tables(players, [strategies[p] for p in players], codomains,
                                     payoffs_obj, where)
    try:
        return Game(players, strategies, codomains, payoffs, _images=images)
    except LatGamesError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def game_obj(G: Game) -> dict:
    profiles = [dict(zip(G.players, profile)) for profile in G.profiles()]
    payoffs = {p: [{"profile": profile, "value": str(value)}
                   for profile, value in zip(profiles, G.values[p])] for p in G.players}
    return {
        "players": list(G.players),
        "strategies": {p: lattice_obj(G.strategies[p]) for p in G.players},
        "codomains": {p: codomain_obj(G.codomains[p]) for p in G.players},
        "payoffs": payoffs,
    }


# The document kinds, in detection order: the root fields that mark one,
# its parser, its writer and the type of its instances.
_DOCUMENTS = {
    "game": (("players",), parse_game, game_obj, Game),
    "function": (("table",), parse_function, function_obj, LatticeFunction),
    "lattice": (("elements", "product"), parse_lattice, lattice_obj, FiniteLattice),
    "topology": (("kind",), parse_topology, topology_obj, TopologySpec),
}


def detect_kind(obj) -> str:
    if not isinstance(obj, dict):
        raise ParseError("document root must be an object")
    for kind, (fields, *_) in _DOCUMENTS.items():
        if any(field in obj for field in fields):
            return kind
    raise ParseError("cannot tell whether this document is a lattice, function, game, or topology")


def parse(text: str):
    """Detect and parse one instance; returns ``(kind, instance)``."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise ParseError(f"not valid JSON: {exc}") from exc
    kind = detect_kind(obj)
    return kind, _DOCUMENTS[kind][1](obj)


def serialize(instance) -> str:
    """Canonical textual form of a lattice, function, game, or topology spec."""
    for _, _, write, cls in _DOCUMENTS.values():
        if isinstance(instance, cls):
            return canonical_dumps(write(instance))
    raise TypeError(f"cannot serialize {type(instance).__name__}")


def canonical_dumps(obj) -> str:
    """The canonical text of a document object: the text of ``json.dumps(obj,
    indent=2, sort_keys=True)`` plus a newline, written directly.  It takes
    what the ``*_obj`` writers emit, strings, lists and objects with string
    keys, and raises ``TypeError`` on anything else."""
    return _dumps(obj, "\n") + "\n"


def _dumps(obj, indent: str) -> str:
    """``obj`` at the nesting whose line break and indent is ``indent``:
    strings escaped by json's own ``ensure_ascii`` encoder (inline for the
    items and member values that are strings), list items and object
    members, keys sorted, one per line two spaces deeper, and ``[]`` or
    ``{}`` for an empty container."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [encode_basestring_ascii(item) if type(item) is str else _dumps(item, inner)
                 for item in obj]
        opening, closing = "[", "]"
    elif isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(key)}: "
                 f"{encode_basestring_ascii(v) if type(v) is str else _dumps(v, inner)}"
                 for key, v in sorted(obj.items())]
        opening, closing = "{", "}"
    else:
        raise TypeError(f"a canonical document holds no {type(obj).__name__}")
    return opening + inner + ("," + inner).join(items) + indent + closing


def load_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse(text)


def load_as(path, kind: str):
    """The instance of the document at ``path``, which must hold a ``kind``."""
    found, instance = load_path(path)
    if found != kind:
        raise ParseError(f"{path} holds a {found}, expected a {kind}")
    return instance


def save_path(path, instance):
    text = serialize(instance)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
