"""Textual formats: parsing with full validation, and canonical serialization.

All documents are JSON.  Canonical form: two-space indent, sorted object
keys, one trailing newline, and semantically ordered lists (elements and
covers sorted lexicographically, payoff tables sorted by profile).  Lists
whose order carries meaning (``players``, labeled-chain ``labels``) keep
their declared order.  ``parse(serialize(x))`` returns an equal instance and
serialization of a canonical document is byte-identical to it.

Rational values are serialized as ``str`` of their ``Fraction``, ``"p/q"``
or a bare integer string; floats are rejected to keep everything exact.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from operator import itemgetter

from .errors import LatGamesError, NotALattice, ParseError
from .functions import ChainCodomain, LatticeFunction, ranked_image, rational_ranks
from .games import Game
from .lattice import FiniteLattice, lattice_from_covers, product_lattice, radix_strides
from .topology import EXPLICIT, KINDS, TopologySpec


_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
MAX_EXPONENT = 4300  # Python's default digit limit for reading an int


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
    A malformed document is a ``ParseError``; ``NotALattice`` is raised as is."""
    if isinstance(obj, dict) and "product" in obj:
        factor_objs = _expect(obj, "product", list, where)
        if not factor_objs:
            raise ParseError(f"{where}: empty factor list")
        factors = [parse_lattice(fo, where=f"{where}.product[{k}]")
                   for k, fo in enumerate(factor_objs)]
        return product_lattice(factors)
    elements = _expect(obj, "elements", list, where)
    covers = _expect(obj, "covers", list, where)
    if not elements:
        raise ParseError(f"{where}: empty elements list")
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


def _read_table_value(codomain, raw, where, cache):
    """One table value of ``codomain``; rational strings go through
    ``cache``, a per-document memo of the strings already read."""
    if not codomain.is_rational:
        if not isinstance(raw, str):
            raise ParseError(f"{where}: labeled values must be strings")
        return raw
    if type(raw) is not str:
        return parse_value(raw)
    value = cache.get(raw)
    if value is None:
        value = cache[raw] = parse_value(raw)
    return value


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


def _function_columns(rows, domain, codomain):
    """A function's table rows read column by column with C-level ``map``:
    the ``element`` fields placed through ``domain.index`` and the ``value``
    fields.  Rational values are ranked by ``_ranked_rationals`` and passed
    to ``LatticeFunction`` as ranks and ``_image``; labeled values, all
    strings, as a table, which the constructor checks against their chain.
    None on any anomaly: a row that is not an object, a missing field, an
    element that is not a label of the domain, a duplicate, a table that is
    not total, or an unreadable value."""
    try:
        index = list(map(domain.index.__getitem__, map(itemgetter("element"), rows)))
        placed = dict(zip(index, map(itemgetter("value"), rows)))
    except (KeyError, TypeError):
        return None
    if len(rows) != domain.n or len(placed) != domain.n:
        return None
    raws = list(map(placed.__getitem__, range(domain.n)))
    if not codomain.is_rational:
        if set(map(type, raws)) != {str}:
            return None
        return LatticeFunction(domain, codomain, dict(zip(domain.labels, raws)))
    ranked = _ranked_rationals(raws)
    return None if ranked is None else LatticeFunction(domain, codomain, ranked[0],
                                                       _image=ranked[1])


def _function_rows(rows, domain, codomain, where) -> LatticeFunction:
    """A function's table rows read one at a time, in document order, each
    checked for ``element`` string, duplicate, ``value`` field and value,
    the first fault raised; the ``LatticeFunction`` constructor then checks
    that the table is total.  ``parse_function`` runs it only on tables
    that its column pass finds anomalous, to name the fault."""
    table = {}
    cache = {}
    for row in rows:
        element = _expect(row, "element", str, f"{where}.table")
        if element in table:
            raise ParseError(f"{where}: duplicate table entry for {element!r}")
        table[element] = _read_table_value(codomain, _expect(row, "value", None, f"{where}.table"),
                                           f"{where}.table", cache)
    return LatticeFunction(domain, codomain, table)


def parse_function(obj, where: str = "function") -> LatticeFunction:
    """A function document, its table read by ``_function_columns``, or by
    ``_function_rows`` when that finds an anomaly."""
    domain = parse_lattice(_expect(obj, "domain", dict, where), where=f"{where}.domain")
    codomain = parse_codomain(_expect(obj, "codomain", dict, where), where=f"{where}.codomain")
    rows = _expect(obj, "table", list, where)
    try:
        return (_function_columns(rows, domain, codomain)
                or _function_rows(rows, domain, codomain, where))
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


def _payoff_columns(rows, players, slots, count, codomain):
    """A player's payoff rows read column by column with C-level ``map``:
    the profile dicts, each player's ``{label: label index · stride}`` slot
    of them, summed into profile indexes, and the ``value`` fields.
    Rational values are ranked by ``_ranked_rationals``, in profile-index
    order.  Labeled values come back as they are.
    None on any anomaly: a row or profile that is not an object, a profile
    that does not name exactly the players, an unknown label, a duplicate,
    a missing or unreadable value, or a table that is not total."""
    try:
        profiles = list(map(itemgetter("profile"), rows))
        index = list(map(sum, zip(*[map(slot.__getitem__, map(itemgetter(p), profiles))
                                    for p, slot in zip(players, slots)])))
        placed = dict(zip(index, map(itemgetter("value"), rows)))
    except (KeyError, TypeError):
        return None
    if len(rows) != count or len(placed) != count or set(map(len, profiles)) != {len(players)}:
        return None
    raws = list(map(placed.__getitem__, range(count)))
    if not codomain.is_rational:
        return raws if set(map(type, raws)) == {str} else None
    return _ranked_rationals(raws)


def _payoff_rows(rows, players, codomain, at) -> dict:
    """A player's payoff rows read one at a time, in document order, into a
    profile-keyed table, each checked for profile object, missing
    coordinate, label strings, unknown players, duplicate, ``value`` field
    and value, the first fault raised.  ``_payoff_tables`` runs it only on
    rows that its column pass finds anomalous, to name the fault."""
    table, memo = {}, {}
    for row in rows:
        profile_map = _expect(row, "profile", dict, at)
        try:
            profile = tuple(map(profile_map.__getitem__, players))
        except KeyError as exc:
            raise ParseError(f"{at}: profile missing coordinate {exc}") from None
        _labels(list(profile), at, "profile coordinates")
        if len(profile_map) != len(players):
            raise ParseError(f"{at}: profile names unknown players")
        if profile in table:
            raise ParseError(f"{at}: duplicate profile {profile}")
        table[profile] = _read_table_value(codomain, _expect(row, "value", None, at), at, memo)
    return table


def _payoff_tables(players, factors, codomains, payoffs_obj, where) -> tuple:
    """``Game``'s ``payoffs`` and ``_images`` from the players' payoff rows,
    read player by player by ``_payoff_columns``.  A player whose rows it
    finds anomalous is read again by ``_payoff_rows``, which raises the
    first fault in document order or, for a table with an unknown label or
    one that is not total, returns it profile-keyed, so that ``Game``
    reports it after every row of every player has been read.  Labeled
    values are checked against their chain by ``Game``."""
    slots = [{label: k * stride for k, label in enumerate(f.labels)}
             for f, stride in zip(factors, radix_strides(factors))]
    count = math.prod(f.n for f in factors)
    payoffs, images = {}, {}
    for p in players:
        rows = _expect(payoffs_obj, p, list, f"{where}.payoffs")
        read = _payoff_columns(rows, players, slots, count, codomains[p])
        if read is None:
            payoffs[p] = _payoff_rows(rows, players, codomains[p], f"{where}.payoffs[{p}]")
        elif codomains[p].is_rational:
            payoffs[p], images[p] = read
        else:
            payoffs[p] = read
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


def detect_kind(obj) -> str:
    if not isinstance(obj, dict):
        raise ParseError("document root must be an object")
    if "players" in obj:
        return "game"
    if "table" in obj:
        return "function"
    if "elements" in obj or "product" in obj:
        return "lattice"
    if "kind" in obj:
        return "topology"
    raise ParseError("cannot tell whether this document is a lattice, function, game, or topology")


def parse(text: str):
    """Detect and parse one instance; returns ``(kind, instance)``."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise ParseError(f"not valid JSON: {exc}") from exc
    kind = detect_kind(obj)
    if kind == "game":
        return kind, parse_game(obj)
    if kind == "function":
        return kind, parse_function(obj)
    if kind == "lattice":
        return kind, parse_lattice(obj)
    return kind, parse_topology(obj)


def serialize(instance) -> str:
    """Canonical textual form of a lattice, function, game, or topology spec."""
    if isinstance(instance, Game):
        obj = game_obj(instance)
    elif isinstance(instance, LatticeFunction):
        obj = function_obj(instance)
    elif isinstance(instance, FiniteLattice):
        obj = lattice_obj(instance)
    elif isinstance(instance, TopologySpec):
        obj = topology_obj(instance)
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    return canonical_dumps(obj)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse(text)


def save_path(path, instance):
    text = serialize(instance)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
