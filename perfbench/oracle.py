"""Known answers for every benchmark command, independent of latgames.

Nothing here imports latgames.  Orders come from the documents' cover
relations by plain reachability, meets and joins by scanning bounds, Nash
sets and best responses by loops over the raw payoff tables.  Verdicts the
construction fixes (a ladder game validates, a planted grid fails
quasisupermodularity at a known pair) come from the ``expect`` record that
``workloads.py`` stores with each command.  Every ``FAIL`` line is re-checked
against the document, whether its witness was predicted or not.
"""
from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction

# Above this many equilibria the complete-lattice verdict is taken from the
# construction (validated games, Zhou's theorem) instead of an O(|E|^3) scan.
BRUTE_FORCE_EQUILIBRIA = 24


class Order:
    """A finite lattice given by elements and covers, or by a product of
    such lattices whose element labels are ``(l1,...,lk)``."""

    def __init__(self, doc):
        if "product" in doc:
            self.factors = [Order(f) for f in doc["product"]]
            self.labels = sorted("(" + ",".join(parts) + ")" for parts in
                                 itertools.product(*(f.labels for f in self.factors)))
            return
        self.factors = None
        self.labels = sorted(doc["elements"])
        above = {e: set() for e in self.labels}
        for lo, hi in doc["covers"]:
            above[lo].add(hi)
        self.up = {}
        for e in self.labels:
            seen, todo = {e}, [e]
            while todo:
                for nxt in above[todo.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            self.up[e] = seen
        self._meet, self._join = {}, {}

    def parts(self, label):
        return label[1:-1].split(",")

    def leq(self, a, b) -> bool:
        if self.factors is not None:
            return all(f.leq(x, y) for f, x, y in zip(self.factors, self.parts(a), self.parts(b)))
        return b in self.up[a]

    def _bound(self, a, b, below: bool):
        if self.factors is not None:
            op = (lambda f, x, y: f.meet(x, y)) if below else (lambda f, x, y: f.join(x, y))
            return "(" + ",".join(op(f, x, y) for f, x, y in
                                  zip(self.factors, self.parts(a), self.parts(b))) + ")"
        cache = self._meet if below else self._join
        key = (a, b)
        if key not in cache:
            if below:
                bounds = [z for z in self.labels if self.leq(z, a) and self.leq(z, b)]
                best = [z for z in bounds if all(self.leq(w, z) for w in bounds)]
            else:
                bounds = [z for z in self.labels if self.leq(a, z) and self.leq(b, z)]
                best = [z for z in bounds if all(self.leq(z, w) for w in bounds)]
            if len(best) != 1:
                raise ValueError(f"{a}, {b} have no {'meet' if below else 'join'}")
            cache[key] = best[0]
        return cache[key]

    def meet(self, a, b):
        return self._bound(a, b, True)

    def join(self, a, b):
        return self._bound(a, b, False)

    def least(self):
        return next((z for z in self.labels if all(self.leq(z, w) for w in self.labels)), None)

    def greatest(self):
        return next((z for z in self.labels if all(self.leq(w, z) for w in self.labels)), None)

    def chain(self):
        """Elements of a chain from bottom to top."""
        return sorted(self.labels, key=lambda e: sum(self.leq(w, e) for w in self.labels))


def value(raw) -> Fraction:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise ValueError(f"inexact value {raw!r}")
    return Fraction(raw)


# ------------------------------------------------------------------ games

class GameDoc:
    def __init__(self, doc):
        self.players = doc["players"]
        self.orders = [Order(doc["strategies"][p]) for p in self.players]
        self.pay = []
        for p in self.players:
            self.pay.append({tuple(row["profile"][q] for q in self.players): value(row["value"])
                             for row in doc["payoffs"][p]})
        self.rational = all(doc["codomains"][p]["kind"] == "rational" for p in self.players)
        self._br = {}

    def profiles(self):
        return itertools.product(*(o.labels for o in self.orders))

    def opp_profiles(self, i):
        return itertools.product(*(o.labels for j, o in enumerate(self.orders) if j != i))

    @staticmethod
    def insert(i, opp, label):
        return opp[:i] + (label,) + opp[i:]

    def best_responses(self, i, opp) -> frozenset:
        key = (i, opp)
        if key not in self._br:
            u = self.pay[i]
            vals = {x: u[self.insert(i, opp, x)] for x in self.orders[i].labels}
            best = max(vals.values())
            self._br[key] = frozenset(x for x, v in vals.items() if v == best)
        return self._br[key]

    def leq(self, a, b) -> bool:
        return all(o.leq(x, y) for o, x, y in zip(self.orders, a, b))

    def nash(self):
        return [e for e in self.profiles()
                if all(e[i] in self.best_responses(i, e[:i] + e[i + 1:])
                       for i in range(len(self.players)))]

    def extremal_iteration(self, greatest: bool):
        """Iterate the greatest (least) best response from the top (bottom)."""
        x = tuple(o.greatest() if greatest else o.least() for o in self.orders)
        steps = 0
        while True:
            y = []
            for i, o in enumerate(self.orders):
                br = self.best_responses(i, x[:i] + x[i + 1:])
                pick = [z for z in br if all((o.leq(w, z) if greatest else o.leq(z, w)) for w in br)]
                if len(pick) != 1:
                    raise ValueError("best response without an extremal element")
                y.append(pick[0])
            y = tuple(y)
            steps += 1
            if y == x:
                return x, steps
            x = y

    def complete_in_induced_order(self, E) -> bool:
        for a, b in itertools.combinations_with_replacement(E, 2):
            ubs = [g for g in E if self.leq(a, g) and self.leq(b, g)]
            if not any(all(self.leq(u, v) for v in ubs) for u in ubs):
                return False
            lbs = [g for g in E if self.leq(g, a) and self.leq(g, b)]
            if not any(all(self.leq(v, u) for v in lbs) for u in lbs):
                return False
        return True

    def sublattice_gap(self, E):
        eset = set(E)
        for a, b in itertools.combinations(E, 2):
            m = tuple(o.meet(x, y) for o, x, y in zip(self.orders, a, b))
            if m not in eset:
                return a, b, "meet", m
            v = tuple(o.join(x, y) for o, x, y in zip(self.orders, a, b))
            if v not in eset:
                return a, b, "join", v
        return None

    def strong_set_order(self, i) -> bool:
        """Best responses of player i increase in the strong set order over
        the product order of the opponents (pairs s <= s', s = s' included)."""
        o = self.orders[i]
        opps = list(self.opp_profiles(i))
        others = [oo for j, oo in enumerate(self.orders) if j != i]
        for s, s2 in itertools.product(opps, repeat=2):
            if not all(oo.leq(x, y) for oo, x, y in zip(others, s, s2)):
                continue
            lo, hi = self.best_responses(i, s), self.best_responses(i, s2)
            for x in lo:
                for x2 in hi:
                    if o.meet(x, x2) not in lo or o.join(x, x2) not in hi:
                        return False
        return True


class GameAnswer:
    """Everything ``solve`` and ``verify --theorem zhou`` report on a game
    that validates by construction."""

    def __init__(self, g: GameDoc, expect):
        self.g = g
        E = g.nash()
        self.E = E
        self.largest = next((e for e in E if all(g.leq(f, e) for f in E)), None)
        self.least = next((e for e in E if all(g.leq(e, f) for f in E)), None)
        if len(E) <= BRUTE_FORCE_EQUILIBRIA:
            self.complete = bool(E) and g.complete_in_induced_order(E)
        else:
            self.complete = True
        self.gap = g.sublattice_gap(E)
        self.top, self.up = g.extremal_iteration(True)
        self.bottom, self.down = g.extremal_iteration(False)
        if "tarski_down" in expect and expect["tarski_down"] != self.down:
            raise ValueError(f"construction predicts {expect['tarski_down']} steps up from "
                             f"the bottom, the payoff table gives {self.down}")

    def solve_lines(self):
        text = " ".join
        lines = ["PROPERTY validated PASS"]
        lines += [f"EQUILIBRIUM {text(e)}" for e in self.E]
        lines += [f"COUNT {len(self.E)}",
                  f"LARGEST {text(self.largest) if self.largest else 'none'}",
                  f"LEAST {text(self.least) if self.least else 'none'}",
                  f"PROPERTY complete-lattice {'PASS' if self.complete else 'FAIL'}"]
        if self.gap is None:
            lines.append("SUBLATTICE-GAP none")
        else:
            a, b, op, v = self.gap
            lines.append(f"SUBLATTICE-GAP x=({','.join(a)}) y=({','.join(b)}) op={op} "
                         f"value=({','.join(v)})")
        lines.append("CERTIFIES order topological" if self.g.rational else "CERTIFIES order")
        agree = self.top == self.largest and self.bottom == self.least
        lines += [f"TARSKI-LARGEST {text(self.top)}", f"TARSKI-LEAST {text(self.bottom)}",
                  f"TARSKI-ITERATIONS up={self.up} down={self.down}",
                  f"PROPERTY method-agreement {'PASS' if agree else 'FAIL'}"]
        return lines, 0 if agree else 1

    def zhou_lines(self):
        ok = bool(self.E) and self.complete
        lines = ["PROPERTY validated PASS", f"COUNT {len(self.E)}",
                 f"PROPERTY equilibria-nonempty {'PASS' if self.E else 'FAIL'}",
                 f"PROPERTY complete-lattice {'PASS' if self.complete else 'FAIL'}"]
        for i, p in enumerate(self.g.players):
            if not self.g.strong_set_order(i):
                raise ValueError(f"best responses of {p} are not increasing in the "
                                 "strong set order, yet the game validates by construction")
            lines.append(f"PROPERTY best-response-strong-set-order:{p} PASS")
        agree = self.top == self.largest and self.bottom == self.least
        lines.append(f"PROPERTY tarski-agreement {'PASS' if agree else 'FAIL'}")
        return lines, 0 if ok and agree else 1


def _crosses(clause, lo_q, hi_q, lo_q2, hi_q2) -> bool:
    """Single crossing fails: p2 does at least as well (weak) or strictly
    better (strict) than p against q, and not against q2."""
    if clause == "weak":
        return lo_q <= hi_q and not lo_q2 <= hi_q2
    return lo_q < hi_q and not lo_q2 < hi_q2


def _witness(line, prefix):
    """Witness fields of a ``PROPERTY name FAIL k=v ...`` line, or None."""
    if not line.startswith(prefix + " FAIL "):
        return None
    return dict(f.split("=", 1) for f in line[len(prefix) + 6:].split(" "))


def planted_game_line(g: GameDoc, expect) -> str:
    """The least single-crossing witness of the planted ladder: the last
    player, strategies (size-2, size-1), opponents q2 at the top and q the
    first opponent profile at which the lower strategy does not beat the
    higher one."""
    i = g.players.index(expect["player"])
    chain = g.orders[i].chain()
    p, p2 = chain[-2], chain[-1]
    q2 = tuple(o.greatest() for j, o in enumerate(g.orders) if j != i)
    u = g.pay[i]
    q = next(q for q in g.opp_profiles(i)
             if q != q2 and u[g.insert(i, q, p)] <= u[g.insert(i, q, p2)])
    return (f"PROPERTY validated FAIL player={expect['player']} check=single-crossing "
            f"p={p} p2={p2} q=({','.join(q)}) q2=({','.join(q2)}) clause=weak")


def recheck_game_single_crossing(g: GameDoc, w) -> bool:
    i = g.players.index(w["player"])
    q = tuple(w["q"][1:-1].split(","))
    q2 = tuple(w["q2"][1:-1].split(","))
    others = [o for j, o in enumerate(g.orders) if j != i]
    if not (g.orders[i].leq(w["p"], w["p2"]) and w["p"] != w["p2"] and q != q2
            and all(o.leq(x, y) for o, x, y in zip(others, q, q2))):
        return False
    u = g.pay[i]
    return _crosses(w["clause"], u[g.insert(i, q, w["p"])], u[g.insert(i, q, w["p2"])],
                    u[g.insert(i, q2, w["p"])], u[g.insert(i, q2, w["p2"])])


# -------------------------------------------------------------- functions

class FunctionDoc:
    def __init__(self, doc):
        self.order = Order(doc["domain"])
        self.f = {row["element"]: value(row["value"]) for row in doc["table"]}

    def grid_label(self, p, q):
        return f"({p},{q})"

    def recheck_supermodular(self, w) -> bool:
        o, f = self.order, self.f
        x, y = w["x"], w["y"]
        return f[x] + f[y] > f[o.meet(x, y)] + f[o.join(x, y)]

    def recheck_qsm(self, w) -> bool:
        o, f = self.order, self.f
        x, y = w["x"], w["y"]
        m, v = f[o.meet(x, y)], f[o.join(x, y)]
        if w["clause"] == "weak":
            return f[x] >= m and not v >= f[y]
        return f[x] > m and not v > f[y]

    def _grid_pair_ok(self, w) -> bool:
        rows, cols = self.order.factors
        return (rows.leq(w["p"], w["p2"]) and cols.leq(w["q"], w["q2"])
                and w["p"] != w["p2"] and w["q"] != w["q2"])

    def recheck_single_crossing(self, w) -> bool:
        if not self._grid_pair_ok(w):
            return False
        f, L = self.f, self.grid_label
        return _crosses(w["clause"], f[L(w["p"], w["q"])], f[L(w["p2"], w["q"])],
                        f[L(w["p"], w["q2"])], f[L(w["p2"], w["q2"])])

    def recheck_increasing_differences(self, w) -> bool:
        if not self._grid_pair_ok(w):
            return False
        f, L = self.f, self.grid_label
        return (f[L(w["p2"], w["q2"])] - f[L(w["p"], w["q2"])]
                < f[L(w["p2"], w["q"])] - f[L(w["p"], w["q"])])

    def argmax(self):
        best = max(self.f.values())
        return sorted(e for e, v in self.f.items() if v == best)


GRID_NAMES = (("qsm", "quasisupermodular"), ("supermodular", "supermodular"),
              ("single-crossing", "single-crossing"),
              ("incr-diff", "increasing-differences"),
              ("sections-qsm", "sections-quasisupermodular"))

# Which grid checks fail, per construction form.
GRID_FAILS = {
    "grid-base": (),
    "grid-transformed": ("supermodular", "incr-diff"),
    "grid-planted": ("qsm", "supermodular", "single-crossing", "incr-diff"),
}


def grid_lines(fd: FunctionDoc, family):
    """Expected lines.  A FAIL line is a ``(prefix, recheck, exact)`` triple:
    its witness must re-check, and match ``exact`` when the construction
    pins it down (else ``exact`` is None)."""
    rows, cols = fd.order.factors
    r, c = rows.chain(), cols.chain()
    rechecks = {"qsm": fd.recheck_qsm, "supermodular": fd.recheck_supermodular,
                "single-crossing": fd.recheck_single_crossing,
                "incr-diff": fd.recheck_increasing_differences}
    lines = []
    for prop, name in GRID_NAMES:
        if prop not in GRID_FAILS[family]:
            lines.append(f"PROPERTY {name} PASS")
            continue
        exact = None
        if family == "grid-planted" and prop == "qsm":
            exact = f"PROPERTY {name} FAIL x=({r[-1]},{c[0]}) y=({r[-2]},{c[1]}) clause=weak"
        elif family == "grid-planted" and prop == "single-crossing":
            exact = f"PROPERTY {name} FAIL p={r[-2]} p2={r[-1]} q={c[0]} q2={c[1]} clause=weak"
        lines.append((f"PROPERTY {name}", rechecks[prop], exact))
    return lines, 1 if GRID_FAILS[family] else 0


# ------------------------------------------------------------------ check

class Oracle:
    """Checks command outputs against known answers; documents are read
    once per oracle and shared by the commands that name them."""

    def __init__(self, docs_dir: str):
        self.docs_dir = docs_dir
        self._docs = {}
        self._answers = {}

    def _doc(self, name):
        if name not in self._docs:
            with open(os.path.join(self.docs_dir, name), encoding="utf-8") as fh:
                self._docs[name] = json.load(fh)
        return self._docs[name]

    def _game(self, name, expect) -> GameAnswer:
        if name not in self._answers:
            self._answers[name] = GameAnswer(GameDoc(self._doc(name)), expect)
        return self._answers[name]

    def expected(self, cmd):
        """``(lines, exit_code)`` for one command."""
        family, doc, expect, verb = cmd["family"], cmd["doc"], cmd["expect"], cmd["argv"][0]
        if family in ("ladder", "plateau", "random"):
            answer = self._game(doc, expect)
            return answer.solve_lines() if verb == "solve" else answer.zhou_lines()
        if family == "planted-ladder":
            g = GameDoc(self._doc(doc))
            line = planted_game_line(g, expect)
            return [("PROPERTY validated", lambda w: recheck_game_single_crossing(g, w), line)], 1
        if family.startswith("grid-"):
            return grid_lines(FunctionDoc(self._doc(doc)), family)
        if family == "kuku":
            fd = FunctionDoc(self._doc(doc))
            return ["PROPERTY quasisupermodular PASS", "PROPERTY upper-chain-subcomplete PASS",
                    f"ARGMAX {' '.join(fd.argmax())}", "PROPERTY argmax-nonempty PASS",
                    "PROPERTY argmax-sublattice PASS", "PROPERTY argmax-subcomplete PASS"], 0
        if family == "ucs":
            return ["PROPERTY upper-chain-subcomplete PASS"], 0
        if family == "lattice":
            o = Order(self._doc(doc))
            return ["PROPERTY lattice PASS", f"LEAST {o.least()}", f"GREATEST {o.greatest()}"], 0
        if family == "veinott":
            return ["PROPERTY subcomplete-iff-sublattice PASS", "PROPERTY chain-subcomplete PASS"], 0
        if family == "chaincls":
            return ["PROPERTY interval-closed-chain-subcomplete PASS"], 0
        if family == "transfer":
            # The interval topology of a finite lattice is discrete.
            return ["PROPERTY transfer-upper PASS", "PROPERTY transfer-weak-upper PASS",
                    "PROPERTY topological-usc PASS"], 0
        raise ValueError(f"no known answer for family {family!r}")

    def check(self, cmd, code, stdout):
        """None when the output is the known answer, else a description."""
        try:
            want, want_code = self.expected(cmd)
        except (ValueError, KeyError) as exc:
            return f"oracle: {exc}"
        got = stdout.splitlines()
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if len(got) != len(want):
            return f"{len(got)} report lines, expected {len(want)}"
        for k, (line, spec) in enumerate(zip(got, want)):
            if isinstance(spec, str):
                if line != spec:
                    return f"line {k + 1}: {line!r}, expected {spec!r}"
                continue
            prefix, recheck, exact = spec
            if exact is not None and line != exact:
                return f"line {k + 1}: {line!r}, expected {exact!r}"
            w = _witness(line, prefix)
            if w is None:
                return f"line {k + 1}: {line!r}, expected a {prefix} FAIL line"
            try:
                genuine = recheck(w)
            except (KeyError, ValueError, IndexError):
                genuine = False
            if not genuine:
                return f"line {k + 1}: witness does not re-check: {line!r}"
        return None
