"""Deterministic finite automata with output (base-k digit readers).

Machines read the standard base-k representation of n most-significant
digit first; n = 0 is the empty word.  Evaluation, truncated evaluation,
strong-connectivity analysis, synchronizing words, synchronization-failure
counting and the exact block regrouping over residues mod k^sigma all live
here, together with the small zoo of standard example automata and a
line-oriented text format.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .budget import require_budget
from .exact import Cyclotomic, as_exact, int_range
from .modring import phase_values

OutputValue = Union[int, Fraction, Cyclotomic, complex, float]


def base_digits(n: int, k: int) -> List[int]:
    """Digits of n in base k, most significant first; [] for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out: List[int] = []
    while n:
        out.append(n % k)
        n //= k
    out.reverse()
    return out


def _ints(fields: Sequence[str], line: str) -> List[int]:
    """The fields of one line of the text format as ints."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ValueError(f"bad number in {line!r}") from None


class Dfao:
    """Deterministic finite automaton with an output value per state."""

    def __init__(self, base: int, transitions: Sequence[Sequence[int]],
                 outputs: Sequence[OutputValue], initial: int = 0,
                 name: Optional[str] = None, _check_initial_loop: bool = True):
        if base < 2:
            raise ValueError("base must be >= 2")
        trans = np.asarray(transitions)
        n_states = len(trans)
        if n_states == 0:
            raise ValueError("need at least one state")
        if trans.ndim != 2 or trans.shape[1] != base:
            raise ValueError("transition table must cover every digit")
        if trans.dtype.kind not in "iu":
            raise ValueError(f"transition targets must be state indices, not {trans.dtype}")
        bad = (trans < 0) | (trans >= n_states)
        if bad.any():
            raise ValueError(f"transition target {trans[bad][0]} out of range")
        outputs = list(outputs)     # one pass: a numpy array yields new scalars on each
        if len(outputs) != n_states:
            raise ValueError("one output per state required")
        if not 0 <= initial < n_states:
            raise ValueError("initial state out of range")
        if _check_initial_loop and trans[initial, 0] != initial:
            raise ValueError("digit 0 must fix the initial state")
        self.base = base
        self.transitions = trans.astype(np.int32)
        self.transitions.flags.writeable = False
        self.initial = initial
        self.name = name
        distinct = {id(v): v for v in outputs}  # by identity, in order of first use
        slot = dict(zip(distinct, range(len(distinct))))
        self.output_index = np.fromiter(map(slot.__getitem__, map(id, outputs)), np.int32, n_states)
        self.output_index.flags.writeable = False
        self.values = tuple(map(self._norm_output, distinct.values()))
        for v, w in zip(distinct.values(), self.values):
            if not (isinstance(w, Cyclotomic) or math.isfinite(w.real) and math.isfinite(w.imag)):
                raise ValueError(f"state {outputs.index(v)} has a non-finite output {w}")

    @staticmethod
    def _norm_output(v: OutputValue):
        exact = as_exact(v)
        return exact if exact is not None else complex(v)

    @property
    def outputs(self) -> Tuple[OutputValue, ...]:
        return tuple(map(self.values.__getitem__, self.output_index.tolist()))

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    # -- evaluation -----------------------------------------------------

    def walk(self, state: int, digits: Sequence[int]) -> int:
        """State after reading digits (each in [0, base)) from state."""
        k, flat = self.base, self.transitions.ravel().data     # a view, not a copy
        for d in digits:
            state = flat[state * k + d]
        return state

    def state_at(self, n: int) -> int:
        return self.walk(self.initial, base_digits(n, self.base))

    def evaluate(self, n: int):
        """Output value at n (digits fed most-significant first; n=0 reads nothing)."""
        return self.values[self.output_index[self.state_at(n)]]

    def evaluate_truncated(self, n: int, lam: int):
        """Output after reading only the lowest lam digits, i.e. at n mod k^lam."""
        if lam < 0:
            raise ValueError("lam must be non-negative")
        if lam >= len(base_digits(n, self.base)):     # k^lam > n; rejects n < 0
            return self.evaluate(n)
        return self.evaluate(n % self.base ** lam)

    def state_table(self, limit: int, start: Optional[int] = None) -> np.ndarray:
        """st[n] = state after reading (n)_k from start, for all n < limit: the
        window (-1, limit - 1] of window_states."""
        if limit == 0:
            return np.empty(0, dtype=np.int32)
        return self.window_states(-1, limit, start)

    def padded_table(self, entries: Sequence[int], sigma: int) -> np.ndarray:
        """tab[i, m] = state after reading the sigma-digit zero-padded word of
        m from entries[i], for all m < k^sigma."""
        children = self.transitions
        tab = np.asarray(entries, dtype=np.int32).reshape(-1, 1)
        for _ in range(sigma):      # column m*k + d follows digit d after m
            tab = np.take(children, tab, axis=0).reshape(tab.shape[0], -1)
        return tab

    def window_states(self, y: int, x: int, start: Optional[int] = None) -> np.ndarray:
        """States after reading (n)_k from start, for every n in (y, y+x], y >= -1.

        With K = k^sigma, state(n) = pad[state(n // K), n % K] for the table
        pad = padded_table(range(S), sigma), so the window [lo, hi) is one
        take of the rows of pad at its parents [lo // K, (hi - 1) // K + 1),
        sigma digits shorter.  Shorten down to [0, 1), the empty word, which
        holds start; climb back one take per level.  The n below k^(sigma-1)
        read no leading zero, as digit 0 need not fix a start: their states
        are state_table(k^(sigma-1), start), a shorter window.  sigma is the
        largest with S*K^2 <= x (at least 1), so pad stays small beside the
        window: about x + 2*S*K states for any y."""
        if y < -1 or x < 1:
            raise ValueError(f"need y >= -1 and x >= 1, not y = {y}, x = {x}")
        k, S = self.base, self.n_states
        sigma = 1
        while S * k ** (2 * sigma + 2) <= x:
            sigma += 1
        K, lo, hi = k ** sigma, y + 1, y + x + 1
        start = self.initial if start is None else start
        levels = []
        while hi > 1:
            levels.append((lo, hi))
            lo, hi = lo // K, (hi - 1) // K + 1
        st = np.array([start], dtype=np.int32)
        if not levels:
            return st
        pad = self.padded_table(range(S), sigma)
        # the n below k^(sigma-1) differ only where digit 0 moves start
        low = K // k if levels[-1][0] < K // k and self.transitions[start, 0] != start else 0
        head = self.state_table(low, start)
        for lo, hi in reversed(levels):     # the children p*K + m start at lo - lo % K
            st = np.take(pad, st, axis=0).ravel()[lo % K:lo % K + hi - lo]
            if lo < low:
                st[:low - lo] = head[lo:hi]
        return st

    def states_at(self, ns: np.ndarray) -> np.ndarray:
        """Vectorized state_at; builds a DP table when the range is dense enough.
        ns may hold Python ints past int64 (they take the digit walks)."""
        ns = np.asarray(ns)
        if ns.size == 0:
            return np.empty(0, dtype=np.int32)
        top = int(ns.max()) + 1
        digit_cost = ns.size * max(1, int(math.log(max(top, 2), self.base)) + 1)
        if top <= max(1 << 16, 4 * digit_cost):
            return self.state_table(top)[ns.astype(np.int64, copy=False)]
        return np.array([self.walk(self.initial, base_digits(int(n), self.base)) for n in ns],
                        dtype=np.int32)

    def digit_states(self, ns: np.ndarray) -> np.ndarray:
        """state_at for every n of ns, one digit column c at a time from the top:
        n reads digit n // k^c mod k when n // k^c > 0, so no leading zero.
        Object arrays (n past int64) take numpy's object arithmetic."""
        ns = np.asarray(ns)
        st = np.full(ns.shape, self.initial, dtype=np.int32)
        if ns.size and ns.min() < 0:
            raise ValueError("n must be non-negative")
        for c in reversed(range(len(base_digits(int(ns.max(initial=0)), self.base)))):
            q = ns // self.base ** c
            st = np.where(q > 0, self.transitions[st, (q % self.base).astype(np.intp)], st)
        return st

    # -- text format ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"dfao v1 base={self.base} states={self.n_states} initial={self.initial}"]
        texts = []      # one exact_rational per distinct value
        for v in self.values:
            r = v.exact_rational() if isinstance(v, Cyclotomic) else None
            texts.append(f"r:{r.numerator}/{r.denominator}" if r is not None
                         else "c:{0.real!r},{0.imag!r}".format(complex(v)))
        lines += [f"state {i} out={texts[j]}" for i, j in enumerate(self.output_index.tolist())]
        for i, row in enumerate(self.transitions.tolist()):
            for d, t in enumerate(row):
                lines.append(f"t {i} {d} {t}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str, name: Optional[str] = None) -> "Dfao":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty automaton file")
        head = lines[0].split()
        opts = dict(part.split("=", 1) for part in head[2:] if "=" in part)
        if (len(head) != 5 or head[0] != "dfao" or head[1] != "v1"
                or set(opts) != {"base", "states", "initial"}):
            raise ValueError(f"bad header {lines[0]!r}")
        base, n_states, initial = _ints([opts["base"], opts["states"], opts["initial"]], lines[0])
        if n_states * base > len(lines):    # one line per transition at least
            raise ValueError(f"header {lines[0]!r} declares more transitions than the file has")
        outputs: List[Optional[OutputValue]] = [None] * n_states
        trans: List[List[Optional[int]]] = [[None] * base for _ in range(n_states)]
        for ln in lines[1:]:
            parts = ln.split()
            if parts[0] == "state":
                if len(parts) != 3 or not parts[2].startswith("out="):
                    raise ValueError(f"bad state line {ln!r}")
                idx, = _ints(parts[1:2], ln)
                if not 0 <= idx < n_states:
                    raise ValueError(f"state out of range in {ln!r}")
                if outputs[idx] is not None:
                    raise ValueError(f"second output for state {idx} in {ln!r}")
                val = parts[2][4:]
                try:
                    if val.startswith("r:"):
                        num, den = val[2:].split("/")
                        outputs[idx] = Fraction(int(num), int(den))
                    elif val.startswith("c:"):
                        re_s, im_s = val[2:].split(",")
                        outputs[idx] = complex(float(re_s), float(im_s))
                    else:
                        raise ValueError
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"bad output value {val!r} in {ln!r}") from None
            elif parts[0] == "t":
                if len(parts) != 4:
                    raise ValueError(f"bad transition line {ln!r}")
                frm, dig, to = _ints(parts[1:], ln)
                if not (0 <= dig < base and 0 <= frm < n_states):
                    raise ValueError(f"state or digit out of range in {ln!r}")
                if trans[frm][dig] is not None:
                    raise ValueError(f"second transition for state {frm}, digit {dig} in {ln!r}")
                trans[frm][dig] = to
            else:
                raise ValueError(f"unrecognized line {ln!r}")
        for i, row in enumerate(trans):
            for d, t in enumerate(row):
                if t is None:
                    raise ValueError(f"missing transition for state {i}, digit {d}")
        if any(v is None for v in outputs):
            raise ValueError("missing state output line")
        return Dfao(base, trans, outputs, initial, name=name)

    @staticmethod
    def load(path) -> "Dfao":
        with open(path, "r", encoding="utf-8") as fh:
            return Dfao.from_text(fh.read(), name=str(path))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Dfao{tag} base={self.base} states={self.n_states}>"


# ---------------------------------------------------------------------------
# strong connectivity


@dataclass
class ComponentDecomposition:
    components: Tuple[Tuple[int, ...], ...]
    component_of: Tuple[int, ...]
    is_final: Tuple[bool, ...]

    def final_states(self) -> frozenset:
        return frozenset(s for s, c in enumerate(self.component_of)
                         if self.is_final[c])


def strongly_connected_components(dfao: Dfao) -> ComponentDecomposition:
    """Tarjan SCC over all digit edges, plus final-component bookkeeping.

    A component is final when no transition leaves it.
    """
    n = dfao.n_states
    k = dfao.base
    trans = dfao.transitions.tolist()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comp_of = [-1] * n
    comps: List[List[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < k:
                w = trans[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    is_final = []
    for ci, comp in enumerate(comps):
        closed = all(comp_of[trans[s][d]] == ci for s in comp for d in range(k))
        is_final.append(closed)

    return ComponentDecomposition(
        components=tuple(tuple(c) for c in comps),
        component_of=tuple(comp_of),
        is_final=tuple(is_final),
    )


# ---------------------------------------------------------------------------
# synchronization


def find_synchronizing_word(dfao: Dfao) -> Optional[Tuple[int, ...]]:
    """A word collapsing every state to one, or None if none exists.

    Classic pair-collapsing: BFS (backwards from already-merged pairs) gives
    a merging word for every mergeable pair; greedily applying them shrinks
    the state set.  The result is validated, not minimal.
    """
    n, k = dfao.n_states, dfao.base
    trans = dfao.transitions.tolist()
    if n == 1:
        return ()

    def pid(p: int, q: int) -> int:
        return p * n + q if p < q else q * n + p

    step: Dict[int, Tuple[int, Optional[int]]] = {}
    queue: deque = deque()
    preds: Dict[int, List[Tuple[int, int]]] = {}
    for p in range(n):
        for q in range(p + 1, n):
            cur = pid(p, q)
            for d in range(k):
                a, b = trans[p][d], trans[q][d]
                if a == b:
                    if cur not in step:
                        step[cur] = (d, None)
                        queue.append(cur)
                else:
                    preds.setdefault(pid(a, b), []).append((cur, d))
    while queue:
        cur = queue.popleft()
        for src, d in preds.get(cur, ()):  # predecessors merge one step later
            if src not in step:
                step[src] = (d, cur)
                queue.append(src)

    current = frozenset(range(n))
    word: List[int] = []
    while len(current) > 1:
        it = sorted(current)
        key: Optional[int] = pid(it[0], it[1])
        if key not in step:
            return None
        while key is not None:
            d, key = step[key]
            word.append(d)
            current = frozenset(trans[s][d] for s in current)
    end = {dfao.walk(s, word) for s in range(n)}
    if len(end) != 1:
        raise AssertionError("pair collapsing produced an invalid word")
    return tuple(word)


def sync_failure_count(dfao: Dfao, y: int, x: int, lam: int) -> int:
    """#{n in (y, y+x] : some start state reads (n)_k and (n)_k truncated to
    lam digits into different states}."""
    return sync_failure_counts(dfao, y, x, [lam])[0]


def sync_failure_counts(dfao: Dfao, y: int, x: int, lams: Sequence[int]) -> List[int]:
    """[sync_failure_count(dfao, y, x, lam) for lam in lams], one pass per
    distinct lam over the prefix blocks of the window.

    Write n = p*K + m with K = k^lam and 0 <= m < K.  From a start s the full
    word of n is (p)_k followed by the lam-digit zero-padded word of m, and
    the truncated word is (m)_k alone.  So n fails iff, for some s,
    padded_table(range(S), lam)[e_s(p), m] != state_table(K, s)[m], where
    e_s(p) is the state after reading (p)_k from s.  In block p = 0 both
    words are (m)_k, so it never fails.  Each start packs its mismatch rows
    (one bit per m) once, and the window reads one row per prefix p through
    Dfao.window_states: about S*x/K states per lam, for any y."""
    k = dfao.base
    if y < 0 or x < 1:
        raise ValueError("need y >= 0 and x >= 1")
    for lam in lams:
        if lam < 0:
            raise ValueError("need lam >= 0")
        if lam >= len(base_digits(x, k)):      # k^lam > x
            raise ValueError(f"lam exceeds floor(log_k(x)): lam = {lam}, x = {x}, k = {k}")
    require_budget(dfao.n_states * x, "state reads n_states * x")
    counts = {lam: _sync_failures_by_blocks(dfao, y, x, lam) for lam in set(lams)}
    return [counts[lam] for lam in lams]


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _sync_failures_by_blocks(dfao: Dfao, y: int, x: int, lam: int) -> int:
    K = dfao.base ** lam
    first, last = max((y + 1) // K, 1), (y + x) // K      # first <= last, as K <= x
    pad = dfao.padded_table(range(dfao.n_states), lam)
    fails = np.zeros((last - first + 1, (K + 7) // 8), dtype=np.uint8)
    for s in range(dfao.n_states):
        miss = np.packbits(pad != dfao.state_table(K, s), axis=1, bitorder="little")
        states = dfao.window_states(first - 1, last - first + 1, s)
        for i in range(0, states.size, 1 << 16):   # np.take copies its indices to intp
            fails[i:i + (1 << 16)] |= np.take(miss, states[i:i + (1 << 16)], axis=0)
    # less the columns of the first and last block that lie outside (y, y+x]
    # (disjoint even when first == last, as lo <= hi then)
    lo, hi = max(y + 1 - first * K, 0), y + x - last * K
    edges = np.unpackbits(fails[[0, -1]], axis=1, count=K, bitorder="little")
    return (int(_POPCOUNT[fails].sum(dtype=np.int64))     # np.take would copy fails to intp
            - int(edges[0, :lo].sum()) - int(edges[1, hi + 1:].sum()))


# ---------------------------------------------------------------------------
# block regrouping over residues mod k^sigma


@dataclass
class BlockRow:
    r: int
    in_final_set: bool
    entry_state: int


@dataclass
class BlockDecomposition:
    total: Union[Cyclotomic, complex]
    direct_total: Union[Cyclotomic, complex]
    rows: List[BlockRow]
    sigma: int

    @property
    def exact(self) -> bool:
        return isinstance(self.total, Cyclotomic)


def block_decompose_sum(dfao: Dfao, g: Callable[[int], object], y: int, x: int,
                        sigma: int) -> BlockDecomposition:
    """Regroup sum over (y, y+x] of a_n g(n) as n = r*K + n', K = k^sigma.

    Every block is evaluated by reading (r)_k from the initial state and then
    the sigma-digit zero-padded word of n', which reproduces a_n exactly; the
    per-r rows record whether r lands every state in a final component and
    which entry state the block sequence uses.  Both are read for all blocks
    at once, one Dfao.window_states of the prefixes r per start state.  The
    regrouped total is checked against the direct sum, whose states one
    Dfao.digit_states reads without tables or blocks, before returning.  g is
    read by phase_values; the sums are exact when the outputs are exact and
    every g value is 0 or an exact root of unity (always, for a FractionPhase),
    complex otherwise.
    """
    if y < 0 or x < 1:
        raise ValueError("need y >= 0 and x >= 1")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma >= len(base_digits(x, dfao.base)):     # k^sigma > x
        raise ValueError("k^sigma must not exceed x")
    K = dfao.base ** sigma
    r0, m0 = divmod(y + 1, K)
    blocks = (y + x) // K - r0 + 1
    require_budget(blocks * K, "block table length")
    final = np.isin(np.arange(dfao.n_states),
                    list(strongly_connected_components(dfao).final_states()))

    n_all = int_range(y + 1, y + x + 1)
    gv = phase_values(g, n_all)

    # ends[s][i] = state after reading (r0 + i)_k from s
    ends = np.array([dfao.window_states(r0 - 1, blocks, s) for s in range(dfao.n_states)])
    entries = ends[dfao.initial]
    rows = [BlockRow(*row) for row in zip(range(r0, r0 + blocks),
                                          final[ends].all(axis=0).tolist(), entries.tolist())]
    # blocks r0, r0+1, ... laid end to end; n sits at index n - r0*K
    block_states = dfao.padded_table(entries, sigma).ravel()[m0:m0 + x]
    direct_states = dfao.digit_states(n_all)

    # sum over n of values[output_index[states[n]]] * g(n); both sides see the
    # same terms, so a float total must match bit for bit too (fsum is order-free)
    total = gv.indexed_sum(dfao.values, dfao.output_index[block_states])
    direct = gv.indexed_sum(dfao.values, dfao.output_index[direct_states])
    if total != direct:
        raise AssertionError("block regrouping failed to match the direct sum")
    return BlockDecomposition(total, direct, rows, sigma)


# ---------------------------------------------------------------------------
# standard example automata


def thue_morse_even() -> Dfao:
    """0/1 indicator of even binary digit sum (the evil numbers)."""
    return Dfao(2, [[0, 1], [1, 0]], [Fraction(1), Fraction(0)],
                name="thue_morse_even")


def digit_sum_mod(k: int, m: int) -> Dfao:
    """Tracks the base-k digit sum mod m; outputs the root of unity e(s/m)."""
    if m < 1:
        raise ValueError("m must be positive")
    require_budget(k * m, "automaton size k * m")
    trans = [[(s + d) % m for d in range(k)] for s in range(m)]
    outs = [Cyclotomic.root_of_unity(s, m) for s in range(m)]
    return Dfao(k, trans, outs, name=f"digit_sum_mod({k},{m})")


def rudin_shapiro() -> Dfao:
    """(-1)^(number of '11' blocks in binary); four states (prev digit, parity)."""
    # state = 2*parity + prev
    trans = []
    for s in range(4):
        parity, prev = divmod(s, 2)
        row = []
        for d in (0, 1):
            new_par = parity ^ (prev == 1 and d == 1)
            row.append(2 * new_par + d)
        trans.append(row)
    outs = [Fraction(1), Fraction(1), Fraction(-1), Fraction(-1)]
    return Dfao(2, trans, outs, name="rudin_shapiro")


def block_11() -> Dfao:
    """0/1 indicator of containing the block '11' in binary (absorbing accept)."""
    trans = [[0, 1], [0, 2], [2, 2]]
    return Dfao(2, trans, [Fraction(0), Fraction(0), Fraction(1)], name="block_11")


def constant_one() -> Dfao:
    return Dfao(2, [[0, 0]], [Fraction(1)], name="constant_one")


def builtin_sequences(name: str) -> Dfao:
    """Construct one of the parameter-free standard automata by name."""
    table = {
        "thue_morse_even": thue_morse_even,
        "rudin_shapiro": rudin_shapiro,
        "block_11": block_11,
        "constant_one": constant_one,
    }
    if name not in table:
        raise ValueError(f"unknown builtin sequence {name!r}")
    return table[name]()
