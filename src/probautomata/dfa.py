"""Deterministic finite automata: reachability, Hopcroft minimization, DOT export."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

Word = tuple[str, ...]


@dataclass(frozen=True)
class Dfa:
    """Complete DFA over an ordered alphabet; states are 0..n_states-1."""

    alphabet: tuple[str, ...]
    n_states: int
    start: int
    trans: dict[str, tuple[int, ...]] = field(default_factory=dict)
    accepting: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "trans", {x: tuple(row) for x, row in self.trans.items()})
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.n_states < 1 or not (0 <= self.start < self.n_states):
            raise ValueError("bad state count or start state")
        for x in self.alphabet:
            row = self.trans.get(x)
            if row is None or len(row) != self.n_states:
                raise ValueError(f"transition table for {x!r} is not total")
            if any(not 0 <= q < self.n_states for q in row):
                raise ValueError(f"transition table for {x!r} leaves the state set")
        if any(not 0 <= q < self.n_states for q in self.accepting):
            raise ValueError("accepting set leaves the state set")

    def step(self, state: int, x: str) -> int:
        return self.trans[x][state]

    def run(self, word: Word) -> int:
        state = self.start
        for x in word:
            state = self.step(state, x)
        return state

    def accepts(self, word: Word) -> bool:
        return self.run(word) in self.accepting


def dfa_reachable_part(d: Dfa) -> Dfa:
    """Restrict to states reachable from the start.

    Computes the chain S_0 = {start}, S_{i+1} = S_i + one-step successors;
    the chain stabilizes after fewer than n_states rounds.
    """
    current = {d.start}
    rounds = 0
    while True:
        nxt = set(current)
        for s in current:
            for x in d.alphabet:
                nxt.add(d.step(s, x))
        if nxt == current:
            break
        current = nxt
        rounds += 1
        assert rounds < d.n_states, "reachability chain exceeded state count"
    order = sorted(current)
    index = {s: i for i, s in enumerate(order)}
    return Dfa(
        alphabet=d.alphabet,
        n_states=len(order),
        start=index[d.start],
        trans={x: tuple(index[d.trans[x][s]] for s in order) for x in d.alphabet},
        accepting=frozenset(index[s] for s in d.accepting if s in current),
    )


def dfa_minimize(d: Dfa) -> Dfa:
    """Hopcroft partition refinement on the reachable part."""
    d = dfa_reachable_part(d)
    n = d.n_states
    accepting = set(d.accepting)
    rest = set(range(n)) - accepting
    partition = [blk for blk in (accepting, rest) if blk]
    work = [blk.copy() for blk in partition]

    # predecessor lists per symbol
    preds: dict[str, list[list[int]]] = {
        x: [[] for _ in range(n)] for x in d.alphabet
    }
    for x in d.alphabet:
        row = d.trans[x]
        for s in range(n):
            preds[x][row[s]].append(s)

    while work:
        splitter = work.pop()
        for x in d.alphabet:
            incoming = set()
            for q in splitter:
                incoming.update(preds[x][q])
            new_partition = []
            for blk in partition:
                inter = blk & incoming
                diff = blk - incoming
                if inter and diff:
                    new_partition.extend((inter, diff))
                    if blk in work:
                        work.remove(blk)
                        work.extend((inter, diff))
                    else:
                        work.append(inter if len(inter) <= len(diff) else diff)
                else:
                    new_partition.append(blk)
            partition = new_partition

    # canonical numbering: blocks ordered by their smallest member
    partition.sort(key=min)
    block_of = {}
    for i, blk in enumerate(partition):
        for s in blk:
            block_of[s] = i
    return Dfa(
        alphabet=d.alphabet,
        n_states=len(partition),
        start=block_of[d.start],
        trans={
            x: tuple(block_of[d.trans[x][min(blk)]] for blk in partition)
            for x in d.alphabet
        },
        accepting=frozenset(block_of[s] for s in d.accepting),
    )


def dfa_to_dot(d: Dfa, name: str = "dfa") -> str:
    """GraphViz DOT text for the automaton."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=none, label=""];']
    for s in range(d.n_states):
        shape = "doublecircle" if s in d.accepting else "circle"
        lines.append(f"  q{s} [shape={shape}];")
    lines.append(f"  __start -> q{d.start};")
    for x in d.alphabet:
        for s in range(d.n_states):
            lines.append(f'  q{s} -> q{d.trans[x][s]} [label="{x}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def words_upto(alphabet: tuple[str, ...], max_len: int):
    """All words of length <= max_len in shortlex order (alphabet order); none if max_len < 0."""
    return itertools.chain.from_iterable(
        words_of_length(alphabet, length) for length in range(max_len + 1))


def words_of_length(alphabet: tuple[str, ...], length: int):
    """All words of one length in shortlex order (alphabet order)."""
    return itertools.product(alphabet, repeat=length)
