"""Deterministic finite automata: reachability, Moore minimization, DOT export."""
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
    """Restrict to states reachable from the start, keeping their order."""
    order, seen = [d.start], {d.start}
    for s in order:  # breadth-first: the list grows while it is read
        for x in d.alphabet:
            t = d.trans[x][s]
            if t not in seen:
                seen.add(t)
                order.append(t)
    order.sort()
    index = {s: i for i, s in enumerate(order)}
    return Dfa(
        alphabet=d.alphabet,
        n_states=len(order),
        start=index[d.start],
        trans={x: tuple(index[d.trans[x][s]] for s in order) for x in d.alphabet},
        accepting=frozenset(index[s] for s in d.accepting if s in seen),
    )


def dfa_minimize(d: Dfa) -> Dfa:
    """Moore partition refinement on the reachable part.

    Round k+1 gives each state the signature (accepting, classes of its
    successors in round k), starting from one class; states with equal
    signatures share a class.  Numbering the signatures by first occurrence
    in state order orders the classes by their smallest member.  A round
    that adds no class repeats the last partition, so the signatures of
    that round are the minimal automaton's states.
    """
    d = dfa_reachable_part(d)
    flags = [s in d.accepting for s in range(d.n_states)]
    block, count = [0] * d.n_states, 1
    while True:
        ids: dict[tuple, int] = {}
        signatures = zip(flags, *([block[q] for q in d.trans[x]] for x in d.alphabet))
        new = [ids.setdefault(sig, len(ids)) for sig in signatures]
        if len(ids) == count:
            break
        block, count = new, len(ids)
    accepting, *rows = zip(*ids)
    return Dfa(
        alphabet=d.alphabet,
        n_states=count,
        start=block[d.start],
        trans=dict(zip(d.alphabet, rows)),
        accepting=frozenset(itertools.compress(range(count), accepting)),
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
