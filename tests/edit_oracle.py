"""Exhaustive oracles for the minimal-edit search, sharing none of its code.

``enumerate_scripts`` lists every candidate edit script of the search's
edit model; ``bfs_min_cost`` finds the fewest unit edits to a feasible plan
by a plain breadth-first search over whole action tuples.  ``as_ops`` turns
an enumerated candidate into the ops ``apply_script`` takes, and
``unnumbered`` builds a step as ``reconcile_plan`` reads it.
"""

from __future__ import annotations

import itertools

from foreman.plan import PlanStep
from foreman.repair import EditKind, EditOp


def unnumbered(label, action, coalition=()):
    """A step with only a label, an action and a coalition; ``reconcile_plan``
    numbers it and fills its state columns."""
    return PlanStep(0, label, "?", action, 0, 0, 0.0, coalition)


def as_ops(steps, candidate):
    """An enumerated ``(subs, inserts, swaps)`` as ops on ``steps``, in script
    order: by position, inserts before a substitute or transpose, and
    same-gap inserts in plan order."""
    subs, inserts, swaps = candidate
    ops = [EditOp(EditKind.Substitute, p, a, steps[p - 1].action) for p, a in subs]
    ops += [EditOp(EditKind.Insert, g + 1, a) for g, a in inserts]
    ops += [EditOp(EditKind.Transpose, p) for p in swaps]
    ops.sort(key=lambda op: (op.position, op.kind.value))  # stable
    return tuple(ops)


def enumerate_scripts(n_steps, alphabet, steps, cost):
    """Every candidate of exactly ``cost`` unit edits, as ``(subs, inserts,
    swaps)`` in the draft's index space.

    Each draft step takes at most one substitute or transpose (of two
    adjacent steps of one label with different actions).  Inserts go at
    any gap, any number of them and in any order; they are listed in plan
    order, by gap and then in the order they enter the plan.
    """
    sub_choices = [
        (pos, action)
        for pos in range(1, n_steps + 1)
        for action in alphabet
        if action != steps[pos - 1].action
    ]
    swap_choices = [
        pos
        for pos in range(1, n_steps)
        if steps[pos - 1].action != steps[pos].action
        and steps[pos - 1].robot == steps[pos].robot
    ]
    for n_subs in range(cost + 1):
        for n_swaps in range(cost - n_subs + 1):
            k = cost - n_subs - n_swaps
            insert_sets = [
                tuple(zip(gaps, actions))
                for gaps in itertools.combinations_with_replacement(range(n_steps + 1), k)
                for actions in itertools.product(alphabet, repeat=k)
            ]
            for subs in itertools.combinations(sub_choices, n_subs):
                positions = [p for p, _ in subs]
                if len(set(positions)) != len(positions):
                    continue
                for swaps in itertools.combinations(swap_choices, n_swaps):
                    touched = positions + [q for p in swaps for q in (p, p + 1)]
                    if len(set(touched)) != len(touched):
                        continue  # transposes overlap each other or a substituted step
                    for inserts in insert_sets:
                        yield subs, inserts, swaps


def _neighbours(actions: tuple, alphabet) -> set[tuple]:
    """The tuples one insert, substitute or adjacent transpose away."""
    out = set()
    for i in range(len(actions) + 1):
        out.update(actions[:i] + (a,) + actions[i:] for a in alphabet)
    for i, current in enumerate(actions):
        out.update(actions[:i] + (a,) + actions[i + 1:] for a in alphabet if a != current)
        if i + 1 < len(actions):
            out.add(actions[:i] + (actions[i + 1], current) + actions[i + 2:])
    return out


def bfs_min_cost(feasible, draft: tuple, alphabet, budget: int) -> int | None:
    """Fewest unit edits from ``draft`` to a tuple ``feasible`` accepts, or
    None when more than ``budget`` are needed."""
    frontier, seen = {draft}, {draft}
    for cost in range(budget + 1):
        if any(feasible(actions) for actions in frontier):
            return cost
        frontier = {q for p in frontier for q in _neighbours(p, alphabet)} - seen
        seen |= frontier
    return None
