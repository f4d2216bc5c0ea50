"""Reference cotree folds for the tests, with one callback per node.

``fold_cotree`` is a generic post-order fold, and ``witness_fold`` runs the
witness merge through it.  The tests compare ``cograph._fold``'s own loops
over the codes with them.
"""

from idcodes import cograph


def fold_cotree(t, leaf_fn, node_fn):
    """Post-order fold over the codes.

    ``leaf_fn(vertex)`` gives a leaf's value and ``node_fn(kind, values)`` an
    internal node's, from the values of its children in order.  Child values
    wait on one value stack, so no node needs a dictionary entry.
    """
    values: list = []
    push = values.append
    for code in t.codes:
        if code >= 0:
            push(leaf_fn(code))
        else:
            code = ~code
            base = len(values) - (code >> 1)
            kids = values[base:]
            del values[base:]
            push(node_fn(code & 1, kids))
    return values[0]


def witness_fold(t, sep):
    """The root's (state, hole, cov, nn) and the vertices added at bumps, in
    order: each node merges its children left to right with
    ``cograph._witness_merge``.  Raises the twin error where a merge hits the
    separating kind's twin gate."""
    rows = cograph._rows(sep)
    added: list[int] = []

    def merge_children(kind, kids):
        row = rows[kind]
        part = kids[0]
        for b in kids[1:]:
            part = cograph._witness_merge(part, b, kind, row, sep, added)
        return part

    return fold_cotree(t, lambda v: (cograph._LEAF, v, v, None), merge_children), added
