"""Atom-by-atom oracles for the columnar chain pair readers and writers.

`expand` walks a chain's (time, state) cells top-down into the atoms of the
unrolled tree, one (atom id, parent id, cell) triple per atom;
`cell_pair_by_atoms` and `dump_cell_pair_by_atoms` read and write a pair
document along that walk.  They are the per-atom paths that
`_Cells.columns`, `modelio.cell_pair` and `modelio.dump_cell_pair` replace.
"""

from condstop.numeric import format_scalar
from condstop.recursion import SnellPair


def expand(cells):
    """The levels of the unrolled tree, top-down, each a list of (atom id,
    parent id, cell) in the tree's order: the cell carries the atom's
    level, domain flag, payoff and state."""
    segment, children = cells._segment, cells._children
    level = [(segment[cells.root.state], None, cells.root)]
    yield level
    for _ in range(cells.horizon):
        level = [
            (f"{atom_id}/{segment[child.state]}", atom_id, child)
            for atom_id, _, cell in level
            for child in children[cell.id]
        ]
        yield level


def atom_to_cell(cells):
    """Each atom id of the unrolled tree, mapped to its cell."""
    return {aid: cell for level in expand(cells) for aid, _, cell in level}


def dump_cell_pair_by_atoms(cells, pair):
    """The pair document of the unrolled tree, written atom by atom."""
    values = {cell: format_scalar(v) for cell, v in pair.values.items()}
    survival = {cell: format_scalar(s) for cell, s in pair.survival.items()}
    per_atom_values, per_atom_survival = {}, {}
    for level in expand(cells):
        for atom_id, _, cell in level:
            if cell.id in values:
                per_atom_values[atom_id] = values[cell.id]
            per_atom_survival[atom_id] = survival[cell.id]
    return {"V": per_atom_values, "S": per_atom_survival}


def cell_pair_by_atoms(cells, pair):
    """The pair keyed by cell id, or None when some atom's (V, S) entries
    differ from those at the first atom of its cell."""
    missing = object()
    values, survival = pair.values, pair.survival
    first = {}
    for level in expand(cells):
        for atom_id, _, cell in level:
            entries = (values.get(atom_id, missing), survival.get(atom_id, missing))
            if first.setdefault(cell.id, entries) != entries:
                return None
    return SnellPair(
        {cell_id: v for cell_id, (v, _) in first.items() if v is not missing},
        {cell_id: s for cell_id, (_, s) in first.items() if s is not missing},
    )
