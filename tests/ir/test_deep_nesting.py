"""Walking and cloning IR nested deeper than Python's recursion limit.

``Operation.walk`` and ``Operation.clone`` run from explicit stacks, so
a chain of single-block regions 2,000 deep (twice the default recursion
limit) works.  ``verify`` still recurses once per nesting level without
a bound; the printer and the parser recurse too, but refuse regions
nested deeper than ``MAX_NESTING`` (tests/ir/test_nesting_limit.py).
"""

import sys

from repro.builtin import f32
from repro.ir import Block, Operation, Region

DEPTH = 2000


def nested_chain(depth):
    """``depth`` ops, each holding the next in a single-block region."""
    leaf = Operation("test.leaf")
    op = leaf
    for _ in range(depth):
        op = Operation("test.nest", regions=[Region([Block(ops=[op])])])
    return op, leaf


def test_depth_exceeds_the_recursion_limit():
    assert DEPTH > sys.getrecursionlimit()


def test_walk_visits_every_level_in_preorder():
    root, leaf = nested_chain(DEPTH)
    ops = list(root.walk())
    assert len(ops) == DEPTH + 1
    assert ops[0] is root and ops[-1] is leaf
    assert [op.parent_op for op in ops[1:]] == ops[:-1]
    assert len(list(root.walk(include_self=False))) == DEPTH


def test_clone_copies_every_level():
    root, leaf = nested_chain(DEPTH)
    cloned = root.clone()
    ops = list(cloned.walk())
    assert len(ops) == DEPTH + 1
    assert ops[-1].name == "test.leaf" and ops[-1] is not leaf
    assert not any(op is original for op, original in zip(ops, root.walk()))
    assert [op.parent_op for op in ops[1:]] == ops[:-1]


def test_clone_remaps_values_across_levels():
    # Each level's op uses the block argument of the region above it.
    block = Block([])
    root = Operation("test.top", regions=[Region([block])])
    for _ in range(DEPTH):
        inner = Block([f32])
        op = Operation("test.nest", operands=list(block.args),
                       regions=[Region([inner])])
        block.add_op(op)
        block = inner
    cloned = root.clone()
    originals = list(root.walk())
    copies = list(cloned.walk())
    for original, copy in zip(originals[2:], copies[2:]):
        assert copy.operands[0] is copy.parent.args[0]
        assert copy.operands[0] is not original.operands[0]
