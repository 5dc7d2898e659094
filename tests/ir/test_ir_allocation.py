"""Heap cost of the IR core and the use-list semantics behind it.

A value records its users in one map from user op to the number of that
op's operand slots holding it; no object exists per use, and ops without
successors or regions share the empty tuple.  The object budgets below
count GC-tracked objects, which is what CPython's cyclic collector
walks on every full collection.
"""

import gc

import pytest

from repro.analysis.ir_stats import analyze_module
from repro.builtin import default_context, f32
from repro.corpus import synthesize_module
from repro.ir import Block, BlockArgument, Operation, Region, Use, VerifyError
from repro.irdl.irgen import IRGenerator
from repro.obs import count_ops
from repro.rewriting.driver import GreedyPatternDriver
from repro.textir import parse_module, print_op


class EqCountingValue(BlockArgument):
    """A value that counts the equality comparisons made against it."""

    calls = 0

    def __eq__(self, other):
        EqCountingValue.calls += 1
        return self is other

    __hash__ = BlockArgument.__hash__


def tracked_objects_per_op(build, n_ops):
    """GC-tracked objects that survive ``build()``, per op."""
    gc.collect()
    before = len(gc.get_objects())
    built = build()
    gc.collect()
    after = len(gc.get_objects())
    assert built is not None
    return (after - before) / n_ops


@pytest.fixture(scope="module")
def synth_module():
    context = default_context()
    return context, synthesize_module(1000, seed=0, context=context)


class TestAllocationBudget:
    def test_clone_tracks_at_most_five_objects_per_op(self, synth_module):
        _, module = synth_module
        per_op = tracked_objects_per_op(module.clone, count_ops(module))
        assert per_op <= 5.0

    def test_parse_tracks_at_most_six_objects_per_op(self, synth_module):
        context, module = synth_module
        text = print_op(module)
        parse_module(context, text)  # intern the module's attributes first
        per_op = tracked_objects_per_op(
            lambda: parse_module(context, text), count_ops(module)
        )
        assert per_op <= 6.0

    def test_ops_without_successors_or_regions_share_empty_tuple(self):
        op = Operation("test.leaf")
        assert op.successors == () and op.regions == ()
        assert op.clone().successors == ()


def value_in_two_slots():
    block = Block([f32, f32])
    a, b = block.args
    op = Operation("test.pair", operands=[a, a], result_types=[f32])
    block.add_op(op)
    return block, op, a, b


class TestUseLists:
    def test_two_slots_count_twice_but_one_user(self):
        _, op, a, _ = value_in_two_slots()
        assert len(a.uses) == 2
        assert set(a.uses) == {Use(op, 0), Use(op, 1)}
        assert list(a.users()) == [op]
        assert a._users[op] == 2

    def test_rauw_rewrites_both_slots(self):
        _, op, a, b = value_in_two_slots()
        a.replace_all_uses_with(b)
        assert op.operands == (b, b)
        assert not a.uses and not a.has_uses
        assert len(b.uses) == 2 and list(b.users()) == [op]

    def test_set_operand_moves_exactly_one_slot(self):
        _, op, a, b = value_in_two_slots()
        op.set_operand(1, b)
        assert op.operands == (a, b)
        assert a._users[op] == 1 and b._users[op] == 1
        assert Use(op, 0) in a.uses and Use(op, 1) not in a.uses
        assert Use(op, 1) in b.uses
        op.verify()

    def test_clearing_operands_drops_the_user(self):
        _, op, a, _ = value_in_two_slots()
        op.operands = ()
        assert not a.uses and list(a.users()) == []

    def test_erase_drops_the_user_from_every_map(self):
        block, op, a, b = value_in_two_slots()
        consumer = Operation("test.use", operands=[b, a, b])
        block.add_op(consumer)
        consumer.erase()
        assert list(b.users()) == []
        assert list(a.users()) == [op]
        assert consumer not in a._users

    def test_users_come_in_first_use_order(self):
        block = Block([f32])
        arg = block.args[0]
        # All three hold the value in slot 0, a tie the set of uses broke
        # by memory address; users come in the order they started using
        # the value.
        early = Operation("test.early", operands=[arg, arg, arg])
        late = Operation("test.late", operands=[arg])
        middle = Operation("test.middle", operands=[arg, arg])
        assert list(arg.users()) == [early, late, middle]
        early.set_operand(0, arg)  # holding the same value: no change
        early.operands = ()
        early.operands = [arg]
        assert list(arg.users()) == [late, middle, early]


class TestUseDefVerification:
    def test_missing_user_entry_is_reported(self):
        _, op, a, _ = value_in_two_slots()
        del a._users[op]
        with pytest.raises(VerifyError, match="use-def chain broken"):
            op.verify()

    def test_wrong_slot_count_is_reported(self):
        _, op, a, _ = value_in_two_slots()
        a._users[op] = 1
        with pytest.raises(VerifyError, match="use-def chain broken"):
            op.verify()

    def test_extra_slot_count_is_reported(self):
        block, op, a, b = value_in_two_slots()
        other = Operation("test.other", operands=[b])
        block.add_op(other)
        b._users[other] = 2
        with pytest.raises(VerifyError, match="use-def chain broken"):
            other.verify()

    def test_wide_op_is_checked_in_linear_time(self):
        # 10k operand slots over 100 values, like a large call or concat.
        block = Block()
        values = [EqCountingValue(f32, block, i) for i in range(100)]
        op = Operation("test.wide", operands=values * 100)
        EqCountingValue.calls = 0
        op.verify()
        # Scanning the operands once per slot would compare ~10^8 pairs.
        assert EqCountingValue.calls <= len(op.operands)
        values[57]._users[op] = 99
        with pytest.raises(VerifyError, match="operand #57 of test.wide"):
            op.verify()

    @pytest.mark.parametrize("corrupt", [
        lambda value, op: value._users.pop(op),
        lambda value, op: value._users.update({op: 1}),
    ], ids=["missing", "miscounted"])
    def test_rewrite_validation_reports_broken_maps(self, corrupt):
        block, op, a, _ = value_in_two_slots()
        root = Operation("test.root", regions=[Region([block])])
        driver = GreedyPatternDriver(default_context(), [])
        driver._check_def_use(root, root)
        corrupt(a, op)
        with pytest.raises(VerifyError, match="lost its back-reference"):
            driver._check_def_use(root, root)


def test_value_fanout_on_a_corpus_module(full_corpus):
    context, defs = full_corpus
    module = IRGenerator(context, defs, seed=0).generate_module(300)
    stats = analyze_module(module)
    # Recorded with the per-use ``set`` the user maps replaced.
    assert dict(stats.value_fanout) == {
        0: 115, 1: 51, 2: 39, 3: 18, 4: 11, 5: 8, 6: 9, 7: 3, 8: 3,
        9: 2, 10: 4, 12: 1,
    }
    assert (stats.num_values, stats.num_uses) == (264, 436)
