"""Op verifiers are lowered on their first use, not at registration.

Registration installs a :class:`~repro.irdl.verifier.LazyOpVerifier` on
each IRDL operation binding.  The first verification of an op kind, or
the first read of its ``plan`` or ``generated_source`` (which is what
``irdl-opt --dump-generated`` does), lowers that kind once; the lowered
function then replaces the lazy verifier on the binding, so later
verifications lower nothing.
"""

import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.corpus
from repro.builtin import FloatAttr, default_context, f32, f64
from repro.ir import Block, VerifyError
from repro.irdl import register_irdl, verifier
from repro.irdl.verifier import LazyOpVerifier
from repro.tools.irdl_opt import main

CMATH = Path(repro.corpus.__file__).parent / "dialects" / "cmath.irdl"
CMATH_OPS = ("cmath.mul", "cmath.norm", "cmath.create_constant", "cmath.log")

#: What the eager lowering of registration printed for ``cmath.norm``
#: (``irdl-opt --irdl cmath.irdl --dump-generated cmath.norm``).
NORM_SOURCE = '''\
# generated from IRDL definition cmath.norm
def __irdl_verify(op):
    operands = op.operands
    results = op.results
    cctx = _Cctx()
    if len(operands) != 1:
        raise _VerifyError(f"{op.name} expects 1 operands, got {len(operands)}")
    _slow(_c0, operands[0].type, op, _l1, None, cctx)
    if len(results) != 1:
        raise _VerifyError(f"{op.name} expects 1 results, got {len(results)}")
    _slow(_c2, results[0].type, op, _l3, None, cctx)
    if op.regions:
        raise _VerifyError(f"{op.name} expects 0 regions, got {len(op.regions)}", obj=op)
    if len(op.successors) != 0:
        raise _VerifyError(f"{op.name} expects 0 successors, got {len(op.successors)}", obj=op)
    _m = _OBS.metrics
    if _m.enabled:
        _m.counter("irdl.verifier.constraint_checks").inc(len(operands) + len(results) + 0)
'''

#: The same for ``cmath.log``.
LOG_SOURCE = '''\
# generated from IRDL definition cmath.log
def __irdl_verify(op):
    operands = op.operands
    results = op.results
    _nvar = len(operands) - 1
    if _nvar < 0:
        raise _VerifyError(f"{op.name} expects at least 1 operands, got {len(operands)}")
    if _nvar > 1:
        raise _VerifyError(f"{op.name}: optional operand {_n0!r} matches at most one value, got {_nvar}")
    _v = operands[0].type
    if not _memo.hit(_c1, _v):
        _slow(_c1, _v, op, _l2, _memo, _NOVARS)
    for _item in operands[1 : 1 + _nvar]:
        _v = _item.type
        if not (_v is _e5) and not _memo.hit(_c3, _v):
            _slow(_c3, _v, op, _l4, _memo, _NOVARS)
    if len(results) != 1:
        raise _VerifyError(f"{op.name} expects 1 results, got {len(results)}")
    _v = results[0].type
    if not _memo.hit(_c6, _v):
        _slow(_c6, _v, op, _l7, _memo, _NOVARS)
    if op.regions:
        raise _VerifyError(f"{op.name} expects 0 regions, got {len(op.regions)}", obj=op)
    if len(op.successors) != 0:
        raise _VerifyError(f"{op.name} expects 0 successors, got {len(op.successors)}", obj=op)
    _m = _OBS.metrics
    if _m.enabled:
        _m.counter("irdl.verifier.constraint_checks").inc(len(operands) + len(results) + 0)
'''


@pytest.fixture
def lowered(monkeypatch):
    """The qualified names of the op definitions lowered in a test, in
    lowering order."""
    names = []
    lower = verifier.make_op_verifier

    def recording(op_def):
        names.append(op_def.qualified_name)
        # Yield the processor mid-lowering, so another thread verifying
        # the same kind would start lowering it too were it not locked.
        time.sleep(0.001)
        return lower(op_def)

    monkeypatch.setattr(verifier, "make_op_verifier", recording)
    return names


def cmath_context():
    context = default_context()
    register_irdl(context, CMATH.read_text(), str(CMATH))
    return context


def cmath_ops(context):
    """A valid and an invalid operation of each cmath kind."""
    complex_def = context.get_type_or_attr_def("cmath.complex")
    c32 = complex_def.instantiate([f32])
    c64 = complex_def.instantiate([f64])

    def op(name, operand_types, result_types, attributes=None):
        args = Block(list(operand_types)).args
        return context.create_operation(name, operands=args,
                                        result_types=result_types,
                                        attributes=attributes)

    parts = {"re": FloatAttr.get(1.0, f32), "im": FloatAttr.get(2.0, f32)}
    return [
        op("cmath.mul", [c32, c32], [c32]),
        op("cmath.mul", [c32, c64], [c32]),
        op("cmath.norm", [c64], [f64]),
        op("cmath.norm", [c32], [f64]),
        op("cmath.create_constant", [], [c32], parts),
        op("cmath.create_constant", [], [c32], {"re": parts["re"]}),
        op("cmath.log", [c32, f32], [c32]),
        op("cmath.log", [c32, f32, f32], [c32]),
    ]


def outcomes(ops):
    """Each op's verification outcome: None, or its diagnostic."""
    results = []
    for op in ops:
        try:
            op.verify()
        except VerifyError as err:
            results.append(str(err))
        else:
            results.append(None)
    return results


def test_registration_lowers_no_op_verifier(lowered):
    context = cmath_context()
    assert lowered == []
    for name in CMATH_OPS:
        assert isinstance(context.get_op_def(name)._verifier, LazyOpVerifier)


def test_first_verify_lowers_the_kind_once_and_a_second_lowers_nothing(
    lowered,
):
    context = cmath_context()
    valid, invalid = cmath_ops(context)[6:]
    valid.verify()
    assert lowered == ["cmath.log"]
    binding = context.get_op_def("cmath.log")
    assert not isinstance(binding._verifier, LazyOpVerifier)
    assert binding._verifier.generated_source == LOG_SOURCE

    valid.verify()
    with pytest.raises(VerifyError, match="matches at most one value"):
        invalid.verify()
    assert lowered == ["cmath.log"]
    assert isinstance(context.get_op_def("cmath.norm")._verifier,
                      LazyOpVerifier)


def test_reading_the_plan_lowers_once(lowered):
    context = cmath_context()
    lazy = context.get_op_def("cmath.mul")._verifier
    assert lazy.plan.operand_checks.plan.n_defs == 2
    assert lazy.generated_source.startswith(
        "# generated from IRDL definition cmath.mul\n")
    assert lazy.plan is context.get_op_def("cmath.mul")._verifier.plan
    assert lowered == ["cmath.mul"]


def test_dump_generated_lowers_the_kind_once(lowered, capsys):
    assert main(["--irdl", str(CMATH), "--dump-generated", "cmath.norm"]) == 0
    assert capsys.readouterr().out == NORM_SOURCE
    assert lowered == ["cmath.norm"]


def test_concurrent_first_verifies_lower_each_kind_once(lowered):
    expected = outcomes(cmath_ops(cmath_context()))
    assert expected.count(None) == 4
    assert sorted(lowered) == sorted(CMATH_OPS)
    lowered.clear()

    context = cmath_context()
    ops = [cmath_ops(context) for _ in range(8)]
    barrier = threading.Barrier(8, timeout=60)
    results = [None] * 8
    errors = []

    def worker(index):
        try:
            barrier.wait()
            results[index] = outcomes(ops[index])
        except Exception as err:  # surfaced below, not swallowed
            errors.append(err)

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(lowered) == sorted(CMATH_OPS)
    assert results == [expected] * 8


def verify_a_fresh_registration():
    """Register cmath afresh and verify its ops; fail on a wrong verdict."""
    results = outcomes(cmath_ops(cmath_context()))
    assert results.count(None) == 4


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_child_forked_while_another_thread_lowers_still_lowers():
    # Sharded verification forks its workers from a daemon thread, while
    # other threads may be lowering; each worker lowers what it verifies.
    held, release = threading.Event(), threading.Event()

    def lowering():
        with verifier._LOWERING:
            held.set()
            release.wait(timeout=60)

    holder = threading.Thread(target=lowering)
    holder.start()
    try:
        assert held.wait(timeout=60)
        child = multiprocessing.get_context("fork").Process(
            target=verify_a_fresh_registration)
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join(timeout=30)
    finally:
        release.set()
        holder.join(timeout=60)
    assert not holder.is_alive()
    assert child.exitcode == 0
