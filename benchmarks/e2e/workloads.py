"""The three batch workloads of the end-to-end benchmark.

Each workload generates its inputs from ``seed`` and, while doing so,
fixes the answers its outputs are checked against: mutant positions it
inserted itself, fold results it computed in plain Python, the paper's
per-dialect operation counts.  None of those answers is read back from
the compiler under test.
"""

from __future__ import annotations

import io
import os
import random
import re
import tempfile
from types import SimpleNamespace

from repro.analysis.dataflow import (
    Const,
    ConstantPropagation,
    run_sparse_forward,
)
from repro.builtin import IntegerAttr, default_context
from repro.bytecode import (
    LazyModuleReader,
    decode_dialects,
    decode_module,
    encode_dialects,
    encode_module,
    encode_module_stream,
)
from repro.corpus import (
    BENCH_DIALECT_SOURCE,
    CORPUS_ORDER,
    cmath_source,
    parse_corpus_decl,
    register_bench_dialect,
    synthesize_module,
)
from repro.corpus.generator import extend_dialect
from repro.corpus.paper_data import OPS_PER_DIALECT
from repro.ir import Context, Operation
from repro.irdl import register_irdl
from repro.irdl.instantiate import register_dialect
from repro.irdl.irgen import IRGenerator
from repro.irdl.parser import parse_irdl
from repro.irdl.printer import print_dialects
from repro.obs import count_ops
from repro.parallel import shard_verify_file, verify_module_serial
from repro.rewriting import (
    Canonicalizer,
    CommonSubexpressionElimination,
    DeadCodeElimination,
    Pass,
    PassManager,
    VerifyPass,
    parse_patterns,
    pattern,
)
from repro.textir import Lexer, parse_module, print_op
from repro.utils.source import SourceFile

from harness import Workload

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
CONORM_PATH = os.path.join(REPO, "examples", "patterns", "conorm.pattern")

#: The dialect payload every sharded-verify worker re-registers.
BENCH_PAYLOAD = BENCH_DIALECT_SOURCE.encode("utf-8")

#: ``synth_10k``: sharded-verify workers (the host has 2 cores), and
#: the share of lazy handles each iteration forces.
SHARD_WORKERS = 2
FORCED_SHARE = 0.1


def top_level_ops(module: Operation) -> list[Operation]:
    return list(module.regions[0].blocks[0].ops)


def sequence_problem(what: str, found: list, expected: list) -> str | None:
    """Where two sequences first differ, or ``None`` when they are equal."""
    if found == expected:
        return None
    for index, (got, want) in enumerate(zip(found, expected)):
        if got != want:
            return f"{what}[{index}] is {got!r}, expected {want!r}"
    return f"{what} has {len(found)} entries, expected {len(expected)}"


def diagnostics_problem(what: str, report, mutants: list[int]) -> str | None:
    """Verification must flag exactly the inserted mutants."""
    found = [(d.entry_index, d.op_name) for d in report.diagnostics]
    return sequence_problem(what, found, [(i, "bench.sink") for i in mutants])


def synth_with_mutants(context: Context, n_ops: int, seed: int,
                       every: int = 1000):
    """A ``repro.corpus.synth`` module plus one invalid op per ``every``.

    Each mutant is a ``bench.sink`` given two operands where the dialect
    declares one, inserted at a seeded position.  Returns the module,
    the top-level op names in order, and the mutants' final indices.
    """
    module = synthesize_module(n_ops, seed=seed, context=context)
    block = module.regions[0].blocks[0]
    ops = block.ops
    rng = random.Random(seed)
    mutants = []
    for stretch in range(n_ops // every):
        index = stretch * every + rng.randrange(1, every) + stretch
        producer = index - 1
        while not ops[producer].results:
            producer -= 1
        value = ops[producer].results[0]
        block.insert_op(
            context.create_operation("bench.sink", operands=[value, value]),
            index,
        )
        mutants.append(index)
    return module, [op.name for op in ops], mutants


class CorpusRegister(Workload):
    """Table 1's corpus registered at run time, from IRDL text and IRBC."""

    name = "corpus_register"

    def __init__(self, seed: int, modules: int = 8, module_ops: int = 300):
        decls = [extend_dialect(parse_corpus_decl(n)) for n in CORPUS_ORDER]
        self.text = print_dialects(decls)
        #: Figure 4's per-dialect operation counts, from the paper.
        self.expected_ops = dict(OPS_PER_DIALECT)
        context = Context()
        defs = [register_dialect(context, decl) for decl in decls]
        self.modules = []
        for index in range(modules):
            generator = IRGenerator(context, defs, seed=seed * modules + index)
            module = generator.generate_module(module_ops)
            names = [op.name for op in top_level_ops(module)]
            self.modules.append((encode_module(module), names))
        self.ops = sum(len(names) for _, names in self.modules)

    def setup(self):
        context = Context()
        for decl in parse_irdl(self.text, "corpus.irdl"):
            register_dialect(context, decl)
        for data, _ in self.modules:
            decode_module(context, data)
        return context

    def iteration(self, _, layers):
        with layers("irdl.parser"):
            decls = parse_irdl(self.text, "corpus.irdl")
        text_context = Context()
        text_defs = []
        for decl in decls:
            with layers("irdl.instantiate.text"):
                text_defs.append(register_dialect(text_context, decl))
        with layers("bytecode.encoder.dialects"):
            blob = encode_dialects(decls)
        with layers("bytecode.decoder.dialects"):
            decoded = decode_dialects(blob)
        irbc_context = Context()
        irbc_defs = []
        for decl in decoded:
            with layers("irdl.instantiate.irbc"):
                irbc_defs.append(register_dialect(irbc_context, decl))
        modules = []
        for data, _ in self.modules:
            with layers("bytecode.decoder.module"):
                module = decode_module(irbc_context, data)
            with layers("ir.verify"):
                modules.append((module, verify_module_serial(module)))
        return text_defs, irbc_defs, blob, modules

    def check(self, _, output) -> str | None:
        text_defs, irbc_defs, _, modules = output
        for what, defs in (("text", text_defs), ("irbc", irbc_defs)):
            counts = {d.name: len(d.operations) for d in defs}
            if counts != self.expected_ops:
                wrong = sorted(
                    name for name in counts.keys() | self.expected_ops.keys()
                    if counts.get(name) != self.expected_ops.get(name)
                )
                return f"{what} registration: op counts differ for {wrong}"
        for index, ((module, report), (_, names)) in enumerate(
                zip(modules, self.modules)):
            problem = sequence_problem(
                f"module {index}", [op.name for op in top_level_ops(module)],
                names,
            ) or diagnostics_problem(f"module {index} verify", report, [])
            if problem:
                return problem
        return None

    def emit_bytes(self, output) -> int:
        return len(output[2])


_BENCH_NAME = re.compile(r'"(bench\.\w+)"')


class Synth(Workload):
    """The CLI's default path at volume: text in, verified, printed,
    written as IRBC, and read back eagerly (decode + verify) and lazily
    (open + partial force).

    Sharded verify of the same file runs in the traced run only, as
    probes with two workers and one: its worker processes run on the
    other core, whose speed this process's reference blocks do not
    sample.  With it in the timed loop (at 20k ops), ``wall_s`` spread
    by 0.16 across ten seeds, against 0.05-0.08 for the other batch
    workloads in the same hour.
    """

    name = "synth_10k"

    def __init__(self, seed: int, n_ops: int = 10_000):
        context = default_context()
        module, self.names, self.mutants = synth_with_mutants(
            context, n_ops, seed
        )
        self.text = print_op(module)
        # Parse and stream encoding are deterministic, so every
        # iteration's IRBC must equal these bytes.  (The stream encoder
        # pads its length varint, so its bytes differ from
        # encode_module's.)
        artifact = io.BytesIO()
        encode_module_stream(parse_module(context, self.text, "synth.mlir"),
                             artifact)
        self.artifact = artifact.getvalue()
        self.forced = sorted(random.Random(seed).sample(
            range(len(self.names)), int(len(self.names) * FORCED_SHARE)
        ))
        self.ops = len(self.names)

    def setup(self):
        # Loading the input is parsing it, into a fresh context; the
        # timed iterations then parse it again in this warm one.
        context = default_context()
        register_bench_dialect(context)
        parse_module(context, self.text, "synth.mlir")
        workdir = tempfile.TemporaryDirectory(prefix="e2e-", dir=HERE)
        return SimpleNamespace(
            context=context,
            workdir=workdir,
            path=os.path.join(workdir.name, "synth.irbc"),
        )

    def close(self, state) -> None:
        state.workdir.cleanup()

    def iteration(self, state, layers):
        with layers("textir.parser"):
            parsed = parse_module(state.context, self.text, "synth.mlir")
        with layers("ir.verify"):
            text_report = verify_module_serial(parsed)
        with layers("textir.printer"):
            text = print_op(parsed)
        with open(state.path, "wb") as handle, \
                layers("bytecode.encoder.module"):
            encode_module_stream(parsed, handle)
        with open(state.path, "rb") as handle:
            data = handle.read()
        with layers("bytecode.decoder.module"):
            module = decode_module(state.context, data, name=state.path)
        with layers("ir.verify"):
            serial = verify_module_serial(module)
        names = [op.name for op in top_level_ops(module)]
        with layers("bytecode.lazy.open"):
            reader = LazyModuleReader.open(state.context, state.path)
        with reader, layers("bytecode.lazy.force"):
            forced = [reader.handles[i].force().name for i in self.forced]
        return text_report, text, data, names, serial, forced

    def check(self, _, output) -> str | None:
        text_report, text, data, names, serial, forced = output
        if data != self.artifact:
            return "streamed IRBC differs from the expected artifact"
        return (
            diagnostics_problem("text verify", text_report, self.mutants)
            or sequence_problem("printed ops", _BENCH_NAME.findall(text),
                                self.names)
            or sequence_problem("decoded ops", names, self.names)
            or diagnostics_problem("serial verify", serial, self.mutants)
            or sequence_problem("forced ops", forced,
                                [self.names[i] for i in self.forced])
        )

    def emit_bytes(self, output) -> int:
        """The printed IR and the IRBC artifact."""
        return len(output[1]) + len(output[2])

    def probes(self, state, layers) -> list[str | None]:
        with layers("textir.lexer"):
            Lexer(SourceFile(self.text, "synth.mlir")).tokenize()
        problems = []
        for layer, workers in (("parallel.verify", SHARD_WORKERS),
                               ("parallel.verify.serial", 1)):
            with layers(layer):
                report = shard_verify_file(state.path, workers=workers,
                                           dialect_payloads=[BENCH_PAYLOAD])
            problems.append(diagnostics_problem(
                f"sharded verify, {workers} worker(s)", report, self.mutants))
        return problems


_FOLD = {
    "addi": lambda a, b: a + b,
    "subi": lambda a, b: a - b,
    "muli": lambda a, b: a * b,
}


def _fold_constants(op, rewriter) -> bool:
    lhs, rhs = (operand.owner for operand in op.operands)
    if not all(isinstance(p, Operation) and p.name == "arith.constant"
               for p in (lhs, rhs)):
        return False
    value = _FOLD[op.name.split(".")[1]](
        lhs.attributes["value"].value, rhs.attributes["value"].value
    )
    result_type = op.results[0].type
    folded = rewriter.create(
        "arith.constant", result_types=[result_type],
        attributes={"value": IntegerAttr(value, result_type)}, before=op,
    )
    rewriter.replace_op(op, folded)
    return True


@pattern(op_name="arith.constant")
def _drop_dead_constant(op, rewriter) -> bool:
    if any(result.has_uses for result in op.results):
        return False
    rewriter.erase_op(op)
    return True


FOLD_PATTERNS = [
    *(pattern(op_name=f"arith.{name}")(_fold_constants) for name in _FOLD),
    _drop_dead_constant,
]


def constant_facts(func: Operation):
    """Constant propagation over one function (an analysis-cache key)."""
    return run_sparse_forward(ConstantPropagation(), func)


class ConstantPropagationPass(Pass):
    """Constant facts per function, computed through the pass manager's
    analysis cache so later queries reuse them."""

    name = "constant-prop"

    def run(self, root: Operation) -> bool:
        for func in top_level_ops(root):
            self.analyses.get(constant_facts, func)
        return False


class _Spanned(Pass):
    """Runs a pass inside a layer span, sharing the manager's analyses."""

    def __init__(self, inner: Pass, layer: str, layers):
        self.inner, self.layer, self.layers = inner, layer, layers
        self.name = inner.name

    def run(self, root: Operation) -> bool:
        self.inner.analyses = self.analyses
        with self.layers(self.layer):
            return self.inner.run(root)


_FUNC_TYPE = ("(!cmath.complex<f32>, !cmath.complex<f32>, i32)"
              " -> (i32, f32, i32)")


def rewrite_function(index: int, rng: random.Random, chain: int,
                     xor_pairs: int) -> tuple[str, int]:
    """One ``func.func`` of the rewrite mix and its folded return value.

    The body holds a constant-fold chain, one ``conorm`` site, and
    ``xor_pairs`` duplicated ``arith.xori`` pairs that only CSE removes.
    """
    value = rng.randint(1, 9)
    lines = [f'  %v0 = "arith.constant"() {{value = {value} : i32}}'
             ' : () -> (i32)']
    for step in range(1, chain + 1):
        operand = rng.randint(1, 9)
        name = rng.choice(sorted(_FOLD))
        if name == "muli" and abs(value * operand) > 10**6:
            name = "addi"
        value = _FOLD[name](value, operand)
        lines.append(f'  %k{step} = "arith.constant"() '
                     f'{{value = {operand} : i32}} : () -> (i32)')
        lines.append(f'  %v{step} = "arith.{name}"(%v{step - 1}, %k{step})'
                     ' : (i32, i32) -> (i32)')
    lines += [
        '  %np = "cmath.norm"(%p) : (!cmath.complex<f32>) -> (f32)',
        '  %nq = "cmath.norm"(%q) : (!cmath.complex<f32>) -> (f32)',
        '  %pq = "arith.mulf"(%np, %nq) : (f32, f32) -> (f32)',
    ]
    acc = "%x"
    for pair in range(1, xor_pairs + 1):
        for twin in "ab":
            lines.append(f'  %{twin}{pair} = "arith.xori"({acc}, %x)'
                         ' : (i32, i32) -> (i32)')
        lines.append(f'  %u{pair} = "arith.addi"(%a{pair}, %b{pair})'
                     ' : (i32, i32) -> (i32)')
        acc = f"%u{pair}"
    lines.append(f'  "func.return"(%v{chain}, %pq, {acc})'
                 ' : (i32, f32, i32) -> ()')
    text = "\n".join([
        '"func.func"() ({',
        '^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>, %x: i32):',
        *lines,
        f'}}) {{sym_name = "f{index}", function_type = {_FUNC_TYPE}}}'
        ' : () -> ()',
    ])
    return text, value


class RewriteMix(Workload):
    """Canonicalize, CSE, DCE, verify and constant-propagate under the
    pass manager's analysis cache, on a fresh clone each iteration."""

    name = "rewrite_mix"

    def __init__(self, seed: int, functions: int = 200, chain: int = 15,
                 xor_pairs: int = 20):
        rng = random.Random(seed)
        texts, self.folded = [], []
        for index in range(functions):
            text, value = rewrite_function(index, rng, chain, xor_pairs)
            texts.append(text)
            self.folded.append(value)
        self.text = "\n".join(texts)
        with open(CONORM_PATH, encoding="utf-8") as handle:
            self.pattern_text = handle.read()
        # Module + per function: func, chain, conorm site, xor pairs with
        # their adds, return.  After the pipeline each function keeps its
        # folded constant, cmath.mul + cmath.norm, one xori per pair, the
        # adds and the return.
        self.ops = 1 + functions * (1 + 1 + 2 * chain + 3 + 3 * xor_pairs + 1)
        self.ops_after = 1 + functions * (1 + 1 + 2 + 2 * xor_pairs + 1)
        self.xori_after = functions * xor_pairs

    def setup(self):
        context = default_context()
        register_irdl(context, cmath_source(), "cmath.irdl")
        module = parse_module(context, self.text, "rewrite_mix.mlir")
        patterns = FOLD_PATTERNS + parse_patterns(
            context, self.pattern_text, CONORM_PATH
        )
        return SimpleNamespace(context=context, module=module,
                               canonicalizer=Canonicalizer(context, patterns))

    def iteration(self, state, layers):
        with layers("ir.clone"):
            module = state.module.clone()
        manager = PassManager([
            _Spanned(state.canonicalizer, "rewriting.driver", layers),
            _Spanned(CommonSubexpressionElimination(),
                     "rewriting.passes.cse", layers),
            _Spanned(DeadCodeElimination(), "rewriting.passes.dce", layers),
            _Spanned(VerifyPass(), "ir.verify", layers),
            _Spanned(ConstantPropagationPass(),
                     "analysis.dataflow.constprop", layers),
        ])
        with layers("rewriting.passes"):
            manager.run(module)
        with layers("textir.printer"):
            text = print_op(module)
        return module, manager.analyses, text

    def check(self, _, output) -> str | None:
        module, analyses, text = output
        ops = count_ops(module)
        if ops != self.ops_after:
            return f"{ops} ops after the pipeline, expected {self.ops_after}"
        for func, expected in zip(top_level_ops(module), self.folded):
            returned = func.regions[0].blocks[0].ops[-1].operands[0]
            producer = returned.owner
            name = func.attributes["sym_name"]
            if (producer.name != "arith.constant"
                    or producer.attributes["value"].value != expected):
                return f"{name}: not folded to {expected}"
            fact = analyses.get(constant_facts, func).state_of(returned)
            if not (isinstance(fact, Const) and fact.attr.value == expected):
                return f"{name}: constant-prop says {fact!r}, not {expected}"
        if (text.count("arith.xori") != self.xori_after
                or "arith.mulf" in text
                or text.count("cmath.mul") != len(self.folded)):
            return "printed IR does not show the CSE'd and conorm'd functions"
        return None

    def emit_bytes(self, output) -> int:
        return len(output[2])

    def probes(self, state, layers) -> list[str | None]:
        with layers("rewriting.matcher.build"):
            Canonicalizer(state.context, state.canonicalizer.patterns)
        return []

    def lifetime_counts(self, state) -> dict[str, int]:
        # GreedyPatternDriver.run adds its lifetime totals to the metrics
        # counters on every run, so a driver reused across iterations
        # over-counts there; its own totals give the traced run's share.
        driver = state.canonicalizer.driver
        return {
            "rewriting.driver.match_attempts": driver.match_attempts,
            "rewriting.driver.rewrites_applied": driver.rewrites_applied,
        }


BATCH = {w.name: w for w in (CorpusRegister, Synth, RewriteMix)}
