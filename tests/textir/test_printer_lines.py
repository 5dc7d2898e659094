"""The printer's one-line ops and custom formats.

An op with no regions, no successors and no custom format prints as one
line in one write, built from two per-printer caches: the quoted name
with its ``(``, keyed by op name, and the tail (``)``, the attribute
dictionary and the signature), keyed by operand types, result types and
attribute items.  None of this may show: the goldens below were
recorded before the line path existed, with and without locations.
"""

import contextlib
import hashlib
import io
import pathlib

import pytest

from repro.builtin import (
    FloatAttr,
    IntegerAttr,
    IntegerType,
    UnitAttr,
    default_context,
    f32,
    f64,
    i1,
    i32,
)
from repro.bytecode import decode_module, encode_module
from repro.corpus import register_bench_dialect
from repro.ir import MAX_NESTING, Block, IntegerParam, Operation, Region
from repro.irdl import register_irdl
from repro.irdl.format import FormatProgram
from repro.irdl.irgen import IRGenerator
from repro.rewriting import apply_patterns_greedily, parse_patterns
from repro.textir import Printer, parse_module, print_op
from repro.textir.parser import SPELLING_CACHE_LIMIT
from tests.textir.test_spelling_cache import (
    assert_same_text,
    cmath_context,
    example_constant,
    load_workloads,
)

REPO = pathlib.Path(__file__).resolve().parents[2]

#: sha256 and length of ``print_op`` output without locations, then
#: with them, recorded before the line path and its caches existed.
GOLDENS = {
    "synth": (
        "89a1ca0f142d078fa9241288539faa5b8734ef10f61df4140e8d57fecd741851",
        107592,
        "29cc090ff1c5c8802652be075b2ab83f1a608eaeed96eb0c0550f19084460a7b",
        158216,
    ),
    "rewrite_mix input": (
        "a6f986c0183f1d3bac0f0328a33e5264a4fa8c8584c4096d2bc05e2af3d60104",
        23184,
        "2b990fc8eae8fd08544d7717a86719bf1f55f09ad42110073b5dd6a2169b4191",
        34807,
    ),
    "rewrite_mix after": (
        "aef4615302ea69bb0d96101774ca4e22c6f5383ad04830dfb689bd9f37544bf5",
        10961,
        "f5d38a40f3a17918488fc102be82defa76c935cbce5d18a171ce2e23cb1097c2",
        16902,
    ),
    "corpus 0": (
        "3a7b7849680af15c6997a6343696018b76e7f46b1d8d7dc9a6e01229e3e6379a",
        41171,
        "9c042b2959c300baf1bab33a6297926521b8396555a7fa6c3a2176f8c755c108",
        45253,
    ),
    "corpus 1": (
        "5c260ce89235cc63eeecc9d3019619fbb5e65c837642265a142e9adbc269db52",
        38887,
        "41a3b9375167ea1d92796ce779c5d36762d12a9b189d72aae8ca587be2e6c269",
        43060,
    ),
    "corpus 2": (
        "632bf4bbde5b70528cdbf096ee44286152e587036c2527135728671ab19e4fc3",
        37196,
        "8cc05ffe93d3fd45a7af520c246273b3d59dbffd8596a112db8737803e9eeaf8",
        41291,
    ),
    "corpus 3": (
        "5115bd8dc3b9845acb3685624ff179efd9c3e5d1480c27d40bc4c29ac30628cb",
        40669,
        "96f8d43b472ee6ce73eb3aa120fbdcb03adb72bda01bd284be053937c3776517",
        44790,
    ),
    "corpus 4": (
        "d0d835a3043ee9b204803bd5758a45416f305349a1dded341c497b79ead31f58",
        43028,
        "f4345d4ed477433f0f9dc641939d05f4ba365e3a3abbbf652ec86dea1bc2f6e1",
        47097,
    ),
    "corpus 5": (
        "83a86632358a6d75b1fbe33857897c6710ad7140f4e94cf003704754a8c4d58c",
        41599,
        "49980c5884d91e8115bdee7c288f1f286546bf7fa33e3b40ab48ad686b995898",
        45681,
    ),
    "corpus 6": (
        "0a7965e5bc14ac1784158fd2e678a7fe548da1f2236bb3a617446e910bbda2d6",
        43286,
        "407055eecc25d11891b5f04a5680a79563a0abf4558adb16c052393c3196c17b",
        47316,
    ),
    "corpus 7": (
        "7676f25bb8a978b79195ac04332f483dfd7925384db1c7cc3dc908ff88df5c8d",
        46221,
        "03adea9ea20b08fa926dfe50ca32a1a9f04cbbe1a4fdae3d4d71383aca1d7a3b",
        50589,
    ),
    "conorm": (
        "8db1700d78636073b5cb130a1c79c11517412a4aecede7ced29e9030a4b3a7f5",
        395,
        "1f8d2591e6ebdc92f6680d8822e975c31457bf751c1de716fb52de308804f1ac",
        535,
    ),
    "conorm rewritten": (
        "37b3f04089d4e7e42d58e762360e040589b5a335b105e35d2fd729448e5e9ba6",
        394,
        "048f64a03971dcc771bc24b001a46ca62a86393abbd84cb53d8ad6e2eb0dfc8a",
        651,
    ),
    "distinct constants": (
        "01e97bbf259dc3ccf80d3d63c58757464e93d3dd915734519328359c260df826",
        127815,
        "9c8aec3a83e78e415b678a6b848ad3a365fca7c566f85ad7eb9e54bf02db762e",
        185734,
    ),
    "branches": (
        "97f42e96234f405b6a00b732674fe0372b218e61b77a586607ecf1bc386e1dbd",
        404,
        "69992e53d7dc6b39fcfde7f1facff439b222e0e30d3b92adc18599a4185d9adc",
        581,
    ),
}
#: The same for ``Synth(0, n_ops=2000).text``, which the workload
#: prints from the module it builds through the API.
SYNTH_TEXT = (
    "89a1ca0f142d078fa9241288539faa5b8734ef10f61df4140e8d57fecd741851",
    107592,
)


def distinct_constants(n_ops: int):
    """A module of ``n_ops`` ``arith.constant`` ops, no two with the same
    value, so no op's tail repeats."""
    text = "\n".join(f'%c{k} = "arith.constant"() {{value = {k} : i64}}'
                     " : () -> (i64)" for k in range(n_ops))
    return parse_module(default_context(), text, "constants.mlir")


def golden_modules(synth, corpus) -> dict:
    """Each golden input's name and the op it prints."""
    workloads = load_workloads()
    context = default_context()
    register_bench_dialect(context)
    modules = {"synth": parse_module(context, synth.text, "synth.mlir")}

    mix = workloads.RewriteMix(0, functions=4)
    state = mix.setup()
    modules["rewrite_mix input"] = state.module
    modules["rewrite_mix after"] = mix.iteration(
        state, lambda layer: contextlib.nullcontext()
    )[0]

    context, defs = corpus
    for seed in range(8):
        modules[f"corpus {seed}"] = IRGenerator(
            context, defs, seed=seed
        ).generate_module(300)

    context = cmath_context()
    before = example_constant("cmath_optimization", "CONORM_BEFORE")
    modules["conorm"] = parse_module(context, before, "conorm.mlir")
    rewritten = parse_module(context, before, "conorm.mlir")
    pattern_text = (REPO / "examples" / "patterns"
                    / "conorm.pattern").read_text(encoding="utf-8")
    assert apply_patterns_greedily(
        context, rewritten, parse_patterns(context, pattern_text)
    )
    modules["conorm rewritten"] = rewritten

    modules["distinct constants"] = distinct_constants(2000)
    modules["branches"] = parse_module(
        default_context(allow_unregistered=True), BRANCHES, "branches.mlir"
    )
    return modules


#: Successors, block arguments and one-line ops between them.
BRANCHES = """
"t.func"() ({
^bb0(%x: i32, %y: f32):
  %c = "t.c"() {v = 1 : i32} : () -> (i32)
  "t.br"(%c)[^bb1] : (i32) -> ()
^bb1:
  %d, %e = "t.pair"(%x, %c) {w = "s", a = [1 : i32, unit]} : (i32, i32) -> (i32, f32)
  "t.cond_br"(%d, %e)[^bb1, ^bb2] : (i32, f32) -> ()
^bb2:
  "t.ret"(%x, %y) : (i32, f32) -> ()
}) {sym_name = "f"} : () -> ()
"""


def digest(text: str) -> tuple[str, int]:
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(text)


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def synth():
    return load_workloads().Synth(0, n_ops=2000)


@pytest.fixture(scope="module")
def goldens(synth, full_corpus):
    return golden_modules(synth, full_corpus)


@pytest.mark.parametrize("locations", [False, True],
                         ids=["plain", "located"])
@pytest.mark.parametrize("name", list(GOLDENS))
def test_printed_text_matches_the_golden(goldens, name, locations):
    plain_sha, plain_length, located_sha, located_length = GOLDENS[name]
    expected = ((located_sha, located_length) if locations
                else (plain_sha, plain_length))
    text = print_op(goldens[name], print_locations=locations)
    assert digest(text) == expected


def test_api_built_synth_text_matches_the_golden(synth):
    assert digest(synth.text) == SYNTH_TEXT


# ----------------------------------------------------------------------
# Naming order, writes, cache size
# ----------------------------------------------------------------------


def source_and_use():
    src = Operation("x.src", result_types=[i32])
    use = Operation("x.use", operands=[src.results[0]], result_types=[i32])
    return src, use


def test_results_are_named_before_operands():
    _, use = source_and_use()
    assert print_op(use) == '%0 = "x.use"(%1) : (i32) -> (i32)'


def test_use_before_def_in_the_module_graph_region():
    src, use = source_and_use()
    module = Operation("builtin.module",
                       regions=[Region([Block(ops=[use, src])])])
    assert print_op(module).splitlines()[1:3] == [
        '  %0 = "x.use"(%1) : (i32) -> (i32)',
        '  %1 = "x.src"() : () -> (i32)',
    ]


class CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("locations", [False, True],
                         ids=["plain", "located"])
def test_each_one_line_op_is_one_write(locations):
    def writes(n_ops):
        stream = CountingStream()
        printer = Printer(stream, print_locations=locations)
        printer.print_op(distinct_constants(n_ops))
        return stream.writes

    assert writes(200) - writes(100) == 100


def test_caches_stop_at_the_limit():
    """1,500 ops of distinct names and signatures: the caches keep the
    first 1,024, and the rest print uncached."""
    ops = [Operation(f"t.c{k}", result_types=[IntegerType(k)],
                     attributes={"v": IntegerAttr(k, i32)})
           for k in range(1, 1501)]
    module = Operation("builtin.module", regions=[Region([Block(ops=ops)])])
    printer = Printer()
    printer.print_op(module)
    assert len(printer._heads) == SPELLING_CACHE_LIMIT
    assert len(printer._tails) == SPELLING_CACHE_LIMIT
    lines = [f'  %{k - 1} = "t.c{k}"() {{v = {k} : i32}} : () -> (i{k})'
             for k in range(1, 1501)]
    assert_same_text(printer.getvalue(), "\n".join([
        '"builtin.module"() ({', *lines, "}) : () -> ()",
    ]))


# ----------------------------------------------------------------------
# Equal keys print alike
# ----------------------------------------------------------------------


def body_lines(op) -> list[str]:
    return [line.strip() for line in print_op(op).splitlines()[1:-1]]


def test_signed_zero_attributes_print_apart():
    ops = [Operation("t.c", attributes={"v": FloatAttr.get(value, f64)})
           for value in (0.0, -0.0, 0.0, -0.0)]
    module = Operation("builtin.module", regions=[Region([Block(ops=ops)])])
    assert body_lines(module) == [
        '"t.c"() {v = 0.0 : f64} : () -> ()',
        '"t.c"() {v = -0.0 : f64} : () -> ()',
    ] * 2


def test_bool_integer_attribute_prints_as_its_int(ctx):
    op = ctx.create_operation(
        "arith.constant", attributes={"value": IntegerAttr.get(True, i1)},
        result_types=[i1],
    )
    text = print_op(op)
    assert text == '%0 = "arith.constant"() {value = 1 : i1} : () -> (i1)'
    (parsed,) = parse_module(ctx, text).regions[0].blocks[0].ops
    assert parsed.attributes["value"].value == 1


def test_parsed_true_prints_as_its_int_while_a_bool_attribute_lives(ctx):
    alive = IntegerAttr.get(True, i1)
    module = parse_module(
        ctx, '%a = "arith.constant"() {value = true} : () -> (i1)'
    )
    (op,) = module.regions[0].blocks[0].ops
    assert op.attributes["value"] == alive
    line = '%a = "arith.constant"() {value = 1 : i1} : () -> (i1)'
    assert body_lines(module) == [line]
    assert body_lines(decode_module(ctx, encode_module(module))) == [line]


def test_integer_parameter_refuses_a_non_integer():
    with pytest.raises(TypeError):
        IntegerParam(1.5)


# ----------------------------------------------------------------------
# Custom formats and attributes
# ----------------------------------------------------------------------


def test_custom_format_op_whose_bindings_fail_prints_generic():
    context = cmath_context()
    src = Operation("x.src", result_types=[i32])
    norm = context.create_operation("cmath.norm", operands=[src.results[0]],
                                    result_types=[f32])
    assert print_op(norm) == '%0 = "cmath.norm"(%1) : (i32) -> (f32)'
    module = Operation("builtin.module",
                       regions=[Region([Block(ops=[src, norm])])])
    assert print_op(module, print_locations=True).splitlines()[1:3] == [
        '  %0 = "x.src"() : () -> (i32) loc(unknown)',
        '  %1 = "cmath.norm"(%0) : (i32) -> (f32) loc(unknown)',
    ]


def test_custom_format_bindings_are_recovered_once_per_op(monkeypatch):
    mix = load_workloads().RewriteMix(0)
    module = mix.iteration(mix.setup(),
                           lambda layer: contextlib.nullcontext())[0]
    calls = []
    bindings_for = FormatProgram._bindings_for

    def counted(self, op):
        calls.append(op)
        return bindings_for(self, op)

    monkeypatch.setattr(FormatProgram, "_bindings_for", counted)
    text = print_op(module)
    assert text.count(" = cmath.") == len(calls) == 400


def test_dynamic_attribute_at_the_nesting_limit_prints():
    context = default_context(allow_unregistered=True)
    register_irdl(context,
                  "Dialect d { Attribute box { Parameters (x: !AnyAttr) } }")
    attr = UnitAttr()
    for _ in range(MAX_NESTING - 1):
        attr = context.make_attr("d.box", [attr])
    text = print_op(Operation("t.a", attributes={"a": attr}))
    assert text == ('"t.a"() {a = ' + "#d.box<" * (MAX_NESTING - 1) + "unit"
                    + ">" * (MAX_NESTING - 1) + "} : () -> ()")
