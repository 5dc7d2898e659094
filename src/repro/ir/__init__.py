"""The SSA+regions IR core: the substrate IRDL definitions instantiate into.

This package implements the MLIR-like object model described in §2 of the
paper: SSA values, operations with attributes / successors / nested
regions, basic blocks with block arguments, dialect namespaces, and a
context registry supporting runtime dialect registration.
"""

from repro.ir.attributes import (
    Attribute,
    Data,
    DynamicParametrizedAttribute,
    DynamicTypeAttribute,
    ParametrizedAttribute,
    TypeAttribute,
    attribute_name,
    attribute_parameters,
)
from repro.ir.block import Block
from repro.ir.builder import Builder, InsertPoint
from repro.ir.context import Context
from repro.ir.dialect import (
    AttrDefBinding,
    DialectBinding,
    EnumBinding,
    OpDefBinding,
)
from repro.ir.exceptions import (
    InvalidIRStructureError,
    IRError,
    UnregisteredConstructError,
    VerifyError,
)
from repro.ir.location import (
    UNKNOWN_LOC,
    FileLineColLoc,
    FusedLoc,
    Location,
    UnknownLoc,
    caller_location,
)
from repro.ir.operation import Operation
from repro.ir.params import (
    ArrayParam,
    EnumParam,
    FloatParam,
    IntegerParam,
    LocationParam,
    OpaqueParam,
    ParamValue,
    StringParam,
    TypeIdParam,
    param_kind,
)
from repro.ir.region import MAX_NESTING, Region
from repro.ir.uniquer import DEFAULT_UNIQUER, AttributeUniquer, intern
from repro.ir.value import BlockArgument, OpResult, SSAValue, Use

__all__ = [
    "Attribute",
    "Data",
    "DynamicParametrizedAttribute",
    "DynamicTypeAttribute",
    "ParametrizedAttribute",
    "TypeAttribute",
    "attribute_name",
    "attribute_parameters",
    "Block",
    "Builder",
    "InsertPoint",
    "Context",
    "AttrDefBinding",
    "DialectBinding",
    "EnumBinding",
    "OpDefBinding",
    "InvalidIRStructureError",
    "IRError",
    "UnregisteredConstructError",
    "VerifyError",
    "Operation",
    "Location",
    "UnknownLoc",
    "FileLineColLoc",
    "FusedLoc",
    "UNKNOWN_LOC",
    "caller_location",
    "ArrayParam",
    "EnumParam",
    "FloatParam",
    "IntegerParam",
    "LocationParam",
    "OpaqueParam",
    "ParamValue",
    "StringParam",
    "TypeIdParam",
    "param_kind",
    "MAX_NESTING",
    "Region",
    "DEFAULT_UNIQUER",
    "AttributeUniquer",
    "intern",
    "BlockArgument",
    "OpResult",
    "SSAValue",
    "Use",
]
