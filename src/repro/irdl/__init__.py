"""IRDL: the IR definition language (the paper's primary contribution).

Submodules:

* :mod:`repro.irdl.parser` — the IRDL surface syntax (§4);
* :mod:`repro.irdl.constraints` — the runtime constraint system (Fig. 2);
* :mod:`repro.irdl.resolver` — namespaces, aliases, name resolution (§4.2, §4.5);
* :mod:`repro.irdl.defs` — resolved dialect/op/type/attribute definitions;
* :mod:`repro.irdl.verifier` — derived verifiers (§3);
* :mod:`repro.irdl.format` — declarative assembly formats (§4.7);
* :mod:`repro.irdl.irdl_py` — the IRDL-Py escape hatch (≙ IRDL-C++, §5);
* :mod:`repro.irdl.instantiate` — runtime dialect registration (§3).
"""

from repro.irdl.ast import Variadicity
from repro.irdl.constraints import Constraint, ConstraintContext
from repro.irdl.defs import (
    AliasDef,
    ArgDef,
    ConstraintDef,
    DialectDef,
    EnumDef,
    OpDef,
    ParamDef,
    ParamWrapperDef,
    RegionDef,
    TypeDef,
)
from repro.irdl.instantiate import (
    load_irdl_file,
    register_dialect,
    register_dialects,
    register_irdl,
)
from repro.irdl.parser import IRDLParser, parse_irdl

__all__ = [
    "Variadicity",
    "Constraint",
    "ConstraintContext",
    "AliasDef",
    "ArgDef",
    "ConstraintDef",
    "DialectDef",
    "EnumDef",
    "OpDef",
    "ParamDef",
    "ParamWrapperDef",
    "RegionDef",
    "TypeDef",
    "load_irdl_file",
    "register_dialect",
    "register_dialects",
    "register_irdl",
    "IRDLParser",
    "parse_irdl",
]
