"""Process meta-model (WSM nets) of the ADEPT2 reproduction.

The schema package implements the block-structured process meta-model the
paper builds on: activities and structural nodes connected by control,
sync and loop edges, plus explicit data flow (data elements with read and
write data edges).  Process schemas are verified at buildtime by
:mod:`repro.verification` and executed by :mod:`repro.runtime`.
"""

from repro.schema.nodes import Node, NodeType
from repro.schema.edges import Edge, EdgeType
from repro.schema.data import DataElement, DataEdge, DataAccess, DataType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.index import SchemaIndex
from repro.schema.blocks import Block, BlockTree, BlockStructureError
from repro.schema.builder import SchemaBuilder, BuilderError
from repro.schema import templates

__all__ = [
    "Node",
    "NodeType",
    "Edge",
    "EdgeType",
    "DataElement",
    "DataEdge",
    "DataAccess",
    "DataType",
    "ProcessSchema",
    "SchemaError",
    "SchemaIndex",
    "Block",
    "BlockTree",
    "BlockStructureError",
    "SchemaBuilder",
    "BuilderError",
    "templates",
]
