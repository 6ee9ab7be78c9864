"""Toolkit for modeling self-replicating bootable USB keys.

Five layers, each importable on its own:

- genealogy: the nested event log every key carries, its text format,
  and lineage statistics.
- replicator: key and device snapshots, the two-key safety gate, clone
  and upgrade planning with exact transfer timing, and inventory JSON.
- spreadsim: synchronous-round deployment of one key through a room and
  redeployment of upgrades through an already seeded fleet.
- integrity: digest manifests, tamper models, cross-verification, and a
  seeded simulation of meeting protocols.
- cli: the `replikey` command exposing all of the above over files.

Every name in the four library modules' ``__all__`` is re-exported here.
"""

from . import genealogy, integrity, replicator, spreadsim
from .genealogy import *
from .replicator import *
from .spreadsim import *
from .integrity import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *genealogy.__all__,
    *replicator.__all__,
    *spreadsim.__all__,
    *integrity.__all__,
]
