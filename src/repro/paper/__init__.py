"""The paper's comparison apparatus: what ADEPT2's design is measured against.

The product (:mod:`repro.system` and the packages below it) decides
migration by the per-operation compliance conditions and stores biased
cases as substitution blocks.  The paper argues for both against
alternatives; those alternatives live here, beside the product, so the
value tests and examples can hold the product against them:

* :mod:`repro.paper.replay` — the general compliance criterion (replay
  of the reduced execution history on the changed schema) and the
  marking it reproduces, the oracle of the per-operation conditions and
  of positional state adaptation;
* :mod:`repro.paper.storage` — the two Fig. 2 alternatives to the hybrid
  store (a full schema copy per case, materialise-on-access from the
  change log) and the harness that measures all three on one population;
* :mod:`repro.paper.nonadaptive` — the non-adaptive policies (stay on
  the old version, abort and restart) a system without migration has;
* :mod:`repro.paper.distributed` — the in-process simulation of
  distributed process control (ablation A5).

No product module imports this package (``tests/test_import_graph.py``).
"""
