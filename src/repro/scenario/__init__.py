"""Scenario engine: deterministic record/replay and the chaos zoo.

- :mod:`repro.scenario.spec` -- declarative scenario specs;
- :mod:`repro.scenario.zoo` -- the named scenario catalogue;
- :mod:`repro.scenario.runner` -- spec -> SessionReport execution;
- :mod:`repro.scenario.recorder` -- versioned JSONL recording artifacts;
- :mod:`repro.scenario.replay` -- re-run + structural diff vs a golden;
- :mod:`repro.scenario.invariants` -- cross-cutting session invariants;
- :mod:`repro.scenario.cli` -- the ``repro scenario`` subcommand.
"""
