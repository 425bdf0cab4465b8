"""End-to-end benchmark of the JSON processor (see ``perfbench/README.md``).

Drives the product only through its public surface: ``JsonProcessor``,
the ``tools/serve.py`` JSON-lines protocol, and each layer's public
functions.  ``BENCHMARK.json`` at the repository root is the single
catalog of metric names, units, directions and bounds.
"""
