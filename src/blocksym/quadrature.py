"""An empty module: every blocking remainder is a closed form in
``remainders``, so no integral of a gauge derivative is evaluated.

It stays only because the benchmark's tracer (``bench/tracer.py``) imports
every module it names in ``LAYERS``. ROADMAP item 1, the benchmark that
reads the run's own records, rewrites that tracer and deletes this module.
"""
