"""``cuba serve`` with the layer entry points wrapped in spans.

Used for the daemons of a traced run: the same CLI, after
:func:`layers.instrument` has rebound ``compile_source``,
``check_fcr``, ``compute_z``, ``generator_analysis``,
``shallow_configs_psa`` and the fingerprint functions.  Engine-run
workers are forked from this process and inherit the wrappers; their
spans travel home with each job once ``POST /trace`` turns tracing on.

    python3 perfbench/traced_serve.py serve --port 8765 ...
"""

from __future__ import annotations

import sys

from env import use_source_tree

if __name__ == "__main__":
    use_source_tree()
    import repro.cli
    import repro.cuba.verifier
    import repro.service.server
    from layers import instrument

    instrument()
    sys.exit(repro.cli.main(sys.argv[1:]))
