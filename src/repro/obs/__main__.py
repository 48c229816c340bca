"""Entry point: ``python -m repro.obs
{profile,slo,diff,timeline,critical-path,flight,admission,causal,scenario,
health}``."""

import sys

from repro.obs.analyze.cli import main

if __name__ == "__main__":
    sys.exit(main())
