"""``python -m repro.analysis`` runs ``repro-analyze``."""

from repro.analysis.front import main

if __name__ == "__main__":
    raise SystemExit(main())
