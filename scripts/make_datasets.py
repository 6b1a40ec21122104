#!/usr/bin/env python3
"""Synthesize the named benchmark stand-ins into data/.

Usage: python scripts/make_datasets.py [outdir]
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fane.datasets import SPECS, ensure_dataset  # noqa: E402


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "data"
    for name in sorted(SPECS):
        path = ensure_dataset(name, root)
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
