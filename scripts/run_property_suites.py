"""Run every named property-check suite with a fixed seed.

Usage: python scripts/run_property_suites.py [seed]
"""

import sys

from jetcones.suites import SUITES, run_suite


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2024
    all_ok = True
    for name in sorted(SUITES):
        ok, lines = run_suite(name, seed=seed)
        all_ok &= ok
        print(f"== {name} ==")
        for line in lines:
            print("  " + line)
    print("ALL PASS" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
