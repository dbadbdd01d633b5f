"""Check a CLI report against recorded rows.

Usage: python tests/golden/check_rows.py REPORT GOLDEN KEY

The report's rows, each without its `wall_clock_s`, must equal the list
stored under KEY in the GOLDEN JSON file; otherwise the script fails with
the report's rows.
"""
import json
import sys

report, golden, key = sys.argv[1:]
with open(report) as f:
    rows = [{k: v for k, v in row.items() if k != "wall_clock_s"} for row in json.load(f)]
with open(golden) as f:
    assert rows == json.load(f)[key], rows
