"""Run a command and print the child's max RSS, minor page faults and wall
time, as getrusage reports them for the finished child.

    python tests/ci/rusage.py [--max-faults N] -- command [arg ...]

The exit status is the command's, or 1 when the command succeeded but took
more than N minor page faults.
"""

import argparse
import resource
import subprocess
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-faults", type=int, default=None, help="fail above this many minor page faults")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="the command to run, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    tick = time.perf_counter()
    code = subprocess.run(command).returncode
    wall = time.perf_counter() - tick
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(f"max RSS {usage.ru_maxrss / 1024:.1f} MB, minor faults {usage.ru_minflt}, wall {wall:.2f} s",
          file=sys.stderr)
    if code == 0 and args.max_faults is not None and usage.ru_minflt > args.max_faults:
        print(f"{usage.ru_minflt} minor faults exceed --max-faults {args.max_faults}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
