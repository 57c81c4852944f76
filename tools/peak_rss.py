"""Run a command and fail when its peak resident memory passes a bound.

    python tools/peak_rss.py MB COMMAND [ARG ...]

Runs COMMAND with its own stdin, stdout and stderr, then prints its peak
resident set (``ru_maxrss`` of RUSAGE_CHILDREN, which covers the command and
every process it waited for) to stderr.  Exits with the command's code when
that is nonzero, with 1 when the peak is above MB megabytes, and 0 otherwise.
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bound_mb = float(argv[0])
    code = subprocess.run(argv[1:]).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS {peak_mb:.1f} MB (bound {bound_mb:g} MB)", file=sys.stderr)
    if code:
        return code
    return 1 if peak_mb > bound_mb else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
