"""Child process of the benchmark: one set-up probe or one traced CLI command.

    python3 perfbench/child.py setup --L 128 --spin 2 --lam 2 --jmin 2 [--trace-out FILE]
    python3 perfbench/child.py cli --trace-out FILE -- analyze IMAGE ...

``setup`` does what every fresh scurve process pays before its first
transform: import the package, build the half-pi table and the tiling.
``cli`` runs one ``scurve`` command with the tracer installed and writes
its spans to FILE when the command ends.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--spin", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--jmin", type=int, required=True)
    p.add_argument("--trace-out")
    p = sub.add_parser("cli")
    p.add_argument("--trace-out", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import scurve

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if args.mode == "setup":
            scurve.halfpi_table(args.L)
            scurve.build_tiling(scurve.TilingParams(args.L, args.spin, args.lam, args.jmin))
            return 0
        import scurve.cli

        command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return scurve.cli.main(command)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
