"""Command line front end: kpz-tails <command> [options].

Commands map one-to-one onto the experiment runners; `all` runs every
section.  Every command accepts --preset, --config (a JSON file
overriding preset fields), --seed, and --out-dir, writes its artifacts
under the output directory, prints one line per check (per section with
its wall time, and one solver thread count line, for `all`), and exits 0
iff all executed checks pass (UNTESTABLE-AT-SCALE verdicts never fail a
run).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import she
from .experiment import (PRESETS, preset_config, run_airy, run_all,
                         run_bounds, run_gibbs, run_moments, run_report,
                         run_simulate)

_RUNNERS = {
    "simulate": run_simulate,
    "bounds": run_bounds,
    "moments": run_moments,
    "gibbs": run_gibbs,
    "airy": run_airy,
    "report": run_report,
    "all": run_all,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpz-tails",
        description="Simulate KPZ one-point tails and check them against "
                    "closed-form envelopes, moments, and the GUE-edge "
                    "Laplace identity.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _RUNNERS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--preset", choices=sorted(PRESETS), default="smoke",
                       help="base configuration (default: smoke)")
        p.add_argument("--config", type=Path, default=None, metavar="JSON",
                       help="JSON file whose fields override the preset")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed for all randomness (default: 0)")
        p.add_argument("--out-dir", type=Path, default=Path("kpz_out"),
                       help="artifact directory (default: ./kpz_out)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")
    try:
        overrides = (None if args.config is None
                     else json.loads(args.config.read_text()))
        config = preset_config(args.preset, overrides)
    except (OSError, TypeError, ValueError) as exc:  # bad file, field or value
        parser.error(f"--config {args.config}: {exc}")
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        parser.error(f"--out-dir {args.out_dir}: {exc}")
    summary = _RUNNERS[args.command](config, args.seed, args.out_dir)
    for name, ok in summary.get("checks", {}).items():
        print(f"{args.command}/{name}: {'pass' if ok else 'FAIL'}")
    for name, status in summary.get("sections", {}).items():
        print(f"{args.command}/{name}: {'pass' if status == 'pass' else 'FAIL'}"
              f" ({summary['wall_s'][name]:.1f} s)")
    if args.command == "all":
        print(f"all/solver threads: {she.usable_cores()}")
    if "verdicts" in summary:
        for verdict, count in sorted(summary["verdicts"].items()):
            print(f"{args.command}/verdict {verdict}: {count}")
    for artifact in summary["artifacts"]:
        print(f"wrote {args.out_dir / artifact}")
    print(f"{args.command}: {summary['status']}")
    return 0 if summary["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
