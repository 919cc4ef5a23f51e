"""`cosetpart generate`: emit a deterministic corpus partition file.  The
command line front end (cli) imports this module only when the command
is chosen."""

from __future__ import annotations

import json
import sys

from . import formats
from .corpus import generate_partition


def cmd_generate(args) -> int:
    spec = generate_partition(args.rank, args.depth, args.seed)
    obj = formats.partition_spec_to_json(spec)
    text = json.dumps(obj, indent=2) + "\n"
    if args.out:
        formats.write_text(args.out, text)
        print(
            f"wrote partition of F_{args.rank} with {len(spec.members)} members "
            f"to {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0
