"""Stub relevance judge for ``divsat filter run``.

Reads one prompt object from stdin and answers one numbered yes/no line per
caption. The verdict is a fixed function of the caption id, so the judge
costs little beyond interpreter start-up and the benchmark can check every
verdict. Plain Python with no third-party imports.
"""

import json
import sys
import zlib


def verdict(caption_id: str) -> bool:
    return zlib.crc32(caption_id.encode("utf-8")) % 3 != 0


def main() -> None:
    prompt = json.loads(sys.stdin.read())
    lines = [
        f"{i + 1}. {'yes' if verdict(item['id']) else 'no'}"
        for i, item in enumerate(prompt["captions"])
    ]
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
