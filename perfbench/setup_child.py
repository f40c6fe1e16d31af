"""Times wallflock's set-up in a fresh interpreter and prints it as one JSON line.

Usage: python3 setup_child.py SRC_DIR CONFIG_FILE

Set-up is `import wallflock`, parse_config, model_from_config and
initial_state_from_config; the CPU probe (speed.py) runs right after it.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    src, config = sys.argv[1], sys.argv[2]
    text = Path(config).read_text(encoding="utf-8")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import wallflock
    from wallflock.config import initial_state_from_config, model_from_config, parse_config

    cfg = parse_config(text)
    model_from_config(cfg)
    initial_state_from_config(cfg)
    setup_s = time.perf_counter() - start
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed

    print(json.dumps({"setup_s": setup_s, "wallflock": wallflock.__file__,
                      "slowness": speed.slowness()}))


if __name__ == "__main__":
    main()
