"""Put the harness modules and the program's ``src`` on the path."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "perfbench", "harness"),
                os.path.join(ROOT, "src")]
