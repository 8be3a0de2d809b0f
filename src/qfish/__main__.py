import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
except BrokenPipeError:
    # The reader went away.  Point stdout at /dev/null so that the flush at
    # exit cannot raise again, and exit nonzero without a traceback.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(1)
sys.exit(code)
