import sys
from pathlib import Path

# The benchmark's modules live one directory up and import each other flat.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
