import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the fuzz tests skip themselves without Hypothesis
    pass
else:
    # Fixed examples and no wall-clock deadline: the suite runs the same
    # inputs every time and a slow shared host cannot fail a test.
    settings.register_profile("idcodes", derandomize=True, deadline=None, max_examples=150, database=None)
    settings.load_profile("idcodes")
