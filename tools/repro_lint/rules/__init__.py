"""Rule plugins: importing this package registers every rule.

Each module is one concern; adding a rule means adding a module here (or
a ``register(Rule(...))`` call in an existing one) — the engine, CLI and
``--explain`` catalogue pick it up automatically.
"""

from . import hygiene as hygiene
from . import rl001_determinism as rl001_determinism
from . import rl002_pickle as rl002_pickle
from . import rl003_no_unpack as rl003_no_unpack
from . import rl004_async as rl004_async
from . import rl005_resources as rl005_resources
from . import rl006_seed_flow as rl006_seed_flow
from . import rl008_async as rl008_async
