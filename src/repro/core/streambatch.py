"""Legacy name of :class:`~repro.core.bitstream.Bitstream`.

Kept only because the frozen benchmark harness (``yardstick/tracing.py``)
imports ``StreamBatch`` from here and times ``StreamBatch.exact_count``.
"""

from .bitstream import Bitstream

StreamBatch = Bitstream
