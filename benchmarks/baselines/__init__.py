"""Baselines the paper positions PISCES 2 against: a SCHEDULE-style
list scheduler (:mod:`.schedule`) and the serial runner (:mod:`.seq`),
on the same MMOS virtual-time substrate."""
