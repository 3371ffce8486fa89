"""Small shared utilities: :mod:`.tables` (text tables) and
:mod:`.durable` (the one durable-write path)."""
