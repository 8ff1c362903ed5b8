"""Repository benchmark: offline train/evaluate and served line-to-alert."""
