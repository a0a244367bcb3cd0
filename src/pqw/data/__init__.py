"""Data that ships with pqw: the named-graph catalog (pqw.data.catalog)."""
