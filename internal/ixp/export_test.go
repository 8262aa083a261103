package ixp

import "bdrmap/internal/netx"

// Prefixes returns the merged prefix list, sorted.
func (pl *PrefixList) Prefixes() []netx.Prefix { return pl.prefixes }
