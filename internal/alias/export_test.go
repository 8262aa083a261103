package alias

import "strconv"

// fmtIDs renders IP-ID samples as comma-separated decimals — what Ally's
// provenance events carried before samples were stored as numbers; kept
// verbatim as the oracle for how they export.
func fmtIDs(ids []uint16) string {
	b := make([]byte, 0, 6*len(ids))
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	return string(b)
}
