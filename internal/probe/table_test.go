package probe

import (
	"sync"
	"testing"

	"bdrmap/internal/netx"
)

// TestTableFirstStoredWins hammers one table from eight goroutines that all
// put and get the same keys while it grows from empty through ten
// doublings: every goroutine must be handed the one stored value per key —
// the first put's — and a value once returned must stay where it is.
func TestTableFirstStoredWins(t *testing.T) {
	const keys, workers = 5000, 8
	var tab table[uint64, [2]int]
	got := make([][]*[2]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*[2]int, keys)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := uint64((i*7 + w*131) % keys) // each worker in its own order
				// A poor hash on purpose: half the keys collide pairwise.
				h := netx.Mix64(k / 2)
				v := tab.get(k, h)
				if v == nil {
					v = tab.put(k, h, [2]int{int(k), w})
				}
				got[w][k] = v
			}
		}(w)
	}
	wg.Wait()
	if tab.len() != keys {
		t.Fatalf("table holds %d entries, want %d", tab.len(), keys)
	}
	for k := 0; k < keys; k++ {
		v := tab.get(uint64(k), netx.Mix64(uint64(k)/2))
		if v == nil || v[0] != k {
			t.Fatalf("key %d: got %v", k, v)
		}
		for w := range got {
			if got[w][k] != v {
				t.Fatalf("key %d: worker %d was handed %p %v, the table holds %p %v", k, w, got[w][k], *got[w][k], v, *v)
			}
		}
	}
	if v := tab.get(keys, netx.Mix64(keys/2)); v != nil {
		t.Fatalf("absent key found: %v", *v)
	}
}
