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
	var tab table[halfKey, [2]int]
	got := make([][]*[2]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*[2]int, keys)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := halfKey((i*7 + w*131) % keys) // each worker in its own order
				v := tab.get(k)
				if v == nil {
					v = tab.put(k, [2]int{int(k), w})
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
		v := tab.get(halfKey(k))
		if v == nil || v[0] != k {
			t.Fatalf("key %d: got %v", k, v)
		}
		for w := range got {
			if got[w][k] != v {
				t.Fatalf("key %d: worker %d was handed %p %v, the table holds %p %v", k, w, got[w][k], *got[w][k], v, *v)
			}
		}
	}
	if v := tab.get(keys); v != nil {
		t.Fatalf("absent key found: %v", *v)
	}
}

// halfKey hashes poorly on purpose: half the keys collide pairwise.
type halfKey uint64

func (k halfKey) hash() uint64 { return netx.Mix64(uint64(k) / 2) }
