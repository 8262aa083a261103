package netx

import (
	"math/rand"
	"testing"
)

func TestCarveBlocksPaperExample(t *testing.T) {
	// §5.3: X originates 128.66.0.0/16, Y originates 128.66.2.0/24.
	// X's blocks: 128.66.0.0–128.66.1.255 and 128.66.3.0–128.66.255.255.
	p := MustParsePrefix("128.66.0.0/16")
	ms := []Prefix{MustParsePrefix("128.66.2.0/24")}
	blocks := CarveBlocks(p, ms)
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks: %v", len(blocks), blocks)
	}
	if blocks[0].First != MustParseAddr("128.66.0.0") || blocks[0].Last != MustParseAddr("128.66.1.255") {
		t.Errorf("block 0 = %v-%v", blocks[0].First, blocks[0].Last)
	}
	if blocks[1].First != MustParseAddr("128.66.3.0") || blocks[1].Last != MustParseAddr("128.66.255.255") {
		t.Errorf("block 1 = %v-%v", blocks[1].First, blocks[1].Last)
	}
}

func TestCarveBlocksNoHoles(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/24")
	blocks := CarveBlocks(p, nil)
	if len(blocks) != 1 || blocks[0] != BlockFromPrefix(p) {
		t.Fatalf("got %v", blocks)
	}
}

func TestCarveBlocksFullCover(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/24")
	lo, hi := p.Halves()
	blocks := CarveBlocks(p, []Prefix{lo, hi})
	if len(blocks) != 0 {
		t.Fatalf("fully covered prefix should yield no blocks, got %v", blocks)
	}
}

func TestCarveBlocksIgnoresOutside(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/24")
	blocks := CarveBlocks(p, []Prefix{MustParsePrefix("11.0.0.0/24"), p})
	if len(blocks) != 1 {
		t.Fatalf("unrelated and identical prefixes should not carve: %v", blocks)
	}
}

func TestCarveBlocksAdjacentHoles(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/22")
	ms := []Prefix{
		MustParsePrefix("10.0.1.0/24"),
		MustParsePrefix("10.0.2.0/24"),
	}
	blocks := CarveBlocks(p, ms)
	if len(blocks) != 2 {
		t.Fatalf("got %v", blocks)
	}
	if blocks[0].Last != MustParseAddr("10.0.0.255") {
		t.Errorf("block 0 = %v-%v", blocks[0].First, blocks[0].Last)
	}
	if blocks[1].First != MustParseAddr("10.0.3.0") {
		t.Errorf("block 1 = %v-%v", blocks[1].First, blocks[1].Last)
	}
}

// TestCarveBlocksInvariants: carved blocks are sorted, disjoint, inside p,
// exclude every more-specific, and cover exactly p minus the holes.
func TestCarveBlocksInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		p := MakePrefix(Addr(rng.Uint32()), 12+rng.Intn(5))
		var ms []Prefix
		nHoles := rng.Intn(6)
		for i := 0; i < nHoles; i++ {
			sub := p.Subnet(p.Len+4, rng.Intn(16))
			ms = append(ms, sub)
		}
		blocks := CarveBlocks(p, ms)
		var covered uint64
		last := Addr(0)
		for i, b := range blocks {
			if b.Empty() {
				t.Fatalf("empty block %v", b)
			}
			if i > 0 && b.First <= last {
				t.Fatalf("blocks overlap or unsorted: %v after %v", b, last)
			}
			last = b.Last
			if !p.Contains(b.First) || !p.Contains(b.Last) {
				t.Fatalf("block %v-%v outside %v", b.First, b.Last, p)
			}
			for _, h := range ms {
				if b.Contains(h.First()) || b.Contains(h.Last()) {
					t.Fatalf("block %v-%v intersects hole %v", b.First, b.Last, h)
				}
			}
			covered += b.NumAddrs()
		}
		var holeAddrs uint64
		seen := map[Prefix]bool{}
		for _, h := range ms {
			if !seen[h] {
				holeAddrs += h.NumAddrs()
				seen[h] = true
			}
		}
		if covered != p.NumAddrs()-holeAddrs {
			t.Fatalf("covered %d addrs, want %d (p=%v holes=%v)", covered, p.NumAddrs()-holeAddrs, p, ms)
		}
	}
}

func TestBlockSubtract(t *testing.T) {
	b := Block{First: 100, Last: 200}
	// Hole strictly inside.
	out := b.Subtract(MakePrefix(128, 28)) // 128-143
	if len(out) != 2 || out[0].Last != 127 || out[1].First != 144 {
		t.Fatalf("got %v", out)
	}
	// Disjoint.
	out = b.Subtract(MakePrefix(1024, 28))
	if len(out) != 1 || out[0] != b {
		t.Fatalf("disjoint subtract changed block: %v", out)
	}
}
