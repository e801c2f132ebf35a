package replica

import (
	"testing"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// TestFleetPartitionSeeds: partition p of a fleet built WithSeed(s)
// selects with texservice.DeriveSeed(s, p), the one seed rule of the
// text-service stack, so partitions never route in lockstep and a fleet
// built from one seed routes the same way every time.
func TestFleetPartitionSeeds(t *testing.T) {
	ix := textidx.NewIndex()
	ix.MustAdd(textidx.Document{ExtID: "d0", Fields: map[string]string{"title": "text"}})
	ix.Freeze()
	svc, err := texservice.NewLocal(ix)
	if err != nil {
		t.Fatal(err)
	}
	backends := [][]texservice.Service{{svc, svc}, {svc}, {svc, svc, svc}}
	for _, seed := range []int64{0, 1, 31} {
		opts := []Option{WithSeed(seed)}
		base := seed
		if seed == 0 {
			opts, base = nil, 1 // no seed option: the default seed
		}
		fleet, err := NewFleet(backends, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for p, s := range fleet.Sets() {
			if want := texservice.DeriveSeed(base, p); s.opts.seed != want {
				t.Errorf("seed %d: partition %d selects with seed %d, want %d", seed, p, s.opts.seed, want)
			}
		}
	}
}
