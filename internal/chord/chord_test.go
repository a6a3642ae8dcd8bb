package chord

import (
	"testing"

	"ddpolice/internal/rng"
)

func ring(t *testing.T, n int) *Ring {
	t.Helper()
	r, err := New(n, DefaultConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, DefaultConfig(), rng.New(1)); err == nil {
		t.Error("size 1 accepted")
	}
	cfg := DefaultConfig()
	cfg.SuccessorListLen = 0
	if _, err := New(10, cfg, rng.New(1)); err == nil {
		t.Error("zero successor list accepted")
	}
	cfg = DefaultConfig()
	cfg.CapacityPerMin = 0
	if _, err := New(10, cfg, rng.New(1)); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestLookupReachesResponsibleNode(t *testing.T) {
	r := ring(t, 256)
	src := rng.New(2)
	for i := 0; i < 500; i++ {
		r.Tick()
		key := NodeID(src.Uint64())
		res := r.Lookup(src.Intn(256), key)
		if !res.OK {
			t.Fatalf("lookup %d failed", i)
		}
		// The owner must be the key's successor.
		want := r.successorOf(key)
		if res.Owner != want {
			t.Fatalf("lookup %d: owner %d, want %d", i, res.Owner, want)
		}
	}
	st := r.Stats()
	if st.Failures != 0 {
		t.Fatalf("failures = %d", st.Failures)
	}
	// Hop counts must be logarithmic: comfortably under log2(n) + slack.
	if st.MeanHops > 10 {
		t.Fatalf("mean hops = %v on a 256-node ring", st.MeanHops)
	}
	if st.MeanHops < 1 {
		t.Fatalf("mean hops = %v, implausibly small", st.MeanHops)
	}
}

func TestLookupHopsScaleLogarithmically(t *testing.T) {
	src := rng.New(3)
	meanAt := func(n int) float64 {
		r, err := New(n, DefaultConfig(), rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			r.Tick()
			r.Lookup(src.Intn(n), NodeID(src.Uint64()))
		}
		return r.Stats().MeanHops
	}
	small, large := meanAt(64), meanAt(2048)
	if large <= small {
		t.Fatalf("hops did not grow with ring size: %v vs %v", small, large)
	}
	// 32x more nodes must cost ~5 extra hops, not 32x more.
	if large > small*3 {
		t.Fatalf("hops grew super-logarithmically: %v -> %v", small, large)
	}
}

func TestLookupSurvivesOfflineNodes(t *testing.T) {
	r := ring(t, 300)
	src := rng.New(5)
	// Take 25% of the ring offline.
	for p := 0; p < 300; p += 4 {
		r.SetOnline(p, false)
	}
	okCount := 0
	for i := 0; i < 400; i++ {
		r.Tick()
		origin := src.Intn(300)
		if !r.Online(origin) {
			continue
		}
		if res := r.Lookup(origin, NodeID(src.Uint64())); res.OK {
			okCount++
			if !r.Online(indexOf(r, res.Owner)) {
				t.Fatal("lookup resolved to an offline owner")
			}
		}
	}
	if okCount < 250 {
		t.Fatalf("only %d lookups survived 25%% churn", okCount)
	}
}

// indexOf maps a ring position back to the external index.
func indexOf(r *Ring, pos int) int {
	for p, q := range r.index {
		if q == pos {
			return p
		}
	}
	return -1
}

func TestSaturationDropsLookups(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityPerMin = 60 // one token per tick per node
	r, err := New(100, cfg, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	r.Tick()
	// Many lookups within one tick: capacity must bite.
	for i := 0; i < 2000; i++ {
		r.Lookup(src.Intn(100), NodeID(src.Uint64()))
	}
	st := r.Stats()
	if st.Drops == 0 {
		t.Fatal("no capacity drops under a within-tick burst")
	}
	r.Tick()
	res := r.Lookup(0, NodeID(src.Uint64()))
	if !res.OK {
		t.Fatal("refilled ring still failing")
	}
}

func TestOfflineOriginFails(t *testing.T) {
	r := ring(t, 50)
	r.SetOnline(7, false)
	if res := r.Lookup(7, 12345); res.OK {
		t.Fatal("offline origin routed a lookup")
	}
}
