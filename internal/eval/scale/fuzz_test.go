package scale

import (
	"reflect"
	"testing"
)

// FuzzScaleSpec holds the scale-sweep spec parser to its contract on
// arbitrary input: parse either rejects with an error or yields a spec
// that (a) validates, (b) round-trips through its canonical String
// form, and (c) — when small enough to run quickly — simulates to
// completion with the exact event count the machine promises. No
// panics, no out-of-range topology indexing, ever.
func FuzzScaleSpec(f *testing.F) {
	seeds := []string{
		"sdn:ases=64,updates=4,rate=100,seed=42",
		"sdn:ases=8,updates=2,rate=50,seed=7,edges=0-1|1-2|0-7",
		"tor:relays=100,flows=64,hops=3,rate=400,seed=7,arrival=poisson",
		"tor:relays=9,flows=32,hops=8,rate=12.5,seed=0,arrival=bursty",
		// Rejections the parser must produce, not panic over:
		"sdn:ases=0,updates=4,rate=100,seed=1",                  // zero hosts
		"sdn:ases=99999999999999999999,updates=1,rate=1,seed=1", // overflow
		"sdn:ases=4,updates=1,rate=1,seed=1,edges=1-2|2-1",      // duplicate edge
		"sdn:ases=4,updates=1,rate=1,seed=1,edges=2-2",          // self loop
		"tor:relays=2,flows=10,hops=3,rate=1,seed=1,arrival=fixed",
		"tor:relays=9,flows=10,hops=3,rate=NaN,seed=1,arrival=fixed",
		"::,=,",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return // rejected input: the only other acceptable outcome
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed spec fails Validate: %q -> %+v: %v", in, s, err)
		}
		rt, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %q -> %q: %v", in, s.String(), err)
		}
		if !reflect.DeepEqual(rt, s) {
			t.Fatalf("round trip diverged: %q -> %+v -> %+v", in, s, rt)
		}
		// Simulate the small cells to hold the machines to their exact
		// event-count contract; big cells would tank fuzz throughput
		// without exercising different code paths.
		if s.Hosts > 512 || s.Ops() > 2048 || len(s.Edges) > 64 {
			return
		}
		r, err := RunSampled(s, nil)
		if err != nil {
			t.Fatalf("valid small spec failed to run: %q: %v", in, err)
		}
		var want uint64
		switch s.Kind {
		case SDN:
			want = uint64(3*s.Ops() + 2*len(s.Edges)*s.Updates)
		case Tor:
			want = uint64(s.Flows * (s.Hops + 2))
		}
		if r.Events != want {
			t.Fatalf("%q: %d events, want %d", in, r.Events, want)
		}
		if r.Ops != s.Ops() {
			t.Fatalf("%q: %d ops completed, want %d", in, r.Ops, s.Ops())
		}
	})
}
