package load

import (
	"runtime"
	"testing"

	"sgxnet/internal/core"
)

// allocSinks keeps the pressure goroutines' allocations on the heap,
// one slot each so they do not race.
var allocSinks [4][]byte

// TestRigTalliesStable: a rig request's tally is exactly the work that
// request caused, so repeating a request must repeat its tally. For Tor,
// every circuit GET of an equal-length request (100..299 all carry
// seven-byte payloads) is identical; for SDN, request i re-fetches the
// routes of AS i mod sdnASes. The serving enclave keeps charging after
// it replies — a relay's EEXIT, the controller's EEXIT — so Serve must
// wait for it before snapshotting, or the charge lands in the next
// request's tally. Allocating goroutines force frequent GC pauses at
// GOMAXPROCS >= 2, which is what opens that window.
func TestRigTalliesStable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	stop := make(chan struct{})
	defer close(stop)
	for g := range allocSinks {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					allocSinks[g] = make([]byte, 64<<10)
				}
			}
		}()
	}
	for _, c := range []struct {
		name   string
		rigs   int
		period int
		build  func(k int) (Rig, error)
	}{
		{"tor", 5, 1, func(k int) (Rig, error) { return NewTorRig(int64(7+k), nil) }},
		{"sdn", 2, sdnASes, func(int) (Rig, error) { return NewSDNRig() }},
	} {
		for k := 0; k < c.rigs; k++ {
			r, err := c.build(k)
			if err != nil {
				t.Fatal(err)
			}
			first := make(map[int]core.Tally, c.period)
			for i := 100; i < 300; i++ {
				got, err := r.Serve(i)
				if err != nil {
					t.Fatal(err)
				}
				want, seen := first[i%c.period]
				if !seen {
					first[i%c.period] = got
				} else if got != want {
					t.Errorf("%s rig %d: request %d tally %v, request %d tally %v",
						c.name, k, i, got, 100+(i-100)%c.period, want)
					break
				}
			}
			r.Close()
		}
	}
}
