package window

import (
	"math/rand"
	"strings"
	"testing"

	"streamdb/internal/tuple"
)

// walkFifo is the segment walk Fifo.MemSize performed before it kept a
// segment count.
func walkFifo(f *Fifo) int {
	segs := 0
	for s := f.head; s != nil; s = s.next {
		segs++
	}
	return f.bytes + segs*(16+8*fifoSegLen)
}

// TestFifoFootprintMatchesWalk interleaves Push, PushRun and PopFront
// bursts (crossing segment boundaries, draining to empty) and checks the
// segment count against the walk after every operation.
func TestFifoFootprintMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewFifo()
		ts := int64(0)
		mk := func() *tuple.Tuple {
			ts++
			return tuple.New(ts, tuple.Time(ts), tuple.String(strings.Repeat("z", rng.Intn(16))))
		}
		for step := 0; step < 2000; step++ {
			switch rng.Intn(3) {
			case 0:
				f.Push(mk())
			case 1:
				run := make([]*tuple.Tuple, rng.Intn(3*fifoSegLen))
				for i := range run {
					run[i] = mk()
				}
				f.PushRun(run)
			default:
				for k := rng.Intn(2 * fifoSegLen); k > 0; k-- {
					f.PopFront()
				}
			}
			if got, want := f.MemSize(), walkFifo(f); got != want {
				t.Fatalf("seed %d step %d: MemSize %d, walk %d (len %d)", seed, step, got, want, f.Len())
			}
		}
	}
}

// TestPartitionedFootprintMatchesWalk checks Partitioned's running
// totals against a walk of its partitions across inserts and
// invalidations that prune emptied partitions.
func TestPartitionedFootprintMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPartitioned([]int{1}, func() Buffer { return NewTimeBuffer(30) })
		ts := int64(0)
		for step := 0; step < 2000; step++ {
			if rng.Intn(8) == 0 {
				p.Invalidate(ts)
			} else {
				ts += rng.Int63n(3)
				p.Insert(tuple.New(ts, tuple.Time(ts), tuple.Int(rng.Int63n(10)),
					tuple.String(strings.Repeat("z", rng.Intn(16)))))
			}
			n, b := 0, 0
			for _, pt := range p.parts {
				n += pt.buf.Len()
				b += pt.buf.MemSize()
			}
			if p.Len() != n || p.MemSize() != b {
				t.Fatalf("seed %d step %d: Len %d MemSize %d, walk %d and %d", seed, step, p.Len(), p.MemSize(), n, b)
			}
		}
	}
}
