package ops

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"streamdb/internal/ckpt"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// walkXJoin is the state walk XJoin.MemSize performed before it kept a
// counter: every in-memory partition tuple plus its residency interval.
func walkXJoin(x *XJoin) int {
	n := 256
	for s := 0; s < 2; s++ {
		for _, p := range x.parts[s] {
			for _, xt := range p.mem {
				n += xt.t.MemSize() + 16
			}
		}
	}
	return n
}

// TestXJoinFootprintMatchesWalk holds XJoin's byte counter to the walk
// after every push or batch, on seeded streams of variable-width tuples
// with a small budget (so partitions spill), across a Snapshot→Restore
// and the cleanup Flush, on the row and the columnar insert path.
func TestXJoinFootprintMatchesWalk(t *testing.T) {
	sch := [2]*tuple.Schema{
		tuple.NewSchema("L", tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
			tuple.Field{Name: "k", Kind: tuple.KindInt}, tuple.Field{Name: "s", Kind: tuple.KindString}),
		tuple.NewSchema("R", tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
			tuple.Field{Name: "k", Kind: tuple.KindInt}, tuple.Field{Name: "s", Kind: tuple.KindString}),
	}
	mk := func() *XJoin {
		x, err := NewXJoin("x", sch[0], sch[1], []int{1}, []int{1}, 4, 48, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	emit := func(stream.Element) {}
	emitB := func(b *stream.Batch) { b.Release() }
	for _, columnar := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := mk()
			check := func(at string) {
				t.Helper()
				if got, want := x.MemSize(), walkXJoin(x); got != want {
					t.Fatalf("columnar=%v seed %d %s: MemSize %d, walk %d", columnar, seed, at, got, want)
				}
			}
			pools := [2]*stream.ColPool{stream.NewColPool(sch[0], 8), stream.NewColPool(sch[1], 8)}
			ts := int64(0)
			for step := 0; step < 300; step++ {
				if step == 150 {
					r := mk()
					enc := &ckpt.Encoder{}
					if err := x.Snapshot(enc); err != nil {
						t.Fatal(err)
					}
					x.Close()
					if err := r.Restore(ckpt.NewDecoder(enc.Bytes())); err != nil {
						t.Fatal(err)
					}
					x = r
					check("after restore")
				}
				port := rng.Intn(2)
				var b *stream.Batch
				if columnar {
					b = pools[port].Get()
				}
				for k := 1 + rng.Intn(6); k > 0; k-- {
					ts++
					tp := tuple.New(ts, tuple.Time(ts), tuple.Int(rng.Int63n(12)),
						tuple.String(strings.Repeat("y", rng.Intn(20))))
					if b != nil {
						b.AppendRow(tp)
						continue
					}
					x.Push(port, stream.Tup(tp), emit)
					check(fmt.Sprintf("step %d push", step))
				}
				if b != nil {
					x.ProcessBatch(port, b, emitB, emit)
					check(fmt.Sprintf("step %d batch", step))
				}
			}
			if _, spills, _, _ := x.Stats(); spills == 0 {
				t.Fatalf("columnar=%v seed %d: no spills; the budget does not exercise spilling", columnar, seed)
			}
			x.Flush(emit)
			check("after flush")
		}
	}
}
