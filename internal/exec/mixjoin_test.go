package exec

// Mixed queue entries in the key-partition router: on a columnar run a
// join port fed through a row-only operator delivers row batches while
// the other port delivers column batches, so the splitter's queues hold
// row entries and batch entries at once and a replica task can carry
// both. The routed run must still match the serial engine byte for
// byte.

import (
	"fmt"
	"testing"

	"streamdb/internal/ops"
	"streamdb/internal/stream"
)

func TestColumnarJoinMixedRowAndBatchEntries(t *testing.T) {
	left := pjStream(1200, 0, 6, 42)
	right := pjStream(1200, 1, 6, 99)
	run := func(opts *RunOptions) (dup, join NodeStats, got []string) {
		g := NewGraph(func(e stream.Element) {
			if e.IsPunct() {
				got = append(got, fmt.Sprintf("punct@%d", e.Punct.Ts))
				return
			}
			got = append(got, fmt.Sprintf("%d|%s", e.Tuple.Ts, e.Tuple.String()))
		})
		sl := g.AddSource(stream.FromElements(pjLeft, left...))
		sr := g.AddSource(stream.FromElements(pjRight, right...))
		// DupElim is row-only: on a columnar run it replays each column
		// batch row by row and emits a row batch into join port 0. Its
		// key lv is unique, so it drops nothing: the router re-derives
		// the serial interleave from the timestamps its ports see, which
		// only match the sources' when no tuple disappears on the way.
		d := g.AddOp(ops.NewDupElim("distinct", pjLeft, []int{2}, 16))
		j := g.AddOp(pjJoin(t, ops.JoinHash, ops.JoinHash, true))
		for _, err := range []error{
			g.ConnectSource(sl, d, 0),
			g.Connect(d, j, 0),
			g.ConnectSource(sr, j, 1),
			g.ConnectOut(j),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if opts == nil {
			g.Run(-1)
		} else {
			g.RunWith(-1, *opts)
		}
		return g.Stats(d), g.Stats(j), got
	}
	_, _, base := run(nil)
	if len(base) == 0 {
		t.Fatal("serial baseline produced nothing")
	}
	for _, p := range []int{1, 2, 4} {
		for _, bs := range []int{7, 64} {
			o := RunOptions{BatchSize: bs, Parallelism: p, ForceParallelism: true, PartitionJoins: true, Columnar: true}
			dup, join, got := run(&o)
			label := fmt.Sprintf("P%d/batch%d", p, bs)
			sameSeq(t, label, got, base)
			if dup.RowFallbacks == 0 {
				t.Errorf("%s: DupElim saw no column batch, port 0 never carried row entries from one", label)
			}
			if join.Batches == 0 {
				t.Errorf("%s: join splitter saw no column batch", label)
			}
			if join.Replicas != p {
				t.Errorf("%s: Replicas = %d, want %d", label, join.Replicas, p)
			}
		}
	}
}
