package exec

import (
	"testing"

	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/window"
)

// memProbe records an operator's MemSize after every push.
type memProbe struct {
	ops.Operator
	sizes []int
}

func (m *memProbe) Push(port int, e stream.Element, emit ops.Emit) {
	m.Operator.Push(port, e, emit)
	m.sizes = append(m.sizes, m.Operator.MemSize())
}

// TestSerialMaxMemoryIsExactPeak: Graph.Run samples MemSize after every
// push, so a pane GROUP BY's MaxMemory is the maximum of its per-push
// footprints, not a strided sample that can miss the peak.
func TestSerialMaxMemoryIsExactPeak(t *testing.T) {
	probe := &memProbe{Operator: paneGroupBy(t, window.Time(20, 5), []string{"count", "sum", "max"}, true)}
	g := NewGraph(nil)
	src := g.AddSource(stream.FromElements(paneSch, paneStream(3000, false)...))
	n := g.AddOp(probe)
	if err := g.ConnectSource(src, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(n); err != nil {
		t.Fatal(err)
	}
	g.Run(-1)
	peak, strided := 0, 0
	for i, m := range probe.sizes {
		peak = max(peak, m)
		if (i+1)%64 == 1 {
			strided = max(strided, m)
		}
	}
	if got := g.Stats(n).MaxMemory; got != peak {
		t.Fatalf("MaxMemory %d, per-push peak %d", got, peak)
	}
	if strided >= peak {
		t.Fatalf("every-64th-push sampling reaches the peak (%d) on this stream; it cannot tell exact sampling apart", peak)
	}
}
